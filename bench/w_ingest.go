package main

import (
	"errors"
	"strconv"
	"time"

	"dmx"
	"dmx/internal/core"
)

// ingest-lsm: the same procedure vector as heap served by the append
// (LSM) storage method. One client runs Relation ops in 10-op
// transactions on an in-memory log: 50 % insert, 20 % update of a recent
// key, 10 % delete, 20 % point fetch, half of them on deleted keys. The
// memtable is small, so a run sees tens of flushes and several compaction
// tiers; compaction runs on the engine's default background goroutine.

const (
	ingestPreload  = 100000
	ingestPad      = 64
	ingestUserB    = ingestPad + 24
	ingestTxnOps   = 10
	ingestRecent   = 2000  // updates and deletes target the last this-many inserts
	ingestMemtable = 65536 // bytes; ~600 rows per flush
)

const (
	ingestInsert = iota
	ingestUpdate
	ingestDelete
	ingestFetch
	ingestFetchAbsent
)

var ingestWorkload = workload{
	name:    "ingest-lsm",
	why:     "mixed insert/update/delete/fetch on the LSM storage method with a small memtable: flushes, tiered compaction and bloom filters do the work; heap, ddl and plan are bypassed",
	op:      "relation op",
	clients: 1,
	setup:   setupIngest,
	newGens: func(cfg config) []generator { return []generator{newIngestGen(cfg)} },
}

// ingestGen shadows every row by insertion ordinal: val is its current
// value, dead marks deleted ordinals, gone lists them for absent fetches.
type ingestGen struct {
	r    *rng
	val  []int64
	dead []bool
	gone []int32
	live int64
}

func ingestVal(ord int64) int64 { return int64(mix(uint64(ord), 11) % 1000000) }

func newIngestGen(cfg config) *ingestGen {
	n := cfg.scaled(ingestPreload, 500)
	g := &ingestGen{r: newRNG(cfg.seed, 0), val: make([]int64, n, 4*n), dead: make([]bool, n, 4*n), live: int64(n)}
	for i := range g.val {
		g.val[i] = ingestVal(int64(i))
	}
	return g
}

// liveAt returns the closest live ordinal at or below ord (wrapping).
func (g *ingestGen) liveAt(ord int64) int64 {
	for g.dead[ord] {
		if ord--; ord < 0 {
			ord = int64(len(g.dead)) - 1
		}
	}
	return ord
}

func (g *ingestGen) next() op {
	n := int64(len(g.val))
	recent := func() int64 {
		w := int64(ingestRecent)
		if w > n {
			w = n
		}
		return g.liveAt(n - 1 - g.r.intn(w))
	}
	switch p := g.r.intn(100); {
	case p < 50:
		v := g.r.intn(1000000)
		g.val = append(g.val, v)
		g.dead = append(g.dead, false)
		g.live++
		return op{kind: ingestInsert, a: n, b: v}
	case p < 70:
		ord, v := recent(), g.r.intn(1000000)
		g.val[ord] = v
		return op{kind: ingestUpdate, a: ord, b: v}
	case p < 80:
		ord := recent()
		g.dead[ord] = true
		g.gone = append(g.gone, int32(ord))
		g.live--
		return op{kind: ingestDelete, a: ord}
	case p < 90 && len(g.gone) > 0:
		return op{kind: ingestFetchAbsent, a: int64(g.gone[g.r.intn(int64(len(g.gone)))])}
	default:
		ord := g.liveAt(g.r.intn(n))
		return op{kind: ingestFetch, a: ord, b: g.val[ord]}
	}
}

type ingestInst struct {
	d      *dmx.DB
	gen    *ingestGen
	rel    *dmx.Relation
	keys   keyArena
	tx     *dmx.Txn
	inTxn  int
	pads   [16]string
	spaceX float64
}

func ingestRecord(in *ingestInst, ord, val int64) dmx.Record {
	return dmx.Record{dmx.Int(ord), dmx.Int(ord % 16), dmx.Int(val), dmx.Str(in.pads[ord%16])}
}

func setupIngest(cfg config) (instance, error) {
	db, err := dmx.Open(dmx.Config{})
	if err != nil {
		return nil, err
	}
	if err := mustExec(db, "CREATE TABLE events (id INT NOT NULL, kind INT, val INT, payload STRING) USING append WITH (memtable="+
		strconv.Itoa(ingestMemtable)+", fanout=4, compact=background)"); err != nil {
		return nil, err
	}
	in := &ingestInst{d: db, gen: newIngestGen(cfg)}
	for i := range in.pads {
		in.pads[i] = pad(ingestPad, int64(i))
	}
	if in.rel, err = db.Relation("events"); err != nil {
		return nil, err
	}
	tx := db.Begin()
	for i, v := range in.gen.val {
		k, err := in.rel.Insert(tx, ingestRecord(in, int64(i), v))
		if err != nil {
			return nil, err
		}
		in.keys.add(k)
	}
	return in, tx.Commit()
}

func (in *ingestInst) step(_ int, m *meter) {
	o := in.gen.next()
	tr := m.tr
	var rec dmx.Record
	if o.kind == ingestInsert || o.kind == ingestUpdate {
		rec = ingestRecord(in, o.a, o.b)
	}
	t0 := time.Now()
	root := tr.begin(layOp, -1)
	if in.tx == nil {
		in.tx = in.d.Begin()
	}
	s := tr.begin(layRelOp, root)
	ok := true
	switch o.kind {
	case ingestInsert:
		k, err := in.rel.Insert(in.tx, rec)
		if ok = err == nil; ok {
			in.keys.add(k)
		}
	case ingestUpdate:
		_, err := in.rel.Update(in.tx, in.keys.at(o.a), rec)
		ok = err == nil
	case ingestDelete:
		ok = in.rel.Delete(in.tx, in.keys.at(o.a)) == nil
	case ingestFetch:
		got, err := in.rel.Fetch(in.tx, in.keys.at(o.a), nil, nil)
		ok = err == nil && got[0].I == o.a && got[2].I == o.b
	case ingestFetchAbsent:
		_, err := in.rel.Fetch(in.tx, in.keys.at(o.a), nil, nil)
		ok = errors.Is(err, core.ErrNotFound)
	}
	tr.end(s)
	if in.inTxn++; in.inTxn == ingestTxnOps {
		ok = in.commit(m, root) && ok
	}
	tr.end(root)
	tr.flush()
	m.done(t0, ok)
	if o.kind <= ingestDelete {
		m.writes++
		if o.kind != ingestDelete {
			m.userB += ingestUserB
		}
	}
}

func (in *ingestInst) commit(m *meter, root int) bool {
	s := m.tr.begin(layCommit, root)
	err := in.tx.Commit()
	m.tr.end(s)
	in.tx, in.inTxn = nil, 0
	m.commits++
	return err == nil
}

// pause commits the open transaction so the checkpoint between phases
// finds no writer holding the relation.
func (in *ingestInst) pause(_ int, m *meter) {
	if in.tx == nil {
		return
	}
	root := m.tr.begin(layOp, -1)
	if !in.commit(m, root) {
		m.failed++
	}
	m.tr.end(root)
	m.tr.flush()
}

func (in *ingestInst) quiesce(m *meter) error { return checkpoint(in.d, m) }

// finish compares a full scan with the shadow (live count and checksum
// over (id, val)) and reads the LSM's resident bytes for the space ratio.
func (in *ingestInst) finish() (checks, failed int64, err error) {
	g := in.gen
	var want uint64
	for ord, v := range g.val {
		if !g.dead[ord] {
			want += mix(uint64(ord), uint64(v))
		}
	}
	n, sum, err := scanChecksum(in.d, "events", 0, 2)
	if err != nil {
		return 0, 0, err
	}
	if n != g.live {
		failed++
	}
	if sum != want {
		failed++
	}
	res, err := in.d.Exec("SELECT bytes FROM sys.stat_lsm")
	if err != nil {
		return 2, failed, err
	}
	var resident int64
	for _, r := range res.Rows {
		resident += r[0].I
	}
	in.spaceX = ratio(float64(resident), float64(g.live*ingestUserB))
	return 2, failed, nil
}

func (in *ingestInst) close() error { return in.d.Close() }
func (in *ingestInst) db() *dmx.DB  { return in.d }
func (in *ingestInst) info() info {
	return info{relopDirect: true, extra: map[string]float64{"lsm.live_bytes_per_user_byte": in.spaceX}}
}
