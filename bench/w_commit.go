package main

import (
	"path/filepath"
	"strconv"
	"time"

	"dmx"
)

// commit-durable: the generic interface used write-only. Each op is one
// transaction — Begin, four Relation.Insert into a heap with one btree
// index, Commit — against a file-backed log and FileDisk with the
// engine's default flush policy: one log force per commit group, no
// added batching window. ddl and plan are bypassed; log append, commit
// force and group commit dominate.

const (
	commitPreload = 20000
	commitRowsPer = 4
	commitPad     = 40
	commitClients = 2
	commitUserB   = commitRowsPer * (commitPad + 24)
	commitStripe  = int64(1) << 40 // client c writes ids from c*commitStripe
	commitLookups = 200            // acknowledged ids read back through the index after recovery
)

var commitWorkload = workload{
	name:    "commit-durable",
	why:     "4-insert transactions on a file-backed log: WAL append, commit force and group commit dominate while ddl and plan are bypassed; acknowledged commits must survive recovery",
	op:      "transaction",
	clients: commitClients,
	setup:   setupCommit,

	timedQuiesce: true,
	newGens: func(cfg config) []generator {
		gens := make([]generator, commitClients)
		for c := range gens {
			gens[c] = newCommitGen(cfg, c)
		}
		return gens
	},
}

// commitGen yields transactions: a is the first of four consecutive ids,
// b seeds the amounts.
type commitGen struct {
	r  *rng
	id int64
}

func newCommitGen(cfg config, client int) *commitGen {
	return &commitGen{r: newRNG(cfg.seed, client), id: int64(client+1) * commitStripe}
}

func (g *commitGen) next() op {
	o := op{a: g.id, b: g.r.intn(1 << 30)}
	g.id += commitRowsPer
	return o
}

func commitAmount(id, seed int64) int64 { return int64(mix(uint64(id), uint64(seed)) % 1000000) }

func commitRecord(id, amount int64) dmx.Record {
	return dmx.Record{dmx.Int(id), dmx.Int(id % 1000), dmx.Int(amount), dmx.Str(pad(commitPad, id))}
}

type commitClient struct {
	gen   *commitGen
	recs  [commitRowsPer]dmx.Record
	acked int64  // acknowledged transactions
	sum   uint64 // checksum of their rows
	ids   []int64
}

type commitInst struct {
	d        *dmx.DB
	dir      string
	rel      *dmx.Relation
	clients  []*commitClient
	baseN    int64
	baseSum  uint64
	recoverS float64
}

func commitConfig(dir string, recover bool) dmx.Config {
	return dmx.Config{
		LogPath:    filepath.Join(dir, "wal.log"),
		DiskPath:   filepath.Join(dir, "data.db"),
		PoolFrames: 4096,
		Recover:    recover,
		// Checkpoints are scheduled by the benchmark, one per phase and
		// inside the measurement (workload.timedQuiesce).
		CheckpointEvery: -1,
	}
}

func setupCommit(cfg config) (instance, error) {
	db, err := dmx.Open(commitConfig(cfg.dir, false))
	if err != nil {
		return nil, err
	}
	if err := mustExec(db, "CREATE TABLE ledger (id INT NOT NULL, acct INT, amount INT, memo STRING) USING heap"); err != nil {
		return nil, err
	}
	rel, err := db.Relation("ledger")
	if err != nil {
		return nil, err
	}
	in := &commitInst{d: db, dir: cfg.dir, baseN: int64(cfg.scaled(commitPreload, 100))}
	tx := db.Begin()
	for i := int64(0); i < in.baseN; i++ {
		amt := commitAmount(i, int64(cfg.seed))
		if _, err := rel.Insert(tx, commitRecord(i, amt)); err != nil {
			return nil, err
		}
		in.baseSum += mix(uint64(i), uint64(amt))
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	if err := mustExec(db, "CREATE INDEX ledger_id ON ledger (id)"); err != nil {
		return nil, err
	}
	if in.rel, err = db.Relation("ledger"); err != nil {
		return nil, err
	}
	for c := 0; c < commitClients; c++ {
		in.clients = append(in.clients, &commitClient{gen: newCommitGen(cfg, c)})
	}
	return in, nil
}

func (in *commitInst) step(c int, m *meter) {
	cl := in.clients[c]
	o := cl.gen.next()
	var sum uint64
	for j := range cl.recs {
		id := o.a + int64(j)
		amt := commitAmount(id, o.b)
		cl.recs[j] = commitRecord(id, amt)
		sum += mix(uint64(id), uint64(amt))
	}
	tr := m.tr
	t0 := time.Now()
	root := tr.begin(layOp, -1)
	tx := in.d.Begin()
	var err error
	for j := range cl.recs {
		s := tr.begin(layRelOp, root)
		_, err = in.rel.Insert(tx, cl.recs[j])
		tr.end(s)
		if err != nil {
			break
		}
	}
	if err != nil {
		tx.Abort()
	} else {
		s := tr.begin(layCommit, root)
		err = tx.Commit()
		tr.end(s)
	}
	tr.end(root)
	tr.flush()
	m.done(t0, err == nil)
	m.commits++
	m.writes += commitRowsPer
	m.userB += commitUserB
	if err == nil {
		// Only an acknowledged transaction enters the shadow: these are
		// the rows recovery must bring back.
		cl.acked++
		cl.sum += sum
		if len(cl.ids) < commitLookups/commitClients && o.b%97 == 0 {
			cl.ids = append(cl.ids, o.a)
		}
	}
}

func (in *commitInst) pause(int, *meter) {}

func (in *commitInst) quiesce(m *meter) error { return checkpoint(in.d, m) }

// finish abandons the handle the way a crash would — no Close, so no
// closing checkpoint and no flush of dirty frames — reopens the same
// files with Recover, and requires every acknowledged row: the full-scan
// count and checksum must equal the shadow, and sampled ids must come
// back through the index.
func (in *commitInst) finish() (checks, failed int64, err error) {
	t0 := time.Now()
	db, err := dmx.Open(commitConfig(in.dir, true))
	if err != nil {
		return 0, 0, err
	}
	in.recoverS = time.Since(t0).Seconds()
	// The abandoned handle is dropped, never closed: its Close would
	// checkpoint and flush stale frames over the recovered files. Its
	// descriptors go when the process exits.
	in.d = db

	wantN, wantSum := in.baseN, in.baseSum
	for _, cl := range in.clients {
		wantN += cl.acked * commitRowsPer
		wantSum += cl.sum
	}
	n, sum, err := scanChecksum(db, "ledger", 0, 2)
	if err != nil {
		return 0, 0, err
	}
	checks = 2
	if n != wantN {
		failed++
	}
	if sum != wantSum {
		failed++
	}
	for _, cl := range in.clients {
		for _, id := range cl.ids {
			checks++
			res, err := db.Exec("SELECT id FROM ledger WHERE id = " + strconv.FormatInt(id, 10))
			if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != id {
				failed++
			}
		}
	}
	return checks, failed, nil
}

func (in *commitInst) close() error { return in.d.Close() }
func (in *commitInst) db() *dmx.DB  { return in.d }
func (in *commitInst) info() info {
	return info{relopDirect: true, extra: map[string]float64{"recover_s": in.recoverS}}
}
