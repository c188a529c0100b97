package main

import (
	"time"

	"dmx"
	"dmx/internal/core"
)

// shard-2pc: two clients on a relation hash-partitioned over three
// foreign servers at latency 0 (message counts are exact; a fixed latency
// would add only messages × latency and timer noise). 70 % routed point
// fetch, 25 % transfer transaction (two updates, most on different
// shards, plus a journal insert: two-phase commit), 5 % 500-row scatter
// range scan. Clients own the even and the odd accounts, so writers
// never conflict and each shadow is deterministic.

const (
	shardAccounts = 20000
	shardClients  = 2
	shardPad      = 32
	shardUserB    = shardPad + 24
	shardScanLen  = 500
	shardJournal  = int64(1) << 40 // journal ids start here, above every account
	shardOpening  = 1000000
)

const (
	shardFetch = iota
	shardTransfer
	shardScan
)

var shardWorkload = workload{
	name:    "shard-2pc",
	why:     "routed reads, cross-shard transfers with two-phase commit and scatter scans over three foreign servers: remote and partsm do nearly all the work; no other workload sends a message",
	op:      "transaction",
	clients: shardClients,
	setup:   setupShard,
	newGens: func(cfg config) []generator {
		gens := make([]generator, shardClients)
		for c := range gens {
			gens[c] = newShardGen(cfg, c)
		}
		return gens
	},
}

// shardGen owns the accounts whose id ≡ client (mod 2); bal shadows
// their balances, indexed by id/2.
type shardGen struct {
	r      *rng
	client int64
	n      int64 // accounts in total
	bal    []int64
}

func newShardGen(cfg config, client int) *shardGen {
	n := int64(cfg.scaled(shardAccounts, 2*shardScanLen)) / 2 * 2
	g := &shardGen{r: newRNG(cfg.seed, client), client: int64(client), n: n, bal: make([]int64, n/2)}
	for i := range g.bal {
		g.bal[i] = shardOpening
	}
	return g
}

func (g *shardGen) own() int64 { return g.r.intn(g.n/2)*2 + g.client }

// next yields: fetch (a = id, b = expected balance), transfer (a → b,
// amount c) or scan (a = first id).
func (g *shardGen) next() op {
	switch p := g.r.intn(100); {
	case p < 70:
		id := g.own()
		return op{kind: shardFetch, a: id, b: g.bal[id/2]}
	case p < 95:
		from, to := g.own(), g.own()
		for to == from {
			to = g.own()
		}
		amt := 1 + g.r.intn(100)
		g.bal[from/2] -= amt
		g.bal[to/2] += amt
		return op{kind: shardTransfer, a: from, b: to, c: amt}
	default:
		return op{kind: shardScan, a: g.r.intn(g.n - shardScanLen)}
	}
}

type shardInst struct {
	d       *dmx.DB
	srvs    []*dmx.ForeignServer
	rel     *dmx.Relation
	keys    keyArena // engine key of account id, by id
	memo    []string
	gens    []*shardGen
	journal [shardClients]int64
}

func (in *shardInst) record(id, bal int64) dmx.Record {
	return dmx.Record{dmx.Int(id), dmx.Int(id % 2), dmx.Int(bal), dmx.Str(in.memo[id%int64(len(in.memo))])}
}

func setupShard(cfg config) (instance, error) {
	db, err := dmx.Open(dmx.Config{})
	if err != nil {
		return nil, err
	}
	in := &shardInst{d: db}
	for _, name := range []string{"s0", "s1", "s2"} {
		srv := dmx.NewForeignServer(0)
		db.AttachShardServer(name, srv)
		in.srvs = append(in.srvs, srv)
	}
	if err := mustExec(db, "CREATE TABLE acct (id INT NOT NULL, owner INT, balance INT, memo STRING) USING part WITH (key=id, servers='s0,s1,s2', batch=100)"); err != nil {
		return nil, err
	}
	if in.rel, err = db.Relation("acct"); err != nil {
		return nil, err
	}
	for i := int64(0); i < 64; i++ {
		in.memo = append(in.memo, pad(shardPad, i))
	}
	for c := 0; c < shardClients; c++ {
		in.gens = append(in.gens, newShardGen(cfg, c))
	}
	n := in.gens[0].n
	for lo := int64(0); lo < n; lo += 1000 {
		tx := db.Begin()
		for id := lo; id < lo+1000 && id < n; id++ {
			k, err := in.rel.Insert(tx, in.record(id, shardOpening))
			if err != nil {
				return nil, err
			}
			in.keys.add(k)
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func (in *shardInst) step(c int, m *meter) {
	g := in.gens[c]
	o := g.next()
	tr := m.tr
	var recs [3]dmx.Record
	if o.kind == shardTransfer {
		recs[0] = in.record(o.a, g.bal[o.a/2])
		recs[1] = in.record(o.b, g.bal[o.b/2])
		jid := shardJournal + int64(c)<<32 + in.journal[c]
		in.journal[c]++
		recs[2] = in.record(jid, o.c)
	}
	t0 := time.Now()
	root := tr.begin(layOp, -1)
	relop := func(f func() error) error {
		s := tr.begin(layRelOp, root)
		err := f()
		tr.end(s)
		return err
	}
	tx := in.d.Begin()
	ok := true
	switch o.kind {
	case shardFetch:
		var got dmx.Record
		err := relop(func() (err error) {
			got, err = in.rel.Fetch(tx, in.keys.at(o.a), nil, nil)
			return err
		})
		ok = err == nil && got[0].I == o.a && got[2].I == o.b
	case shardTransfer:
		err := relop(func() error { _, err := in.rel.Update(tx, in.keys.at(o.a), recs[0]); return err })
		if err == nil {
			err = relop(func() error { _, err := in.rel.Update(tx, in.keys.at(o.b), recs[1]); return err })
		}
		if err == nil {
			err = relop(func() error { _, err := in.rel.Insert(tx, recs[2]); return err })
		}
		ok = err == nil
		m.writes += 3
		m.userB += 3 * shardUserB
		m.commits++
	case shardScan:
		// No Relation-op span here: draining the cursor is storage-method
		// work the engine's latency cells do not see, so a span around it
		// could not be split into self and child time.
		var n int64
		good := true
		err := func() error {
			scan, err := in.rel.OpenScan(tx, core.ScanOptions{
				Start: in.keys.at(o.a), End: in.keys.at(o.a + shardScanLen), Fields: []int{0, 2}})
			if err != nil {
				return err
			}
			defer scan.Close()
			for {
				_, rec, more, err := scan.Next()
				if err != nil || !more {
					return err
				}
				n++
				// Only the client's own accounts have a shadow it may
				// trust while the other client is writing.
				if id := rec[0].I; id%2 == int64(c) && rec[1].I != g.bal[id/2] {
					good = false
				}
			}
		}()
		ok = err == nil && good && n == shardScanLen
		m.rows += n
	}
	s := tr.begin(layCommit, root)
	if ok {
		ok = tx.Commit() == nil
	} else {
		tx.Abort()
	}
	tr.end(s)
	tr.end(root)
	tr.flush()
	m.done(t0, ok)
}

func (in *shardInst) pause(int, *meter) {}

func (in *shardInst) quiesce(m *meter) error { return checkpoint(in.d, m) }

// finish scans the whole relation: every account and journal row is
// there, each account holds its shadow balance, and transfers conserved
// the total.
func (in *shardInst) finish() (checks, failed int64, err error) {
	tx := in.d.Begin()
	defer tx.Commit()
	scan, err := in.rel.OpenScan(tx, core.ScanOptions{Fields: []int{0, 2}})
	if err != nil {
		return 0, 0, err
	}
	defer scan.Close()
	n := in.gens[0].n
	var rows, total, wrong int64
	for {
		_, rec, more, err := scan.Next()
		if err != nil {
			return 0, 0, err
		}
		if !more {
			break
		}
		rows++
		if id := rec[0].I; id < n {
			total += rec[1].I
			if rec[1].I != in.gens[id%2].bal[id/2] {
				wrong++
			}
		}
	}
	if rows != n+in.journal[0]+in.journal[1] {
		failed++
	}
	if total != n*shardOpening {
		failed++
	}
	if wrong != 0 {
		failed++
	}
	return 3, failed, nil
}

func (in *shardInst) close() error { return in.d.Close() }
func (in *shardInst) db() *dmx.DB  { return in.d }
func (in *shardInst) info() info   { return info{servers: in.srvs, relopDirect: true} }
