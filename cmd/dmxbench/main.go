// Command dmxbench regenerates the experiment tables of EXPERIMENTS.md.
//
// The paper (SIGMOD 1987) contains no quantitative tables — its two
// figures are architecture diagrams — so the experiment suite turns each
// performance claim in the text into a measured comparison (see DESIGN.md
// for the claim → experiment mapping). Figures 1 and 2 are reproduced as
// executable demonstrations by examples/quickstart and examples/bank.
//
// Usage:
//
//	dmxbench [-run E4] [-scale 1.0]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dmx"
	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/lock"
	"dmx/internal/plan"
	"dmx/internal/remote"
	"dmx/internal/rig"
	"dmx/internal/sm/partsm"
	"dmx/internal/txn"
	"dmx/internal/types"
	"dmx/internal/wal"

	_ "dmx/internal/att/aggmv"
	_ "dmx/internal/att/btreeix"
	"dmx/internal/att/check"
	_ "dmx/internal/att/hashidx"
	_ "dmx/internal/att/joinidx"
	_ "dmx/internal/att/refint"
	_ "dmx/internal/att/rtreeix"
	_ "dmx/internal/att/stats"
	_ "dmx/internal/att/unique"
	_ "dmx/internal/sm/appendsm"
	_ "dmx/internal/sm/btreesm"
	_ "dmx/internal/sm/heap"
	_ "dmx/internal/sm/memsm"
	_ "dmx/internal/sm/tempsm"
)

var scale = flag.Float64("scale", 1.0, "scale workload sizes")

func n(base int) int { return int(float64(base) * *scale) }

// best3 runs fn three times and returns the fastest run (reduces GC and
// scheduler noise in the scan-bound measurements).
func best3(fn func()) time.Duration {
	best := rig.Time(fn)
	for i := 0; i < 2; i++ {
		if d := rig.Time(fn); d < best {
			best = d
		}
	}
	return best
}

type experiment struct {
	id   string
	desc string
	run  func() []*rig.Table
}

func main() {
	runOnly := flag.String("run", "", "run only the experiment with this id (e.g. E4)")
	flag.Parse()

	experiments := []experiment{
		{"E1", "extension activation: procedure vectors vs alternatives", e1Dispatch},
		{"E2", "tuple-at-a-time join call volume", e2Join},
		{"E3", "bound plans vs re-translation per execution", e3BoundPlans},
		{"E4", "early predicate evaluation (filter pushdown)", e4Filter},
		{"E5", "attached-procedure overhead per modification", e5Attachments},
		{"E6", "access path selection by extension cost estimates", e6AccessPaths},
		{"E7", "alternative relation storage methods", e7StorageMethods},
		{"E8", "veto undo and partial rollback cost", e8VetoRollback},
		{"E9", "immediate vs deferred constraint checking", e9Deferred},
		{"E10", "cascading deletes through attachment recursion", e10Cascade},
		{"E11", "record-structured relation descriptor overhead", e11Descriptor},
		{"E12", "common lock manager under contention", e12Locking},
		{"MT", "concurrent commit throughput: group commit and sharded hot paths", mtGroupCommit},
		{"SELFOBS", "per-transaction resource accounting: overhead with counters on vs off", selfObs},
		{"MVCC", "snapshot reads: locked vs lock-free read-only throughput", mvccReads},
		{"INGEST", "LSM tiered ingest: sustained writes, tombstones, bloom-filtered point reads", ingestLSM},
		{"PAR", "partitioned parallel scan and hash join vs serial execution", parExec},
		{"PART", "hash-sharded relations: routed access, scatter-gather, two-phase commit", partRouting},
		{"A1", "ablation: skipping index maintenance when no indexed field changed", a1SkipUnchanged},
		{"A2", "ablation: remote scan batch size", a2RemoteBatch},
		{"A3", "ablation: ORDER BY via ordered access path vs scan + sort", a3OrderedAccess},
		{"TRACE", "span-tracing overhead at off / 1% / 100% sampling", traceOverhead},
		{"CRASH", "restart replay cost vs checkpoint interval", crashRecovery},
	}
	for _, ex := range experiments {
		if *runOnly != "" && !strings.EqualFold(*runOnly, ex.id) {
			continue
		}
		fmt.Printf("\n=== %s: %s ===\n", ex.id, ex.desc)
		for _, table := range ex.run() {
			table.Fprint(os.Stdout)
		}
		runtime.GC() // isolate experiments from each other's garbage
	}
}

// --- E1: extension activation ---

func e1Dispatch() []*rig.Table {
	const iters = 5_000_000
	reg := core.NewRegistry()
	count := 0
	validate := func(*types.Schema, core.AttrList) error { count++; return nil }
	for id := core.SMID(1); id <= 6; id++ {
		reg.RegisterStorageMethod(&core.StorageOps{ID: id, Name: fmt.Sprintf("sm%d", id), ValidateAttrs: validate})
	}
	byMap := map[core.SMID]*core.StorageOps{}
	for id := core.SMID(1); id <= 6; id++ {
		byMap[id] = reg.StorageOps(id)
	}
	byName := map[string]*core.StorageOps{}
	for id := core.SMID(1); id <= 6; id++ {
		ops := reg.StorageOps(id)
		byName[ops.Name] = ops
	}

	t := rig.NewTable("E1 — activating the extension operation for a descriptor (per call)",
		"dispatch mechanism", "ns/op", "relative")
	t.Note = `"vectors of routine entry points ... makes the activation of the appropriate extension quite efficient"`

	direct := reg.StorageOps(2).ValidateAttrs
	dDirect := rig.Time(func() {
		for i := 0; i < iters; i++ {
			direct(nil, nil)
		}
	})
	dVector := rig.Time(func() {
		for i := 0; i < iters; i++ {
			reg.StorageOps(core.SMID(1+i%6)).ValidateAttrs(nil, nil)
		}
	})
	dMap := rig.Time(func() {
		for i := 0; i < iters; i++ {
			byMap[core.SMID(1+i%6)].ValidateAttrs(nil, nil)
		}
	})
	names := []string{"sm1", "sm2", "sm3", "sm4", "sm5", "sm6"}
	dName := rig.Time(func() {
		for i := 0; i < iters; i++ {
			byName[names[i%6]].ValidateAttrs(nil, nil)
		}
	})
	rel := func(d time.Duration) float64 { return float64(d) / float64(dVector) }
	t.Add("direct call (no selection)", float64(dDirect.Nanoseconds())/iters, rel(dDirect))
	t.Add("procedure vector (array index)", float64(dVector.Nanoseconds())/iters, rel(dVector))
	t.Add("map by small-int id", float64(dMap.Nanoseconds())/iters, rel(dMap))
	t.Add("map by extension name", float64(dName.Nanoseconds())/iters, rel(dName))
	_ = count
	return []*rig.Table{t}
}

// --- E2: tuple-at-a-time join call volume ---

func e2Join() []*rig.Table {
	outerN, innerN := n(2000), 10
	t := rig.NewTable("E2 — join of two moderate relations: extension calls and time",
		"strategy", "result rows", "extension calls", "time", "per row")
	t.Note = `"the join of two moderate sized relations can easily result in thousands of calls to storage method and attachment routines"`

	type strat struct {
		name  string
		prep  func(env *core.Env)
		spec  plan.JoinSpec
		force string // ForceJoin: keep each row on its named strategy
	}
	strats := []strat{
		{"nested loop (rescan inner)", nil,
			plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0, Fields: []int{1}}, "nl"},
		// The join probes dept's field 0 (its records carry eno == dno), so
		// the index must cover eno; on dno the probe path is unusable and
		// the row would silently degrade to a nested loop.
		{"index NL (B-tree probe)", func(env *core.Env) {
			rig.MustAttach(env, "dept", "btree", core.AttrList{"on": "eno"})
		}, plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0, Fields: []int{1}}, "indexnl"},
		{"hash join (build inner)", nil,
			plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0, Fields: []int{1}}, "hash"},
		{"join index", func(env *core.Env) {
			rig.MustAttach(env, "emp", "joinindex", core.AttrList{"name": "ed", "on": "dno", "peer": "dept"})
			rig.MustAttach(env, "dept", "joinindex", core.AttrList{"name": "ed", "on": "dno", "peer": "emp"})
		}, plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0, Fields: []int{1}, JoinIndex: "ed"}, ""},
	}
	for _, s := range strats {
		env := core.NewEnv(core.Config{})
		emp := rig.MustCreate(env, "emp", "heap", nil)
		rig.Load(env, emp, outerN, 20)
		dept := rig.MustCreate(env, "dept", "memory", nil)
		rig.WithTxn(env, func(tx *txn.Txn) {
			for i := 0; i < innerN; i++ {
				dept.Insert(tx, types.Record{types.Int(int64(i)), types.Int(int64(i)), types.Float(0), types.Str("d")})
			}
		})
		if s.prep != nil {
			s.prep(env)
		}
		p := plan.New(env)
		spec := s.spec
		b, err := p.Plan(plan.Query{Table: "emp", Fields: []int{0}, Join: &spec, ForceJoin: s.force})
		if err != nil {
			panic(err)
		}
		calls := func() int64 {
			tot := env.MetricsSnapshot().Totals
			return tot.SMCalls + tot.AttCalls + tot.Fetches + tot.Scans
		}
		callsBefore := calls()
		rows := 0
		d := rig.Time(func() {
			tx := env.Begin()
			rs, err := b.Execute(tx)
			if err != nil {
				panic(err)
			}
			for {
				_, ok, err := rs.Next()
				if err != nil {
					panic(err)
				}
				if !ok {
					break
				}
				rows++
			}
			rs.Close()
			tx.Commit()
		})
		t.Add(s.name, rows, calls()-callsBefore, d, rig.PerOp(d, rows))
	}
	return []*rig.Table{t}
}

// --- E3: bound plans ---

func e3BoundPlans() []*rig.Table {
	rows := n(5000)
	execs := n(2000)
	env := core.NewEnv(core.Config{})
	emp := rig.MustCreate(env, "emp", "memory", nil)
	rig.Load(env, emp, rows, 20)
	rig.MustAttach(env, "emp", "btree", core.AttrList{"name": "byeno", "on": "eno", "unique": "true"})

	q := plan.Query{Table: "emp", Fields: []int{2},
		Filter: expr.Eq(expr.Field(0), expr.Const(types.Int(123)))}
	p := plan.New(env)

	runPlan := func(b *plan.Bound) {
		tx := env.Begin()
		rs, err := b.Execute(tx)
		if err != nil {
			panic(err)
		}
		for {
			_, ok, err := rs.Next()
			if err != nil {
				panic(err)
			}
			if !ok {
				break
			}
		}
		rs.Close()
		tx.Commit()
	}

	bound, err := p.Plan(q)
	if err != nil {
		panic(err)
	}
	dBound := rig.Time(func() {
		for i := 0; i < execs; i++ {
			runPlan(bound)
		}
	})
	dReplan := rig.Time(func() {
		for i := 0; i < execs; i++ {
			b, err := p.Plan(q)
			if err != nil {
				panic(err)
			}
			runPlan(b)
		}
	})

	t := rig.NewTable("E3 — executing a saved plan vs re-translating per execution",
		"mode", "executions", "total", "per execution", "relative")
	t.Note = `"retain the translations of queries ... avoids the non-trivial costs of accessing the relation descriptions and optimizing the query at execution time"`
	t.Add("bound plan, reused", execs, dBound, rig.PerOp(dBound, execs), 1.0)
	t.Add("plan + execute each time", execs, dReplan, rig.PerOp(dReplan, execs),
		float64(dReplan)/float64(dBound))

	// Invalidation: dropping the index forces exactly one re-translation.
	rig.WithTxn(env, func(tx *txn.Txn) {
		if _, err := env.DropAttachment(tx, "emp", "btree", core.AttrList{"name": "byeno"}); err != nil {
			panic(err)
		}
	})
	runPlan(bound)
	t2 := rig.NewTable("E3b — automatic re-translation after DDL invalidates the plan",
		"event", "re-translations", "new plan")
	t2.Add("DROP INDEX then next execution", bound.Replans, bound.Explain())
	return []*rig.Table{t, t2}
}

// --- E4: filter pushdown ---

func e4Filter() []*rig.Table {
	rows := n(30000)
	env := core.NewEnv(core.Config{PoolFrames: 64})
	emp := rig.MustCreate(env, "emp", "heap", nil)
	rig.Load(env, emp, rows, 100)

	t := rig.NewTable("E4 — predicate evaluated in the buffer pool vs after copy-out",
		"selectivity", "matches", "pushdown", "copy-then-filter", "speedup")
	t.Note = `"allow filter predicates to be evaluated while the field values from the relation storage or access path are still in the buffer pool"`

	for _, sel := range []struct {
		label string
		limit int64
	}{
		{"0.1%", int64(rows / 1000)},
		{"1%", int64(rows / 100)},
		{"10%", int64(rows / 10)},
		{"100%", int64(rows)},
	} {
		filter := expr.Lt(expr.Field(0), expr.Const(types.Int(sel.limit)))
		matches := 0
		dPush := best3(func() {
			tx := env.Begin()
			scan, err := emp.OpenScan(tx, core.ScanOptions{Filter: filter, Fields: []int{0}})
			if err != nil {
				panic(err)
			}
			matches = rig.Drain(scan)
			tx.Commit()
		})
		ev := env.Eval
		matches2 := 0
		dCopy := best3(func() {
			matches2 = 0
			tx := env.Begin()
			scan, err := emp.OpenScan(tx, core.ScanOptions{})
			if err != nil {
				panic(err)
			}
			for {
				_, rec, ok, err := scan.Next()
				if err != nil {
					panic(err)
				}
				if !ok {
					break
				}
				// The "application" filters after every record has been
				// copied out of the storage method.
				keep, err := ev.EvalBool(filter, rec, nil)
				if err != nil {
					panic(err)
				}
				if keep {
					matches2++
				}
			}
			tx.Commit()
		})
		if matches != matches2 {
			panic(fmt.Sprintf("pushdown disagreement: %d vs %d", matches, matches2))
		}
		t.Add(sel.label, matches, dPush, dCopy, float64(dCopy)/float64(dPush))
	}
	return []*rig.Table{t}
}

// --- E5: attachment overhead ---

func e5Attachments() []*rig.Table {
	inserts := n(5000)
	check.RegisterPredicate("e5pos", expr.Ge(expr.Field(0), expr.Const(types.Int(0))))
	steps := []struct {
		label string
		att   string
		attrs core.AttrList
	}{
		{"+ btree index (dno)", "btree", core.AttrList{"name": "i1", "on": "dno"}},
		{"+ btree index (salary)", "btree", core.AttrList{"name": "i2", "on": "salary"}},
		{"+ hash index (eno)", "hash", core.AttrList{"name": "h1", "on": "eno"}},
		{"+ unique (eno)", "unique", core.AttrList{"name": "u1", "on": "eno"}},
		{"+ check constraint", "check", core.AttrList{"name": "c1", "predicate": "e5pos"}},
		{"+ stats", "stats", nil},
		{"+ aggregate (salary by dno)", "aggregate", core.AttrList{"name": "a1", "group": "dno", "value": "salary"}},
	}

	t := rig.NewTable("E5 — insert cost as attachments accumulate",
		"configuration", "attachment types", "per insert", "attached calls/insert")
	t.Note = "attachment updates are performed implicitly as side effects of relation modification"

	env := core.NewEnv(core.Config{})
	emp := rig.MustCreate(env, "emp", "memory", nil)
	measure := func(label string, natt int) {
		callsBefore := env.MetricsSnapshot().Totals.AttCalls
		d := rig.Time(func() { rig.Load(env, emp, inserts, 20) })
		calls := env.MetricsSnapshot().Totals.AttCalls - callsBefore
		t.Add(label, natt, rig.PerOp(d, inserts), float64(calls)/float64(inserts))
		// Reset contents between measurements.
		rig.WithTxn(env, func(tx *txn.Txn) {
			scan, err := emp.OpenScan(tx, core.ScanOptions{Fields: []int{}})
			if err != nil {
				panic(err)
			}
			var keys []types.Key
			for {
				k, _, ok, err := scan.Next()
				if err != nil {
					panic(err)
				}
				if !ok {
					break
				}
				keys = append(keys, k)
			}
			scan.Close()
			for _, k := range keys {
				if err := emp.Delete(tx, k); err != nil {
					panic(err)
				}
			}
		})
	}
	measure("bare relation", 0)
	for i, s := range steps {
		rig.MustAttach(env, "emp", s.att, s.attrs)
		emp, _ = env.OpenRelationByName("emp") // refresh descriptor
		measure(s.label, i+1)
	}
	return []*rig.Table{t}
}

// --- E6: access path selection ---

func e6AccessPaths() []*rig.Table {
	rows := n(50000)
	env := core.NewEnv(core.Config{PoolFrames: 2048})
	emp := rig.MustCreate(env, "emp", "heap", nil)
	rig.Load(env, emp, rows, 40)
	rig.MustAttach(env, "emp", "btree", core.AttrList{"name": "byeno", "on": "eno", "unique": "true"})
	rig.MustAttach(env, "emp", "hash", core.AttrList{"name": "bydno", "on": "dno"})

	p := plan.New(env)
	t := rig.NewTable("E6 — planner choice vs forced storage-method scan",
		"query", "chosen plan", "chosen", "scan", "speedup")
	t.Note = `"a B-tree access path will return a low cost if there is a predicate on the key of the B-tree ... the R-tree access path will recognize the ENCLOSES predicate"`

	cases := []struct {
		label  string
		filter *expr.Expr
	}{
		{"point: eno = K", expr.Eq(expr.Field(0), expr.Const(types.Int(int64(rows/2))))},
		{"range: eno < N/100", expr.Lt(expr.Field(0), expr.Const(types.Int(int64(rows/100))))},
		{"equality: dno = 3 (10%)", expr.Eq(expr.Field(1), expr.Const(types.Int(3)))},
		{"non-indexed: salary > N-10", expr.Gt(expr.Field(2), expr.Const(types.Float(float64(rows-10))))},
	}
	for _, c := range cases {
		b, err := p.Plan(plan.Query{Table: "emp", Fields: []int{0}, Filter: c.filter})
		if err != nil {
			panic(err)
		}
		dChosen := rig.Time(func() {
			tx := env.Begin()
			rs, _ := b.Execute(tx)
			for {
				_, ok, err := rs.Next()
				if err != nil {
					panic(err)
				}
				if !ok {
					break
				}
			}
			rs.Close()
			tx.Commit()
		})
		dScan := rig.Time(func() {
			tx := env.Begin()
			scan, err := emp.OpenScan(tx, core.ScanOptions{Filter: c.filter, Fields: []int{0}})
			if err != nil {
				panic(err)
			}
			rig.Drain(scan)
			tx.Commit()
		})
		t.Add(c.label, b.Explain(), dChosen, dScan, float64(dScan)/float64(dChosen))
	}

	// Spatial: R-tree vs scan on a parcels table.
	spatialRows := n(20000)
	senv := core.NewEnv(core.Config{})
	s := types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "shape", Kind: types.KindBytes},
	)
	rig.WithTxn(senv, func(tx *txn.Txn) {
		if _, err := senv.CreateRelation(tx, "parcels", s, "memory", nil); err != nil {
			panic(err)
		}
	})
	parcels, _ := senv.OpenRelationByName("parcels")
	side := 1
	for side*side < spatialRows {
		side++
	}
	rig.WithTxn(senv, func(tx *txn.Txn) {
		for i := 0; i < spatialRows; i++ {
			x, y := float64(i%side)*10, float64(i/side)*10
			if _, err := parcels.Insert(tx, types.Record{
				types.Int(int64(i)), expr.NewBox(x, y, x+2, y+2).Value(),
			}); err != nil {
				panic(err)
			}
		}
	})
	rig.MustAttach(senv, "parcels", "rtree", core.AttrList{"on": "shape"})
	query := expr.NewBox(0, 0, float64(side)/10, float64(side)/10)
	spFilter := expr.Encloses(expr.Const(query.Value()), expr.Field(1))
	sp := plan.New(senv)
	b, err := sp.Plan(plan.Query{Table: "parcels", Fields: []int{0}, Filter: spFilter})
	if err != nil {
		panic(err)
	}
	dChosen := rig.Time(func() {
		tx := senv.Begin()
		rs, _ := b.Execute(tx)
		for {
			_, ok, err := rs.Next()
			if err != nil {
				panic(err)
			}
			if !ok {
				break
			}
		}
		rs.Close()
		tx.Commit()
	})
	parcels, _ = senv.OpenRelationByName("parcels")
	dScan := rig.Time(func() {
		tx := senv.Begin()
		scan, err := parcels.OpenScan(tx, core.ScanOptions{Filter: spFilter, Fields: []int{0}})
		if err != nil {
			panic(err)
		}
		rig.Drain(scan)
		tx.Commit()
	})
	t.Add("spatial: ENCLOSES window", b.Explain(), dChosen, dScan, float64(dScan)/float64(dChosen))
	return []*rig.Table{t}
}

// --- E7: storage methods ---

func e7StorageMethods() []*rig.Table {
	rows := n(10000)
	fetches := n(2000)

	t := rig.NewTable("E7 — the same workload across relation storage methods",
		"storage method", "insert/op", "fetch-by-key/op", "full scan", "page I/Os", "remote msgs")
	t.Note = "alternative implementations of the common relation abstraction (heap, B-tree, main-memory, publishing, foreign)"

	type smCase struct {
		name  string
		sm    string
		attrs core.AttrList
		setup func(env *core.Env)
	}
	var fed *remote.Server
	cases := []smCase{
		{"heap", "heap", nil, nil},
		{"btree (key=eno)", "btree", core.AttrList{"key": "eno"}, nil},
		{"memory", "memory", nil, nil},
		{"temp (unlogged)", "temp", nil, nil},
		{"append (lsm)", "append", nil, nil},
		{"remote (20µs RTT)", "remote", core.AttrList{"server": "fed"}, func(env *core.Env) {
			fed = remote.NewServer(20 * time.Microsecond)
			partsm.AttachServer(env, "fed", fed)
		}},
	}
	for _, c := range cases {
		env := core.NewEnv(core.Config{PoolFrames: 1024})
		if c.setup != nil {
			c.setup(env)
		}
		rel := rig.MustCreate(env, "t", c.sm, c.attrs)
		remoteRows := rows
		if c.sm == "remote" {
			remoteRows = rows / 10 // round trips make full size tedious
		}
		var keys []types.Key
		dInsert := rig.Time(func() { keys = rig.Load(env, rel, remoteRows, 40) })
		dFetch := rig.Time(func() {
			tx := env.Begin()
			for i := 0; i < fetches; i++ {
				if _, err := rel.Fetch(tx, keys[i%len(keys)], []int{0}, nil); err != nil {
					panic(err)
				}
			}
			tx.Commit()
		})
		dScan := rig.Time(func() {
			tx := env.Begin()
			scan, err := rel.OpenScan(tx, core.ScanOptions{Fields: []int{0}})
			if err != nil {
				panic(err)
			}
			rig.Drain(scan)
			tx.Commit()
		})
		ios := env.Pool.Disk().Stats()
		msgs := int64(0)
		if fed != nil && c.sm == "remote" {
			msgs = fed.Messages.Load()
		}
		t.Add(c.name, rig.PerOp(dInsert, remoteRows), rig.PerOp(dFetch, fetches), dScan,
			ios.Reads+ios.Writes, msgs)
	}
	return []*rig.Table{t}
}

// --- INGEST: LSM tiered ingest ---

// ingestLSM measures the append storage method's LSM shape against the
// in-place heap on a write-heavy workload: bulk ingest, scattered
// updates and deletes (tombstones on the LSM side), then random
// point reads across the accumulated runs. A second table reports the
// LSM internals — flush and merge counts, the bounded memtable
// high-water, resident runs, and the bloom filter's skip ratio on the
// point-read phase.
func ingestLSM() []*rig.Table {
	rows := n(30000)
	churn := rows / 10
	points := n(5000)
	const memBytes = 64 * 1024

	t := rig.NewTable("INGEST — LSM tiered ingest vs in-place heap",
		"storage method", "insert/op", "update/op", "delete/op", "point read/op", "full scan")
	t.Note = fmt.Sprintf("%d inserts (64B pad), %d updates, %d deletes, %d random fetches; append runs a %dKiB memtable, fanout 4, inline compaction",
		rows, churn, churn, points, memBytes/1024)

	var lsm *core.Env
	cases := []struct {
		name  string
		sm    string
		attrs core.AttrList
	}{
		{"heap", "heap", nil},
		{"append (lsm)", "append", core.AttrList{
			"memtable": strconv.Itoa(memBytes), "fanout": "4", "compact": "sync"}},
	}
	for _, c := range cases {
		env := core.NewEnv(core.Config{PoolFrames: 1024})
		rel := rig.MustCreate(env, "t", c.sm, c.attrs)
		var keys []types.Key
		dInsert := rig.Time(func() { keys = rig.Load(env, rel, rows, 64) })
		dUpdate := rig.Time(func() {
			tx := env.Begin()
			// Stride-7 targets stay below 0.7·rows, so they never collide
			// with the deleted tail.
			for i := 0; i < churn; i++ {
				k := keys[(i*7)%rows]
				if _, err := rel.Update(tx, k, rig.EmpRecord(i, 64)); err != nil {
					panic(err)
				}
			}
			if err := tx.Commit(); err != nil {
				panic(err)
			}
		})
		dDelete := rig.Time(func() {
			tx := env.Begin()
			for i := 0; i < churn; i++ {
				if err := rel.Delete(tx, keys[rows-1-i]); err != nil {
					panic(err)
				}
			}
			if err := tx.Commit(); err != nil {
				panic(err)
			}
		})
		live := rows - churn
		dPoint := rig.Time(func() {
			tx := env.Begin()
			for i := 0; i < points; i++ {
				if _, err := rel.Fetch(tx, keys[(i*13)%live], []int{0}, nil); err != nil {
					panic(err)
				}
			}
			tx.Commit()
		})
		dScan := rig.Time(func() {
			tx := env.Begin()
			scan, err := rel.OpenScan(tx, core.ScanOptions{Fields: []int{0}})
			if err != nil {
				panic(err)
			}
			if got := rig.Drain(scan); got != live {
				panic(fmt.Sprintf("scan saw %d records, want %d", got, live))
			}
			tx.Commit()
		})
		t.Add(c.name, rig.PerOp(dInsert, rows), rig.PerOp(dUpdate, churn),
			rig.PerOp(dDelete, churn), rig.PerOp(dPoint, points), dScan)
		if c.sm == "append" {
			// A closing major compaction folds every run into one, retiring
			// the delete tombstones the churn phase wrote.
			if err := rel.Storage().(interface{ CompactNow() error }).CompactNow(); err != nil {
				panic(err)
			}
			lsm = env
		}
	}

	s := lsm.Obs.Snapshot().LSM
	t2 := rig.NewTable("INGEST — LSM internals for the run above",
		"metric", "value")
	t2.Note = "the memtable high-water stays at the configured bound; blooms cut most per-run probes on point reads"
	t2.Add("memtable flushes", s.Flushes)
	t2.Add("entries flushed", s.FlushedEntries)
	t2.Add("merge rounds", s.Compactions)
	t2.Add("runs merged away", s.CompactedRuns)
	t2.Add("tombstones dropped (closing major merge)", s.TombstonesDropped)
	t2.Add("memtable bytes (high-water)", s.MemtableBytesMax)
	t2.Add("resident runs (now / high-water)", fmt.Sprintf("%d / %d", s.Runs, s.RunsMax))
	t2.Add("bloom probes (point-read phase)", s.BloomProbes)
	t2.Add("bloom skip ratio", fmt.Sprintf("%.3f", s.BloomSkipRatio))
	t2.Add("bloom false positives", s.BloomFalsePositives)
	return []*rig.Table{t, t2}
}

// --- E8: veto and partial rollback ---

func e8VetoRollback() []*rig.Table {
	check.RegisterPredicate("e8pos", expr.Ge(expr.Field(0), expr.Const(types.Int(0))))
	env := core.NewEnv(core.Config{})
	rig.MustCreate(env, "emp", "memory", nil)
	rig.MustAttach(env, "emp", "btree", core.AttrList{"name": "i1", "on": "dno"})
	rig.MustAttach(env, "emp", "btree", core.AttrList{"name": "i2", "on": "salary"})
	rig.MustAttach(env, "emp", "stats", nil)
	// The check constraint has the highest attachment id among these, so a
	// veto fires after the storage method and both indexes applied.
	rig.MustAttach(env, "emp", "check", core.AttrList{"name": "pos", "predicate": "e8pos"})
	emp, _ := env.OpenRelationByName("emp")

	batch := n(2000)
	good := rig.Time(func() {
		rig.WithTxn(env, func(tx *txn.Txn) {
			for i := 0; i < batch; i++ {
				if _, err := emp.Insert(tx, rig.EmpRecord(i, 20)); err != nil {
					panic(err)
				}
			}
		})
	})
	vetoed := rig.Time(func() {
		rig.WithTxn(env, func(tx *txn.Txn) {
			for i := 0; i < batch; i++ {
				rec := rig.EmpRecord(i+batch, 20)
				rec[0] = types.Int(-1) // violates the constraint
				if _, err := emp.Insert(tx, rec); err == nil {
					panic("bad insert accepted")
				}
			}
		})
	})
	t := rig.NewTable("E8 — cost of a vetoed modification (storage + 3 attachments undone by the log)",
		"outcome", "per modification", "relative")
	t.Note = `"any attachment can abort the relation operation ... the common recovery log is used to drive the storage method and attachment implementations to undo the partial effects"`
	t.Add("accepted insert", rig.PerOp(good, batch), 1.0)
	t.Add("vetoed insert (undo via log)", rig.PerOp(vetoed, batch), float64(vetoed)/float64(good))

	// Partial rollback cost vs amount of work undone.
	t2 := rig.NewTable("E8b — partial rollback to a savepoint",
		"records undone", "rollback time", "per record")
	for _, m := range []int{10, 100, 1000, 10000} {
		m := n(m)
		tx := env.Begin()
		if _, err := tx.Savepoint("sp"); err != nil {
			panic(err)
		}
		for i := 0; i < m; i++ {
			if _, err := emp.Insert(tx, rig.EmpRecord(1_000_000+i, 20)); err != nil {
				panic(err)
			}
		}
		d := rig.Time(func() {
			if err := tx.RollbackTo("sp"); err != nil {
				panic(err)
			}
		})
		tx.Commit()
		t2.Add(m, d, rig.PerOp(d, m))
	}
	return []*rig.Table{t, t2}
}

// --- E9: deferred constraint checking ---

func e9Deferred() []*rig.Table {
	parents, children := 200, n(5000)
	t := rig.NewTable("E9 — immediate vs deferred referential checking (batch insert)",
		"timing", "children", "checks run", "total", "per child")
	t.Note = `"certain integrity constraints cannot be evaluated when a single modification occurs but must be evaluated after all of the modifications have been made"`

	for _, timing := range []string{"immediate", "deferred"} {
		env := core.NewEnv(core.Config{})
		dept := rig.MustCreate(env, "dept", "memory", nil)
		rig.WithTxn(env, func(tx *txn.Txn) {
			for i := 0; i < parents; i++ {
				dept.Insert(tx, rig.EmpRecord(i, 4))
			}
		})
		rig.MustCreate(env, "emp", "memory", nil)
		rig.MustAttach(env, "emp", "refint", core.AttrList{
			"name": "fk", "role": "child", "on": "dno",
			"peer": "dept", "peerkey": "dno", "timing": timing,
		})
		emp, _ := env.OpenRelationByName("emp")
		scansBefore := env.MetricsSnapshot().Totals.Scans
		d := rig.Time(func() {
			rig.WithTxn(env, func(tx *txn.Txn) {
				for i := 0; i < children; i++ {
					if _, err := emp.Insert(tx, rig.EmpRecord(i, 4)); err != nil {
						panic(err)
					}
				}
			})
		})
		checks := env.MetricsSnapshot().Totals.Scans - scansBefore
		t.Add(timing, children, checks, d, rig.PerOp(d, children))
	}
	return []*rig.Table{t}
}

// --- E10: cascading deletes ---

func e10Cascade() []*rig.Table {
	const fanout = 4
	t := rig.NewTable("E10 — cascading delete down a referential chain (fanout 4)",
		"depth", "records deleted", "time", "per record")
	t.Note = `"attachments may access or modify other data in the database ... in this manner, modifications may cascade"`

	for depth := 1; depth <= 6; depth++ {
		env := core.NewEnv(core.Config{})
		// Relations r0 (root) .. r<depth>, each cascading into the next.
		for level := 0; level <= depth; level++ {
			rig.MustCreate(env, fmt.Sprintf("r%d", level), "memory", nil)
		}
		for level := 0; level < depth; level++ {
			rig.MustAttach(env, fmt.Sprintf("r%d", level), "refint", core.AttrList{
				"name": "cascade", "role": "parent", "on": "eno",
				"peer": fmt.Sprintf("r%d", level+1), "peerkey": "dno", "action": "cascade",
			})
		}
		// Populate: level L has fanout^L records; record i at level L has
		// parent i/fanout at level L-1 (via dno).
		var rootKey types.Key
		total := 0
		rig.WithTxn(env, func(tx *txn.Txn) {
			count := 1
			for level := 0; level <= depth; level++ {
				rel, _ := env.OpenRelationByName(fmt.Sprintf("r%d", level))
				for i := 0; i < count; i++ {
					rec := types.Record{
						types.Int(int64(i)), types.Int(int64(i / fanout)),
						types.Float(0), types.Str(""),
					}
					k, err := rel.Insert(tx, rec)
					if err != nil {
						panic(err)
					}
					if level == 0 {
						rootKey = k
					}
				}
				total += count
				count *= fanout
			}
		})
		root, _ := env.OpenRelationByName("r0")
		var d time.Duration
		rig.WithTxn(env, func(tx *txn.Txn) {
			d = rig.Time(func() {
				if err := root.Delete(tx, rootKey); err != nil {
					panic(err)
				}
			})
		})
		t.Add(depth, total, d, rig.PerOp(d, total))
	}
	return []*rig.Table{t}
}

// --- E11: descriptor overhead ---

func e11Descriptor() []*rig.Table {
	t := rig.NewTable("E11 — composite relation descriptor size and decode cost",
		"attachment types present", "encoded bytes", "decode ns/op")
	t.Note = `"this method ... effectively limits the number of different attachment types to a few dozen without beginning to incur significant storage overhead" (absent types cost two bytes each here)`

	base := &core.RelDesc{RelID: 7, Name: "emp", Schema: rig.EmpSchema(), SM: core.SMHeap,
		SMDesc: []byte{1, 2, 3, 4}}
	for present := 0; present <= 10; present += 2 {
		rd := base.Clone()
		for i := 0; i < present; i++ {
			rd.AttDesc[core.AttID(i+1)] = []byte(strings.Repeat("d", 24))
		}
		enc := rd.AppendEncode(nil)
		const iters = 200000
		d := rig.Time(func() {
			for i := 0; i < iters; i++ {
				if _, _, err := core.DecodeRelDesc(enc); err != nil {
					panic(err)
				}
			}
		})
		t.Add(present, len(enc), float64(d.Nanoseconds())/iters)
	}
	return []*rig.Table{t}
}

// --- E12: locking ---

func e12Locking() []*rig.Table {
	perTxn := 4
	txns := n(2000)
	t := rig.NewTable("E12 — lock manager throughput (X locks, 4 per txn)",
		"goroutines", "transactions", "total", "txn/s")
	t.Note = "all storage method and attachment implementations share the locking-based concurrency controller"

	for _, g := range []int{1, 2, 4, 8} {
		mgr := lock.NewManager()
		nextID := int64(0)
		d := rig.Time(func() {
			done := make(chan struct{}, g)
			for w := 0; w < g; w++ {
				go func(w int) {
					defer func() { done <- struct{}{} }()
					for i := 0; i < txns/g; i++ {
						id := wal.TxnID(w*1_000_000 + i + 1)
						for k := 0; k < perTxn; k++ {
							res := lock.KeyResource(1, []byte{byte(w), byte(i), byte(k)})
							if err := mgr.Acquire(id, res, lock.ModeX); err != nil {
								panic(err)
							}
						}
						mgr.ReleaseAll(id)
					}
				}(w)
			}
			for w := 0; w < g; w++ {
				<-done
			}
		})
		_ = nextID
		total := (txns / g) * g
		t.Add(g, total, d, fmt.Sprintf("%.0f", float64(total)/d.Seconds()))
	}

	// Deadlock resolution: opposing lock orders, victims counted.
	t2 := rig.NewTable("E12b — system-wide deadlock detection", "pairs run", "deadlock victims", "completed txns")
	pairs := 200
	victims, completed := 0, 0
	mgr := lock.NewManager()
	for i := 0; i < pairs; i++ {
		a, b := lock.RelResource(uint32(2*i)), lock.RelResource(uint32(2*i+1))
		t1, t2id := wal.TxnID(10_000+2*i), wal.TxnID(10_000+2*i+1)
		mgr.Acquire(t1, a, lock.ModeX)
		mgr.Acquire(t2id, b, lock.ModeX)
		errCh := make(chan error, 1)
		go func() { errCh <- mgr.Acquire(t1, b, lock.ModeX) }()
		time.Sleep(50 * time.Microsecond)
		err2 := mgr.Acquire(t2id, a, lock.ModeX)
		if err2 == lock.ErrDeadlock {
			victims++
			mgr.ReleaseAll(t2id)
		}
		if err := <-errCh; err == nil {
			completed++
		}
		mgr.ReleaseAll(t1)
		mgr.ReleaseAll(t2id)
	}
	t2.Add(pairs, victims, completed)
	return []*rig.Table{t, t2}
}

// --- MT: concurrent commit throughput ---

// mtGroupCommit measures the commit path under concurrency: worker
// sessions commit single-insert transactions against a file-backed log,
// sweeping worker count with group-commit batching off and on.
// Commits-per-fsync is the tell: above 1 means concurrent committers
// shared a single log force instead of each paying their own.
func mtGroupCommit() []*rig.Table {
	perWorker := n(300)
	t := rig.NewTable("MT — single-insert commit throughput (file-backed WAL, fsync per commit batch)",
		"workers", "batch window", "commits", "total", "commits/s", "fsyncs", "commits/fsync")
	t.Note = "the group-commit leader syncs once for every committer that arrived while the force was in flight; the sharded lock and buffer tables keep the rest of the path parallel"

	for _, window := range []time.Duration{0, 200 * time.Microsecond} {
		wlabel := "off"
		if window > 0 {
			wlabel = window.String()
		}
		for _, workers := range []int{1, 2, 4, 8} {
			dir, err := os.MkdirTemp("", "dmxbench-mt")
			if err != nil {
				panic(err)
			}
			db, err := dmx.Open(dmx.Config{
				LogPath:           filepath.Join(dir, "wal.log"),
				CommitBatchWindow: window,
				CheckpointEvery:   -1,
			})
			if err != nil {
				panic(err)
			}
			if _, err := db.Exec("CREATE TABLE t (id INT NOT NULL, v STRING) USING heap"); err != nil {
				panic(err)
			}
			commitsBefore := db.Env.Obs.WAL.GroupCommits.Load()
			batchesBefore := db.Env.Obs.WAL.GroupBatches.Load()
			var wg sync.WaitGroup
			d := rig.Time(func() {
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						s := db.NewSession()
						for i := 0; i < perWorker; i++ {
							if _, err := s.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'r')", w*1_000_000+i)); err != nil {
								panic(err)
							}
						}
					}(w)
				}
				wg.Wait()
			})
			commits := db.Env.Obs.WAL.GroupCommits.Load() - commitsBefore
			batches := db.Env.Obs.WAL.GroupBatches.Load() - batchesBefore
			cpf := float64(commits)
			if batches > 0 {
				cpf = float64(commits) / float64(batches)
			}
			db.Close()
			os.RemoveAll(dir)
			t.Add(workers, wlabel, commits, d,
				fmt.Sprintf("%.0f", float64(commits)/d.Seconds()),
				batches, fmt.Sprintf("%.2f", cpf))
		}
	}
	return []*rig.Table{t}
}

// --- SELFOBS: resource-accounting overhead ---

// selfObs measures what the per-transaction resource counters behind
// sys.stat_activity cost. Two workloads bracket the answer: the MT
// commit workload (file-backed WAL, 8 workers — the realistic case,
// where the fsync path dominates) and a tight single-session insert
// loop over an in-memory WAL (the adversarial case, where the atomic
// increments are the largest possible fraction of the work). Each is
// run with accounting enabled (the default) and disabled via
// txn.SetAccounting.
func selfObs() []*rig.Table {
	t := rig.NewTable("SELFOBS — per-transaction resource accounting overhead",
		"workload", "accounting", "commits", "total", "commits/s", "overhead")
	t.Note = "accounting is a handful of uncontended atomic adds per row touched; the observability tax stays within noise of the commit path"

	mtRun := func() (time.Duration, int64) {
		perWorker, workers := n(300), 8
		dir, err := os.MkdirTemp("", "dmxbench-selfobs")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		db, err := dmx.Open(dmx.Config{
			LogPath:           filepath.Join(dir, "wal.log"),
			CommitBatchWindow: 200 * time.Microsecond,
			CheckpointEvery:   -1,
		})
		if err != nil {
			panic(err)
		}
		defer db.Close()
		if _, err := db.Exec("CREATE TABLE t (id INT NOT NULL, v STRING) USING heap"); err != nil {
			panic(err)
		}
		var wg sync.WaitGroup
		d := rig.Time(func() {
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					s := db.NewSession()
					for i := 0; i < perWorker; i++ {
						if _, err := s.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'r')", w*1_000_000+i)); err != nil {
							panic(err)
						}
					}
				}(w)
			}
			wg.Wait()
		})
		return d, int64(perWorker * workers)
	}

	tightRun := func() (time.Duration, int64) {
		commits := n(20_000)
		db, err := dmx.Open(dmx.Config{})
		if err != nil {
			panic(err)
		}
		defer db.Close()
		if _, err := db.Exec("CREATE TABLE t (id INT NOT NULL, v STRING) USING heap"); err != nil {
			panic(err)
		}
		rel, err := db.Relation("t")
		if err != nil {
			panic(err)
		}
		d := rig.Time(func() {
			for i := 0; i < commits; i++ {
				tx := db.Begin()
				if _, err := rel.Insert(tx, dmx.Record{dmx.Int(int64(i)), dmx.Str("r")}); err != nil {
					panic(err)
				}
				if err := tx.Commit(); err != nil {
					panic(err)
				}
			}
		})
		return d, int64(commits)
	}

	workloads := []struct {
		label string
		run   func() (time.Duration, int64)
	}{
		{"MT commit (8 workers, file WAL)", mtRun},
		{"tight insert loop (mem WAL)", tightRun},
	}
	for _, wl := range workloads {
		var dOn, dOff time.Duration
		var commits int64
		// Interleave on/off runs and keep the best of three of each, so
		// cache warm-up and GC noise fall on both sides equally.
		for i := 0; i < 3; i++ {
			txn.SetAccounting(true)
			if d, c := wl.run(); dOn == 0 || d < dOn {
				dOn, commits = d, c
			}
			txn.SetAccounting(false)
			if d, _ := wl.run(); dOff == 0 || d < dOff {
				dOff = d
			}
		}
		txn.SetAccounting(true)
		overhead := (float64(dOn) - float64(dOff)) / float64(dOff) * 100
		t.Add(wl.label, "off", commits, dOff,
			fmt.Sprintf("%.0f", float64(commits)/dOff.Seconds()), "—")
		t.Add(wl.label, "on", commits, dOn,
			fmt.Sprintf("%.0f", float64(commits)/dOn.Seconds()),
			fmt.Sprintf("%+.1f%%", overhead))
	}
	return []*rig.Table{t}
}

// --- MVCC: snapshot-read throughput ---

// mvccReads measures the read-only transaction path: worker sessions
// fetch random rows of a heap relation in short transactions, once with
// ordinary (2PL, lock-acquiring) transactions and once with snapshot
// transactions, sweeping the worker count. The lock-requests column is
// the tell: snapshot mode performs zero lock-manager calls, so readers
// scale without touching the shared lock table.
func mvccReads() []*rig.Table {
	rows := n(2000)
	perWorker := n(200) // transactions per worker
	const fetchesPerTxn = 20
	t := rig.NewTable("MVCC — read-only throughput: locked (2PL) vs snapshot (lock-free) transactions",
		"workers", "mode", "reads", "total", "reads/s", "lock requests")
	t.Note = "snapshot transactions pin a commit-stamp high-water instead of acquiring locks; with no concurrent writers every read is served from current page state"

	db, err := dmx.Open(dmx.Config{})
	if err != nil {
		panic(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (id INT NOT NULL, v STRING) USING heap"); err != nil {
		panic(err)
	}
	rel, err := db.Relation("t")
	if err != nil {
		panic(err)
	}
	seed := db.Begin()
	keys := make([]dmx.Key, rows)
	for i := range keys {
		if keys[i], err = rel.Insert(seed, dmx.Record{dmx.Int(int64(i)), dmx.Str("payload")}); err != nil {
			panic(err)
		}
	}
	if err := seed.Commit(); err != nil {
		panic(err)
	}

	for _, workers := range []int{1, 4, 8} {
		for _, mode := range []string{"locked", "snapshot"} {
			lockBefore := db.Env.Obs.Lock.Requests.Load()
			var wg sync.WaitGroup
			d := rig.Time(func() {
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						next := w * 131
						for i := 0; i < perWorker; i++ {
							var tx *dmx.Txn
							if mode == "snapshot" {
								tx = db.BeginReadOnly()
							} else {
								tx = db.Begin()
							}
							for j := 0; j < fetchesPerTxn; j++ {
								next = (next*1103515245 + 12345) & 0x7fffffff
								if _, err := rel.Fetch(tx, keys[next%rows], nil, nil); err != nil {
									panic(err)
								}
							}
							if err := tx.Commit(); err != nil {
								panic(err)
							}
						}
					}(w)
				}
				wg.Wait()
			})
			reads := workers * perWorker * fetchesPerTxn
			locks := db.Env.Obs.Lock.Requests.Load() - lockBefore
			t.Add(workers, mode, reads, d,
				fmt.Sprintf("%.0f", float64(reads)/d.Seconds()), locks)
		}
	}
	return []*rig.Table{t}
}

// --- TRACE: span-tracing overhead ---

// traceOverhead reruns the MT insert workload with the transaction tracer
// off, at 1-in-100 sampling, and fully on, so the cost of the span
// machinery is measured against the engine's own commit path rather than a
// microbenchmark. The sampled runs also report how many traces actually
// carried detailed span trees.
func traceOverhead() []*rig.Table {
	perWorker := n(300)
	const workers = 4
	t := rig.NewTable("TRACE — single-insert commit throughput vs trace sampling (file-backed WAL, 4 workers)",
		"sampling", "commits", "total", "commits/s", "sampled txns", "overhead")
	t.Note = "sampling is a per-transaction counter decision; unsampled transactions carry a nil trace and every trace call is a nil-receiver no-op"

	var baseline float64
	for _, cfg := range []struct {
		label  string
		sample float64
	}{{"off", 0}, {"1%", 0.01}, {"100%", 1}} {
		dir, err := os.MkdirTemp("", "dmxbench-trace")
		if err != nil {
			panic(err)
		}
		db, err := dmx.Open(dmx.Config{
			LogPath:         filepath.Join(dir, "wal.log"),
			CheckpointEvery: -1,
			TraceSample:     cfg.sample,
			TraceRing:       64,
		})
		if err != nil {
			panic(err)
		}
		if _, err := db.Exec("CREATE TABLE t (id INT NOT NULL, v STRING) USING heap"); err != nil {
			panic(err)
		}
		var wg sync.WaitGroup
		d := rig.Time(func() {
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					s := db.NewSession()
					for i := 0; i < perWorker; i++ {
						if _, err := s.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'r')", w*1_000_000+i)); err != nil {
							panic(err)
						}
					}
				}(w)
			}
			wg.Wait()
		})
		sampled := db.Env.Tracer.Stats().Sampled
		db.Close()
		os.RemoveAll(dir)
		commits := workers * perWorker
		rate := float64(commits) / d.Seconds()
		overhead := "—"
		if baseline == 0 {
			baseline = rate
		} else {
			overhead = fmt.Sprintf("%+.1f%%", (baseline/rate-1)*100)
		}
		t.Add(cfg.label, commits, d, fmt.Sprintf("%.0f", rate), sampled, overhead)
	}
	return []*rig.Table{t}
}

// --- PAR: partitioned parallel scan and hash join vs serial ---

func parExec() []*rig.Table {
	rows := n(150_000)
	env := core.NewEnv(core.Config{})
	emp := rig.MustCreate(env, "emp", "memory", nil)
	rig.Load(env, emp, rows, 20)
	p := plan.New(env)

	t := rig.NewTable(fmt.Sprintf("PAR — partitioned parallel scan, %d records (GOMAXPROCS=%d)",
		rows, runtime.GOMAXPROCS(0)),
		"workers", "rows", "time", "rows/ms", "speedup")
	t.Note = "key-range partitions, one worker goroutine per partition, merged by an exchange; " +
		"the filter and record decode run in the workers"

	// A pass-everything filter keeps the row count fixed while giving the
	// workers per-record predicate work to parallelise.
	filter := expr.Ge(expr.Field(2), expr.Const(types.Float(0)))
	var serial time.Duration
	for _, workers := range []int{1, 4, 8} {
		b, err := p.Plan(plan.Query{Table: "emp", Filter: filter, Fields: []int{0, 2}, ForceDegree: workers})
		if err != nil {
			panic(err)
		}
		count := 0
		d := best3(func() {
			count = 0
			tx := env.Begin()
			rs, err := b.Execute(tx)
			if err != nil {
				panic(err)
			}
			for {
				_, ok, err := rs.Next()
				if err != nil {
					panic(err)
				}
				if !ok {
					break
				}
				count++
			}
			rs.Close()
			tx.Commit()
		})
		if workers == 1 {
			serial = d
		}
		t.Add(workers, count, d,
			fmt.Sprintf("%.0f", float64(count)/float64(d.Milliseconds()+1)),
			fmt.Sprintf("%.2fx", float64(serial)/float64(d)))
	}

	// Join companion: the same emp against a 10k-row inner, naive nested
	// loop vs single hash build at the planner's automatic degree.
	inner := n(10_000)
	dept := rig.MustCreate(env, "dept", "memory", nil)
	rig.WithTxn(env, func(tx *txn.Txn) {
		for i := 0; i < inner; i++ {
			if _, err := dept.Insert(tx, rig.EmpRecord(i, 4)); err != nil {
				panic(err)
			}
		}
	})
	outerN := n(500)
	jt := rig.NewTable(fmt.Sprintf("PAR — equi-join on dno, %d ⋈ %d", outerN, inner),
		"strategy", "rows", "time", "per row")
	for _, s := range []struct{ name, force string }{
		{"nested loop (rescan inner)", "nl"},
		{"hash join (build inner once)", "hash"},
	} {
		b, err := p.Plan(plan.Query{
			Table:     "emp",
			Filter:    expr.Lt(expr.Field(0), expr.Const(types.Int(int64(outerN)))),
			Fields:    []int{0},
			Join:      &plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 1, Fields: []int{0}},
			ForceJoin: s.force,
		})
		if err != nil {
			panic(err)
		}
		count := 0
		d := rig.Time(func() {
			tx := env.Begin()
			rs, err := b.Execute(tx)
			if err != nil {
				panic(err)
			}
			for {
				_, ok, err := rs.Next()
				if err != nil {
					panic(err)
				}
				if !ok {
					break
				}
				count++
			}
			rs.Close()
			tx.Commit()
		})
		jt.Add(s.name, count, d, rig.PerOp(d, count))
	}
	return []*rig.Table{t, jt}
}

// --- PART: hash-sharded relations over foreign shard servers ---

// partRouting measures the partitioned storage method's routing claims on
// a relation hash-sharded across four foreign servers: a point access by
// key talks to exactly one shard, a full scan scatter-gathers per-shard
// cursors, and every multi-shard commit pays a prepare round plus a
// decision delivery per touched shard (two-phase commit). The per-server
// message counters make the routing observable; a second table reports
// the coordinator's own counters for the whole run.
func partRouting() []*rig.Table {
	rows := n(8000)
	fetches := n(2000)
	txns := n(500)
	const shards = 4

	env := core.NewEnv(core.Config{})
	srvs := make([]*remote.Server, shards)
	for i := range srvs {
		srvs[i] = remote.NewServer(20 * time.Microsecond)
		partsm.AttachServer(env, fmt.Sprintf("s%d", i), srvs[i])
	}
	rel := rig.MustCreate(env, "emp", "part", core.AttrList{
		"key": "eno", "servers": "s0,s1,s2,s3", "batch": "100"})

	msgs := func() []int64 {
		out := make([]int64, shards)
		for i, srv := range srvs {
			out[i] = srv.Messages.Load()
		}
		return out
	}
	// touched reports how many shards exchanged messages since before, and
	// the total message count across them.
	touched := func(before []int64) (int, int64) {
		moved, total := 0, int64(0)
		for i, srv := range srvs {
			if d := srv.Messages.Load() - before[i]; d > 0 {
				moved++
				total += d
			}
		}
		return moved, total
	}

	t := rig.NewTable(fmt.Sprintf("PART — relation hash-sharded across %d foreign servers (20µs RTT)", shards),
		"operation", "ops", "per op", "shards touched", "messages")
	t.Note = "a point access by key routes to the single owning shard; scans scatter-gather " +
		"per-shard cursors; multi-shard commits run prepare and decision rounds (2PC)"

	before := msgs()
	var keys []types.Key
	dLoad := rig.Time(func() { keys = rig.Load(env, rel, rows, 40) })
	loadShards, loadMsgs := touched(before)
	t.Add("bulk load (one txn, one 2PC)", rows, rig.PerOp(dLoad, rows), loadShards, loadMsgs)

	before = msgs()
	dFetch := rig.Time(func() {
		tx := env.Begin()
		for i := 0; i < fetches; i++ {
			if _, err := rel.Fetch(tx, keys[(i*13)%len(keys)], []int{0}, nil); err != nil {
				panic(err)
			}
		}
		tx.Commit()
	})
	fetchShards, fetchMsgs := touched(before)
	t.Add("point reads by key (routed)", fetches, rig.PerOp(dFetch, fetches), fetchShards, fetchMsgs)

	before = msgs()
	count := 0
	dScan := rig.Time(func() {
		tx := env.Begin()
		scan, err := rel.OpenScan(tx, core.ScanOptions{Fields: []int{0}})
		if err != nil {
			panic(err)
		}
		count = rig.Drain(scan)
		tx.Commit()
	})
	scanShards, scanMsgs := touched(before)
	t.Add("full scan (scatter-gather)", count, rig.PerOp(dScan, count), scanShards, scanMsgs)

	before = msgs()
	d2pc := rig.Time(func() {
		for i := 0; i < txns; i++ {
			tx := env.Begin()
			for j := 0; j < 3; j++ {
				if _, err := rel.Insert(tx, rig.EmpRecord(1_000_000+i*3+j, 40)); err != nil {
					panic(err)
				}
			}
			if err := tx.Commit(); err != nil {
				panic(err)
			}
		}
	})
	txnShards, txnMsgs := touched(before)
	t.Add("3-row insert txns (2PC each)", txns, rig.PerOp(d2pc, txns), txnShards, txnMsgs)

	s := env.Obs.Snapshot().Part
	ct := rig.NewTable("PART — coordinator counters for the run above", "counter", "value")
	ct.Note = "from env.Obs (also visible per relation through sys.stat_shards)"
	ct.Add("routed point reads", s.RoutedReads)
	ct.Add("routed single-shard scans", s.RoutedScans)
	ct.Add("scatter-gather scans", s.ScatterScans)
	ct.Add("shard prepares", s.Prepares)
	ct.Add("shard commit deliveries", s.Commits)
	ct.Add("shard abort deliveries", s.Aborts)
	ct.Add("commit acks lost", s.AckLost)
	ct.Add("in-doubt resolved at recovery", s.Resolved)
	return []*rig.Table{t, ct}
}

// --- A1: ablation — skip index maintenance when no indexed field changed ---

func a1SkipUnchanged() []*rig.Table {
	rows := n(5000)
	env := core.NewEnv(core.Config{})
	emp := rig.MustCreate(env, "emp", "memory", nil)
	keys := rig.Load(env, emp, rows, 20)
	rig.MustAttach(env, "emp", "btree", core.AttrList{"name": "i1", "on": "dno"})
	rig.MustAttach(env, "emp", "btree", core.AttrList{"name": "i2", "on": "eno"})
	emp, _ = env.OpenRelationByName("emp")

	t := rig.NewTable("A1 — update cost with and without indexed-field changes (2 B-tree instances)",
		"update touches", "per update", "attachment log records/update")
	t.Note = `"the B-tree update operations should be able to detect when no indexed fields for a given index are modified"`

	measure := func(label string, mutate func(i int, rec types.Record)) {
		logBefore := env.Log.Len()
		d := rig.Time(func() {
			rig.WithTxn(env, func(tx *txn.Txn) {
				for i, k := range keys {
					rec := rig.EmpRecord(i, 20)
					mutate(i, rec)
					nk, err := emp.Update(tx, k, rec)
					if err != nil {
						panic(err)
					}
					keys[i] = nk
				}
			})
		})
		attRecords := 0
		for _, lr := range env.Log.Records()[logBefore:] {
			if lr.Kind == wal.RecUpdate && lr.Owner.Class == wal.OwnerAttachment {
				attRecords++
			}
		}
		t.Add(label, rig.PerOp(d, rows), float64(attRecords)/float64(rows))
	}
	measure("only the non-indexed pad (skip fires)", func(i int, rec types.Record) {
		rec[3] = types.Str("changed-pad")
	})
	measure("one indexed field (1 of 2 maintained)", func(i int, rec types.Record) {
		rec[1] = types.Int(int64((i + 1) % 10))
		rec[3] = types.Str("changed-pad")
	})
	measure("both indexed fields (2 of 2 maintained)", func(i int, rec types.Record) {
		rec[0] = types.Int(int64(i + 1_000_000))
		rec[1] = types.Int(int64((i + 3) % 10))
		rec[3] = types.Str("changed-pad")
	})
	return []*rig.Table{t}
}

// --- A2: ablation — remote scan batch size ---

func a2RemoteBatch() []*rig.Table {
	rows := n(2000)
	t := rig.NewTable("A2 — foreign-database scan cost vs batch size (20µs per message)",
		"batch size", "messages", "scan time", "per record")
	t.Note = "tuple-at-a-time access to remote data amplifies round trips; the remote storage method batches key-sequential accesses"

	for _, batch := range []int{1, 10, 100, 1000} {
		env := core.NewEnv(core.Config{})
		fed := remote.NewServer(20 * time.Microsecond)
		partsm.AttachServer(env, "fed", fed)
		rel := rig.MustCreate(env, "t", "remote",
			core.AttrList{"server": "fed", "batch": fmt.Sprint(batch)})
		rig.Load(env, rel, rows, 20)
		before := fed.Messages.Load()
		d := rig.Time(func() {
			tx := env.Begin()
			scan, err := rel.OpenScan(tx, core.ScanOptions{Fields: []int{0}})
			if err != nil {
				panic(err)
			}
			if got := rig.Drain(scan); got != rows {
				panic(fmt.Sprintf("scanned %d", got))
			}
			tx.Commit()
		})
		t.Add(batch, fed.Messages.Load()-before, d, rig.PerOp(d, rows))
	}
	return []*rig.Table{t}
}

// --- A3: ablation — ordered access path vs scan + sort ---

func a3OrderedAccess() []*rig.Table {
	rows := n(30000)
	env := core.NewEnv(core.Config{PoolFrames: 2048})
	emp := rig.MustCreate(env, "emp", "heap", nil)
	rig.Load(env, emp, rows, 40)
	rig.MustAttach(env, "emp", "btree", core.AttrList{"name": "bysalary", "on": "salary"})
	p := plan.New(env)

	t := rig.NewTable("A3 — ORDER BY salary: streaming ordered access vs scan + sort",
		"query", "planner choice", "time")
	t.Note = `"the query planner will be able to determine the cost of ... scan[ning] a relation in a random order or with the tuples ordered by particular record fields" — the ordered pass fetches record-at-a-time, so it wins only when the caller stops early (top-k)`

	measure := func(label string, q plan.Query, pull int) {
		b, err := p.Plan(q)
		if err != nil {
			panic(err)
		}
		needSort := len(q.OrderBy) > 0 && !b.Ordered()
		d := best3(func() {
			tx := env.Begin()
			rs, err := b.Execute(tx)
			if err != nil {
				panic(err)
			}
			var all []types.Record
			for pull < 0 || len(all) < pull || needSort {
				rec, ok, err := rs.Next()
				if err != nil {
					panic(err)
				}
				if !ok {
					break
				}
				all = append(all, rec)
			}
			rs.Close()
			tx.Commit()
			if needSort {
				sort.Slice(all, func(i, j int) bool {
					return all[i][0].AsFloat() < all[j][0].AsFloat()
				})
			}
		})
		plan := b.Explain()
		if needSort {
			plan += " + sort"
		}
		t.Add(label, plan, d)
	}
	measure("top-10 (ORDER BY ... LIMIT 10)",
		plan.Query{Table: "emp", Fields: []int{2}, OrderBy: []int{2}, Limit: 10}, 10)
	measure("full table (ORDER BY, no limit)",
		plan.Query{Table: "emp", Fields: []int{2}, OrderBy: []int{2}}, -1)
	return []*rig.Table{t}
}

// --- CRASH: restart replay cost vs checkpoint interval ---

// crashRecovery measures what fuzzy checkpointing buys at restart: a
// small relation is churned by a long update history, the process
// "crashes" (the database is abandoned without Close), and the database
// is reopened with recovery. Without checkpoints redo replays the whole
// history; with them it replays the last snapshot plus the tail since,
// so restart time is bounded by the checkpoint interval.
func crashRecovery() []*rig.Table {
	rows, updates := n(50), n(2000)
	table := rig.NewTable(
		fmt.Sprintf("restart replay: %d-row relation, %d-update history", rows, updates),
		"checkpoint every", "checkpoints", "records at crash", "redo records", "restart time")
	for _, every := range []int{-1, 1024, 256, 64} {
		dir, err := os.MkdirTemp("", "dmxbench-crash")
		if err != nil {
			panic(err)
		}
		cfg := dmx.Config{LogPath: filepath.Join(dir, "wal.log"), CheckpointEvery: every}
		db, err := dmx.Open(cfg)
		if err != nil {
			panic(err)
		}
		if _, err := db.Exec("CREATE TABLE t (id INT NOT NULL, v STRING) USING heap"); err != nil {
			panic(err)
		}
		for i := 0; i < rows; i++ {
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'v0')", i)); err != nil {
				panic(err)
			}
		}
		for i := 0; i < updates; i++ {
			if _, err := db.Exec(fmt.Sprintf("UPDATE t SET v = 'v%d' WHERE id = %d", i, i%rows)); err != nil {
				panic(err)
			}
		}
		ckpts := db.Env.Obs.WAL.Checkpoints.Load()
		atCrash := db.Env.Log.Len()

		// Crash: no Close. Reopen from the surviving files with recovery.
		cfg.Recover, cfg.CheckpointEvery = true, -1
		var db2 *dmx.DB
		d := rig.Time(func() {
			if db2, err = dmx.Open(cfg); err != nil {
				panic(err)
			}
		})
		redo := db2.Env.Obs.WAL.RedoRecords.Load()
		db2.Close()
		os.RemoveAll(dir)

		label := "none"
		if every > 0 {
			label = strconv.Itoa(every)
		}
		table.Add(label, ckpts, atCrash, redo, d)
	}
	return []*rig.Table{table}
}
