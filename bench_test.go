// Benchmarks mirroring the experiment suite (see DESIGN.md for the
// claim → experiment mapping and EXPERIMENTS.md for the measured tables).
// cmd/dmxbench regenerates the full report; these testing.B targets give
// per-experiment numbers under the standard Go tooling.
package dmx

import (
	"fmt"
	"testing"
	"time"

	"dmx/internal/att/check"
	"dmx/internal/core"
	"dmx/internal/ddl"
	"dmx/internal/expr"
	"dmx/internal/lock"
	"dmx/internal/plan"
	"dmx/internal/remote"
	"dmx/internal/rig"
	"dmx/internal/sm/partsm"
	"dmx/internal/txn"
	"dmx/internal/types"
	"dmx/internal/wal"
)

// --- E1: extension activation dispatch ---

func benchRegistry() *core.Registry {
	reg := core.NewRegistry()
	validate := func(*types.Schema, core.AttrList) error { return nil }
	for id := core.SMID(1); id <= 6; id++ {
		reg.RegisterStorageMethod(&core.StorageOps{ID: id, Name: fmt.Sprintf("sm%d", id), ValidateAttrs: validate})
	}
	return reg
}

func BenchmarkE1DispatchVector(b *testing.B) {
	reg := benchRegistry()
	for i := 0; b.Loop(); i++ {
		reg.StorageOps(core.SMID(1+i%6)).ValidateAttrs(nil, nil)
	}
}

func BenchmarkE1DispatchMap(b *testing.B) {
	reg := benchRegistry()
	byMap := map[core.SMID]*core.StorageOps{}
	for id := core.SMID(1); id <= 6; id++ {
		byMap[id] = reg.StorageOps(id)
	}
	b.ResetTimer()
	for i := 0; b.Loop(); i++ {
		byMap[core.SMID(1+i%6)].ValidateAttrs(nil, nil)
	}
}

func BenchmarkE1DispatchByName(b *testing.B) {
	reg := benchRegistry()
	byName := map[string]*core.StorageOps{}
	names := make([]string, 0, 6)
	for id := core.SMID(1); id <= 6; id++ {
		ops := reg.StorageOps(id)
		byName[ops.Name] = ops
		names = append(names, ops.Name)
	}
	b.ResetTimer()
	for i := 0; b.Loop(); i++ {
		byName[names[i%6]].ValidateAttrs(nil, nil)
	}
}

// --- E2: join strategies ---

func joinEnv(b *testing.B, outerN int, joinIndex string, prep func(env *core.Env)) (*core.Env, *plan.Bound) {
	b.Helper()
	env := core.NewEnv(core.Config{})
	emp := rig.MustCreate(env, "emp", "heap", nil)
	rig.Load(env, emp, outerN, 20)
	dept := rig.MustCreate(env, "dept", "memory", nil)
	rig.WithTxn(env, func(tx *txn.Txn) {
		for i := 0; i < 10; i++ {
			dept.Insert(tx, types.Record{types.Int(int64(i)), types.Int(int64(i)), types.Float(0), types.Str("d")})
		}
	})
	if prep != nil {
		prep(env)
	}
	spec := plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0, Fields: []int{1}, JoinIndex: joinIndex}
	bound, err := plan.New(env).Plan(plan.Query{Table: "emp", Fields: []int{0}, Join: &spec})
	if err != nil {
		b.Fatal(err)
	}
	return env, bound
}

func runJoin(b *testing.B, env *core.Env, bound *plan.Bound) {
	b.Helper()
	for b.Loop() {
		tx := env.Begin()
		rows, err := plan.Collect(bound.Execute(tx))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("empty join")
		}
		tx.Commit()
	}
}

func BenchmarkE2JoinNestedLoop(b *testing.B) {
	env, bound := joinEnv(b, 1000, "", nil)
	b.ResetTimer()
	runJoin(b, env, bound)
}

func BenchmarkE2JoinIndexNL(b *testing.B) {
	env, bound := joinEnv(b, 1000, "", func(env *core.Env) {
		rig.MustAttach(env, "dept", "btree", core.AttrList{"on": "dno"})
	})
	b.ResetTimer()
	runJoin(b, env, bound)
}

func BenchmarkE2JoinIndex(b *testing.B) {
	env, bound := joinEnv(b, 1000, "ed", func(env *core.Env) {
		rig.MustAttach(env, "emp", "joinindex", core.AttrList{"name": "ed", "on": "dno", "peer": "dept"})
		rig.MustAttach(env, "dept", "joinindex", core.AttrList{"name": "ed", "on": "dno", "peer": "emp"})
	})
	b.ResetTimer()
	runJoin(b, env, bound)
}

// --- E3: bound plans ---

func e3Env(b *testing.B) (*core.Env, plan.Query) {
	b.Helper()
	env := core.NewEnv(core.Config{})
	emp := rig.MustCreate(env, "emp", "memory", nil)
	rig.Load(env, emp, 5000, 20)
	rig.MustAttach(env, "emp", "btree", core.AttrList{"name": "byeno", "on": "eno", "unique": "true"})
	q := plan.Query{Table: "emp", Fields: []int{2},
		Filter: expr.Eq(expr.Field(0), expr.Const(types.Int(123)))}
	return env, q
}

func BenchmarkE3BoundPlanReused(b *testing.B) {
	env, q := e3Env(b)
	bound, err := plan.New(env).Plan(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for b.Loop() {
		tx := env.Begin()
		if _, err := plan.Collect(bound.Execute(tx)); err != nil {
			b.Fatal(err)
		}
		tx.Commit()
	}
}

func BenchmarkE3BoundPlanReplanned(b *testing.B) {
	env, q := e3Env(b)
	p := plan.New(env)
	b.ResetTimer()
	for b.Loop() {
		bound, err := p.Plan(q)
		if err != nil {
			b.Fatal(err)
		}
		tx := env.Begin()
		if _, err := plan.Collect(bound.Execute(tx)); err != nil {
			b.Fatal(err)
		}
		tx.Commit()
	}
}

func BenchmarkE3ParseBindExecute(b *testing.B) {
	env, _ := e3Env(b)
	const sql = "SELECT salary FROM emp WHERE eno = 123"
	b.ResetTimer()
	for b.Loop() {
		// A fresh session per iteration defeats the saved-plan cache,
		// paying parse + catalog access + optimization every time.
		sess := ddl.NewSession(env)
		if _, err := sess.Exec(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: filter pushdown ---

func e4Env(b *testing.B) (*core.Env, *core.Relation) {
	b.Helper()
	env := core.NewEnv(core.Config{PoolFrames: 2048})
	emp := rig.MustCreate(env, "emp", "heap", nil)
	rig.Load(env, emp, 10000, 100)
	return env, emp
}

func BenchmarkE4FilterPushdown(b *testing.B) {
	env, emp := e4Env(b)
	filter := expr.Lt(expr.Field(0), expr.Const(types.Int(100))) // 1%
	b.ResetTimer()
	for b.Loop() {
		tx := env.Begin()
		scan, err := emp.OpenScan(tx, core.ScanOptions{Filter: filter, Fields: []int{0}})
		if err != nil {
			b.Fatal(err)
		}
		if got := rig.Drain(scan); got != 100 {
			b.Fatalf("matches = %d", got)
		}
		tx.Commit()
	}
}

func BenchmarkE4FilterCopyThenFilter(b *testing.B) {
	env, emp := e4Env(b)
	filter := expr.Lt(expr.Field(0), expr.Const(types.Int(100)))
	b.ResetTimer()
	for b.Loop() {
		tx := env.Begin()
		scan, err := emp.OpenScan(tx, core.ScanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		matches := 0
		for {
			_, rec, ok, err := scan.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			keep, err := env.Eval.EvalBool(filter, rec, nil)
			if err != nil {
				b.Fatal(err)
			}
			if keep {
				matches++
			}
		}
		if matches != 100 {
			b.Fatalf("matches = %d", matches)
		}
		tx.Commit()
	}
}

// --- E5: attachment maintenance cost ---

func benchInserts(b *testing.B, atts func(env *core.Env)) {
	env := core.NewEnv(core.Config{})
	rig.MustCreate(env, "emp", "memory", nil)
	if atts != nil {
		atts(env)
	}
	emp, _ := env.OpenRelationByName("emp")
	tx := env.Begin()
	b.ResetTimer()
	for i := 0; b.Loop(); i++ {
		if _, err := emp.Insert(tx, rig.EmpRecord(i, 20)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tx.Commit()
}

func BenchmarkE5AttachmentCost0(b *testing.B) { benchInserts(b, nil) }

func BenchmarkE5AttachmentCost2Indexes(b *testing.B) {
	benchInserts(b, func(env *core.Env) {
		rig.MustAttach(env, "emp", "btree", core.AttrList{"name": "i1", "on": "dno"})
		rig.MustAttach(env, "emp", "btree", core.AttrList{"name": "i2", "on": "salary"})
	})
}

func BenchmarkE5AttachmentCost6Types(b *testing.B) {
	check.RegisterPredicate("bench5pos", expr.Ge(expr.Field(0), expr.Const(types.Int(0))))
	benchInserts(b, func(env *core.Env) {
		rig.MustAttach(env, "emp", "btree", core.AttrList{"name": "i1", "on": "dno"})
		rig.MustAttach(env, "emp", "hash", core.AttrList{"name": "h1", "on": "eno"})
		rig.MustAttach(env, "emp", "unique", core.AttrList{"name": "u1", "on": "eno"})
		rig.MustAttach(env, "emp", "check", core.AttrList{"name": "c1", "predicate": "bench5pos"})
		rig.MustAttach(env, "emp", "stats", nil)
		rig.MustAttach(env, "emp", "aggregate", core.AttrList{"name": "a1", "group": "dno", "value": "salary"})
	})
}

// --- E6: access path selection ---

func e6Env(b *testing.B) (*core.Env, *plan.Planner) {
	b.Helper()
	env := core.NewEnv(core.Config{PoolFrames: 2048})
	emp := rig.MustCreate(env, "emp", "heap", nil)
	rig.Load(env, emp, 20000, 40)
	rig.MustAttach(env, "emp", "btree", core.AttrList{"name": "byeno", "on": "eno", "unique": "true"})
	rig.MustAttach(env, "emp", "hash", core.AttrList{"name": "bydno", "on": "dno"})
	return env, plan.New(env)
}

func benchQuery(b *testing.B, env *core.Env, p *plan.Planner, filter *expr.Expr) {
	b.Helper()
	bound, err := p.Plan(plan.Query{Table: "emp", Fields: []int{0}, Filter: filter})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for b.Loop() {
		tx := env.Begin()
		if _, err := plan.Collect(bound.Execute(tx)); err != nil {
			b.Fatal(err)
		}
		tx.Commit()
	}
}

func BenchmarkE6AccessPathPoint(b *testing.B) {
	env, p := e6Env(b)
	benchQuery(b, env, p, expr.Eq(expr.Field(0), expr.Const(types.Int(10000))))
}

func BenchmarkE6AccessPathHashEq(b *testing.B) {
	env, p := e6Env(b)
	benchQuery(b, env, p, expr.Eq(expr.Field(1), expr.Const(types.Int(3))))
}

func BenchmarkE6AccessPathScan(b *testing.B) {
	env, p := e6Env(b)
	benchQuery(b, env, p, expr.Gt(expr.Field(2), expr.Const(types.Float(19990))))
}

func BenchmarkE6AccessPathSpatial(b *testing.B) {
	env := core.NewEnv(core.Config{})
	s := types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "shape", Kind: types.KindBytes},
	)
	rig.WithTxn(env, func(tx *txn.Txn) {
		if _, err := env.CreateRelation(tx, "parcels", s, "memory", nil); err != nil {
			b.Fatal(err)
		}
	})
	parcels, _ := env.OpenRelationByName("parcels")
	rig.WithTxn(env, func(tx *txn.Txn) {
		for i := 0; i < 10000; i++ {
			x, y := float64(i%100)*10, float64(i/100)*10
			parcels.Insert(tx, types.Record{types.Int(int64(i)), expr.NewBox(x, y, x+2, y+2).Value()})
		}
	})
	rig.MustAttach(env, "parcels", "rtree", core.AttrList{"on": "shape"})
	filter := expr.Encloses(expr.Const(expr.NewBox(0, 0, 100, 100).Value()), expr.Field(1))
	bound, err := plan.New(env).Plan(plan.Query{Table: "parcels", Fields: []int{0}, Filter: filter})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for b.Loop() {
		tx := env.Begin()
		if _, err := plan.Collect(bound.Execute(tx)); err != nil {
			b.Fatal(err)
		}
		tx.Commit()
	}
}

// --- E7: storage methods ---

func benchSMInsert(b *testing.B, sm string, attrs core.AttrList, setup func(env *core.Env)) {
	env := core.NewEnv(core.Config{PoolFrames: 2048})
	if setup != nil {
		setup(env)
	}
	rel := rig.MustCreate(env, "t", sm, attrs)
	tx := env.Begin()
	b.ResetTimer()
	for i := 0; b.Loop(); i++ {
		if _, err := rel.Insert(tx, rig.EmpRecord(i, 40)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tx.Commit()
}

func BenchmarkE7StorageMethodsHeapInsert(b *testing.B) { benchSMInsert(b, "heap", nil, nil) }

func BenchmarkE7StorageMethodsBTreeInsert(b *testing.B) {
	benchSMInsert(b, "btree", core.AttrList{"key": "eno"}, nil)
}

func BenchmarkE7StorageMethodsMemoryInsert(b *testing.B) { benchSMInsert(b, "memory", nil, nil) }

func BenchmarkE7StorageMethodsAppendInsert(b *testing.B) { benchSMInsert(b, "append", nil, nil) }

func BenchmarkE7StorageMethodsRemoteInsert(b *testing.B) {
	benchSMInsert(b, "remote", core.AttrList{"server": "fed"}, func(env *core.Env) {
		partsm.AttachServer(env, "fed", remote.NewServer(5*time.Microsecond))
	})
}

// --- E8: veto and rollback ---

func BenchmarkE8VetoRollback(b *testing.B) {
	check.RegisterPredicate("bench8pos", expr.Ge(expr.Field(0), expr.Const(types.Int(0))))
	env := core.NewEnv(core.Config{})
	rig.MustCreate(env, "emp", "memory", nil)
	rig.MustAttach(env, "emp", "btree", core.AttrList{"name": "i1", "on": "dno"})
	rig.MustAttach(env, "emp", "check", core.AttrList{"name": "pos", "predicate": "bench8pos"})
	emp, _ := env.OpenRelationByName("emp")
	tx := env.Begin()
	bad := rig.EmpRecord(0, 20)
	bad[0] = types.Int(-1)
	b.ResetTimer()
	for b.Loop() {
		if _, err := emp.Insert(tx, bad); err == nil {
			b.Fatal("bad insert accepted")
		}
	}
	b.StopTimer()
	tx.Commit()
}

func BenchmarkE8SavepointRollback100(b *testing.B) {
	env := core.NewEnv(core.Config{})
	emp := rig.MustCreate(env, "emp", "memory", nil)
	tx := env.Begin()
	n := 0
	b.ResetTimer()
	for b.Loop() {
		if _, err := tx.Savepoint("sp"); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if _, err := emp.Insert(tx, rig.EmpRecord(n, 20)); err != nil {
				b.Fatal(err)
			}
			n++
		}
		if err := tx.RollbackTo("sp"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tx.Commit()
}

// --- E9: deferred constraints ---

func benchRefint(b *testing.B, timing string) {
	env := core.NewEnv(core.Config{})
	dept := rig.MustCreate(env, "dept", "memory", nil)
	rig.Load(env, dept, 200, 4)
	rig.MustCreate(env, "emp", "memory", nil)
	rig.MustAttach(env, "emp", "refint", core.AttrList{
		"name": "fk", "role": "child", "on": "dno",
		"peer": "dept", "peerkey": "eno", "timing": timing,
	})
	emp, _ := env.OpenRelationByName("emp")
	b.ResetTimer()
	i := 0
	for b.Loop() {
		rig.WithTxn(env, func(tx *txn.Txn) {
			for j := 0; j < 100; j++ {
				rec := rig.EmpRecord(i, 4)
				rec[1] = types.Int(int64(i % 200)) // valid FK
				if _, err := emp.Insert(tx, rec); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
}

func BenchmarkE9DeferredImmediate(b *testing.B) { benchRefint(b, "immediate") }
func BenchmarkE9DeferredDeferred(b *testing.B)  { benchRefint(b, "deferred") }

// --- E10: cascading deletes ---

func BenchmarkE10CascadeDepth3(b *testing.B) {
	// Classic b.N loop: the per-iteration setup is excluded with the
	// timer controls, which b.Loop does not permit.
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		env := core.NewEnv(core.Config{})
		for level := 0; level <= 3; level++ {
			rig.MustCreate(env, fmt.Sprintf("r%d", level), "memory", nil)
		}
		for level := 0; level < 3; level++ {
			rig.MustAttach(env, fmt.Sprintf("r%d", level), "refint", core.AttrList{
				"name": "cascade", "role": "parent", "on": "eno",
				"peer": fmt.Sprintf("r%d", level+1), "peerkey": "dno", "action": "cascade",
			})
		}
		var rootKey types.Key
		rig.WithTxn(env, func(tx *txn.Txn) {
			count := 1
			for level := 0; level <= 3; level++ {
				rel, _ := env.OpenRelationByName(fmt.Sprintf("r%d", level))
				for i := 0; i < count; i++ {
					k, err := rel.Insert(tx, types.Record{
						types.Int(int64(i)), types.Int(int64(i / 4)), types.Float(0), types.Str(""),
					})
					if err != nil {
						b.Fatal(err)
					}
					if level == 0 {
						rootKey = k
					}
				}
				count *= 4
			}
		})
		root, _ := env.OpenRelationByName("r0")
		b.StartTimer()
		rig.WithTxn(env, func(tx *txn.Txn) {
			if err := root.Delete(tx, rootKey); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// --- E11: descriptor encode/decode ---

func benchDescriptor(b *testing.B, present int) {
	rd := &core.RelDesc{RelID: 7, Name: "emp", Schema: rig.EmpSchema(), SM: core.SMHeap,
		SMDesc: []byte{1, 2, 3, 4}}
	for i := 0; i < present; i++ {
		rd.AttDesc[core.AttID(i+1)] = make([]byte, 24)
	}
	enc := rd.AppendEncode(nil)
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for b.Loop() {
		if _, _, err := core.DecodeRelDesc(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11Descriptor0Attachments(b *testing.B)  { benchDescriptor(b, 0) }
func BenchmarkE11Descriptor10Attachments(b *testing.B) { benchDescriptor(b, 10) }

// --- E12: lock manager ---

func BenchmarkE12LockingUncontended(b *testing.B) {
	mgr := lock.NewManager()
	b.ResetTimer()
	i := 0
	for b.Loop() {
		id := wal.TxnID(i + 1)
		for k := 0; k < 4; k++ {
			if err := mgr.Acquire(id, lock.KeyResource(1, []byte{byte(i), byte(k)}), lock.ModeX); err != nil {
				b.Fatal(err)
			}
		}
		mgr.ReleaseAll(id)
		i++
	}
}

func BenchmarkE12LockingParallel(b *testing.B) {
	mgr := lock.NewManager()
	var seq wal.TxnID
	var mu = make(chan wal.TxnID, 1)
	mu <- 1
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := <-mu
			mu <- id + 1
			_ = seq
			for k := 0; k < 4; k++ {
				if err := mgr.Acquire(id, lock.KeyResource(uint32(id%64), []byte{byte(k)}), lock.ModeS); err != nil {
					b.Fatal(err)
				}
			}
			mgr.ReleaseAll(id)
		}
	})
}

// --- A1: ablation — index-maintenance skip on unchanged fields ---

func benchA1Update(b *testing.B, touchIndexed bool) {
	env := core.NewEnv(core.Config{})
	emp := rig.MustCreate(env, "emp", "memory", nil)
	keys := rig.Load(env, emp, 1000, 20)
	rig.MustAttach(env, "emp", "btree", core.AttrList{"name": "i1", "on": "dno"})
	rig.MustAttach(env, "emp", "btree", core.AttrList{"name": "i2", "on": "eno"})
	emp, _ = env.OpenRelationByName("emp")
	tx := env.Begin()
	b.ResetTimer()
	for i := 0; b.Loop(); i++ {
		idx := i % len(keys)
		rec := rig.EmpRecord(idx, 20)
		rec[3] = types.Str(fmt.Sprintf("pad%d", i))
		if touchIndexed {
			rec[1] = types.Int(int64(i % 10))
		}
		nk, err := emp.Update(tx, keys[idx], rec)
		if err != nil {
			b.Fatal(err)
		}
		keys[idx] = nk
	}
	b.StopTimer()
	tx.Commit()
}

func BenchmarkA1UpdateNonIndexedField(b *testing.B) { benchA1Update(b, false) }
func BenchmarkA1UpdateIndexedField(b *testing.B)    { benchA1Update(b, true) }

// --- A2: ablation — remote scan batch size ---

func benchA2RemoteScan(b *testing.B, batch int) {
	env := core.NewEnv(core.Config{})
	partsm.AttachServer(env, "fed", remote.NewServer(5*time.Microsecond))
	rel := rig.MustCreate(env, "t", "remote",
		core.AttrList{"server": "fed", "batch": fmt.Sprint(batch)})
	rig.Load(env, rel, 1000, 20)
	b.ResetTimer()
	for b.Loop() {
		tx := env.Begin()
		scan, err := rel.OpenScan(tx, core.ScanOptions{Fields: []int{0}})
		if err != nil {
			b.Fatal(err)
		}
		if got := rig.Drain(scan); got != 1000 {
			b.Fatalf("scanned %d", got)
		}
		tx.Commit()
	}
}

func BenchmarkA2RemoteScanBatch1(b *testing.B)   { benchA2RemoteScan(b, 1) }
func BenchmarkA2RemoteScanBatch100(b *testing.B) { benchA2RemoteScan(b, 100) }
