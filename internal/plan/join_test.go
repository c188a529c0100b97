package plan_test

import (
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/plan"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// --- countscan: a scannable access path that counts opens and closes, so
// the tests can prove the planner never opens a scan it does not close. ---

const attCount core.AttID = 25

type countInst struct {
	mu     sync.Mutex
	keys   []types.Key
	opens  int
	closes int
}

func (c *countInst) OnInsert(tx *txn.Txn, key types.Key, rec types.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keys = append(c.keys, key.Clone())
	return nil
}

func (c *countInst) OnUpdate(tx *txn.Txn, oldKey, newKey types.Key, oldRec, newRec types.Record) error {
	return nil
}
func (c *countInst) OnDelete(tx *txn.Txn, key types.Key, oldRec types.Record) error { return nil }
func (c *countInst) ApplyLogged(payload []byte, undo bool) error                    { return nil }
func (c *countInst) Reconfigure(rd *core.RelDesc) error                             { return nil }

func (c *countInst) LookupByKey(tx *txn.Txn, instance int, key types.Key) ([]types.Key, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]types.Key(nil), c.keys...), nil
}

func (c *countInst) OpenScan(tx *txn.Txn, instance int, opts core.ScanOptions) (core.Scan, error) {
	c.mu.Lock()
	c.opens++
	keys := append([]types.Key(nil), c.keys...)
	c.mu.Unlock()
	return &countScan{inst: c, keys: keys}, nil
}

func (c *countInst) EstimateCost(req core.CostRequest) core.CostEstimate {
	c.mu.Lock()
	defer c.mu.Unlock()
	return core.CostEstimate{Usable: true, CPU: float64(len(c.keys)), Selectivity: 1}
}

func (c *countInst) InstanceCount() int { return 1 }

func (c *countInst) counts() (opens, closes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.opens, c.closes
}

type countScan struct {
	inst *countInst
	keys []types.Key
	i    int
}

func (s *countScan) Next() (types.Key, types.Record, bool, error) {
	if s.i >= len(s.keys) {
		return nil, nil, false, nil
	}
	k := s.keys[s.i]
	s.i++
	return k, nil, true, nil
}

func (s *countScan) Pos() core.ScanPos {
	return binary.BigEndian.AppendUint32(nil, uint32(s.i))
}

func (s *countScan) Restore(pos core.ScanPos) error {
	s.i = int(binary.BigEndian.Uint32(pos))
	return nil
}

func (s *countScan) Close() error {
	s.inst.mu.Lock()
	s.inst.closes++
	s.inst.mu.Unlock()
	return nil
}

var countInstances = map[*core.Env]*countInst{}

func init() {
	core.RegisterAttachment(&core.AttachmentOps{
		ID: attCount, Name: "countscan",
		Create: func(env *core.Env, tx *txn.Txn, rd *core.RelDesc, prior []byte, attrs core.AttrList) ([]byte, error) {
			return []byte{1}, nil
		},
		Open: func(env *core.Env, rd *core.RelDesc) (core.AttachmentInstance, error) {
			if inst, ok := countInstances[env]; ok {
				return inst, nil
			}
			inst := &countInst{}
			countInstances[env] = inst
			return inst, nil
		},
	})
}

// TestProbeScanNotLeaked is the regression test for the planner's leaked
// probe scan: openAccessRaw used to open a throwaway attachment scan just
// to find out whether the path could scan at all, then opened the real
// (managed) scan on top — leaking the probe whenever the path was
// scannable. Every scan the attachment hands out must come back.
func TestProbeScanNotLeaked(t *testing.T) {
	env := core.NewEnv(core.Config{})
	tx := env.Begin()
	if _, err := env.CreateRelation(tx, "emp", empSchema(), "heap", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := env.CreateAttachment(tx, "emp", "countscan", nil); err != nil {
		t.Fatal(err)
	}
	r, _ := env.OpenRelationByName("emp")
	for i := 0; i < 20; i++ {
		if _, err := r.Insert(tx, types.Record{
			types.Int(int64(i)), types.Int(int64(i % 10)), types.Float(float64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	q := plan.Query{Table: "emp", ForcePath: &plan.ForcedPath{Att: attCount}}
	rows, _ := runQuery(t, env, q)
	if len(rows) != 20 {
		t.Fatalf("rows = %d", len(rows))
	}
	inst := countInstances[env]
	opens, closes := inst.counts()
	if opens != closes {
		t.Fatalf("attachment scans leaked: %d opened, %d closed", opens, closes)
	}
	if opens != 1 {
		t.Errorf("want exactly 1 scan open for one execution, got %d", opens)
	}
}

// TestSMKeyedJoinProbe is the regression test for the planner's dead
// keyed-join path: the inner storage method's estimate for the join-column
// equality was computed and then discarded, so a B-tree-organised inner
// relation with no attachments never got index nested loops.
func TestSMKeyedJoinProbe(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "memory", nil, 30)
	tx := env.Begin()
	if _, err := env.CreateRelation(tx, "dept", deptSchema(), "btree", core.AttrList{"key": "dno"}); err != nil {
		t.Fatal(err)
	}
	d, _ := env.OpenRelationByName("dept")
	names := []string{"eng", "ops", "hr", "fin", "mkt", "it", "qa", "rd", "pr", "biz"}
	for i, n := range names {
		if _, err := d.Insert(tx, types.Record{types.Int(int64(i)), types.Str(n)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	q := plan.Query{
		Table:     "emp",
		Join:      &plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0, Fields: []int{1}},
		ForceJoin: "indexnl",
	}
	rows, b := runQuery(t, env, q)
	if !strings.Contains(b.Explain(), "scan(dept via btree)") {
		t.Fatalf("explain = %s, want the storage method's keyed path", b.Explain())
	}
	if len(rows) != 30 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r[3].S != names[r[1].AsInt()] {
			t.Fatalf("join mismatch: %v", r)
		}
	}

	// The reference re-scans dept: the join equality is a residual filter,
	// not the keyed path's range.
	nq := q
	nq.ForceJoin = "nl"
	nlrows, nb := runQuery(t, env, nq)
	if want := "nestedloop(scan(emp via memory) × scan(dept via btree))"; nb.Explain() != want {
		t.Fatalf("nl explain = %s, want %s", nb.Explain(), want)
	}
	if got, want := multiset(rows), multiset(nlrows); !reflect.DeepEqual(got, want) {
		t.Fatalf("sm-key probe rows diverge from nested loop:\n probe=%v\n    nl=%v", got, want)
	}
}

// TestSMKeyedJoinProbeChosen: with a large, statistics-covered inner side
// the cost model picks the storage method's keyed path on its own.
func TestSMKeyedJoinProbeChosen(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "memory", nil, 30)
	tx := env.Begin()
	if _, err := env.CreateRelation(tx, "dept", deptSchema(), "btree", core.AttrList{"key": "dno"}); err != nil {
		t.Fatal(err)
	}
	if _, err := env.CreateAttachment(tx, "dept", "stats", nil); err != nil {
		t.Fatal(err)
	}
	d, _ := env.OpenRelationByName("dept")
	for i := 0; i < 1000; i++ {
		if _, err := d.Insert(tx, types.Record{types.Int(int64(i)), types.Str("d")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	q := plan.Query{
		Table: "emp",
		Join:  &plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0, Fields: []int{1}},
	}
	rows, b := runQuery(t, env, q)
	if !strings.HasPrefix(b.Explain(), "indexNL(") || !strings.Contains(b.Explain(), "scan(dept via btree)") {
		t.Fatalf("explain = %s, want indexNL via the storage method's keyed path", b.Explain())
	}
	if len(rows) != 30 {
		t.Fatalf("rows = %d", len(rows))
	}
}

// TestDuplicateKeyJoinWaysAgree: many-to-many join keys (duplicates on
// both sides) through every join strategy, and through dept's side of a
// join index as the probed inner path.
func TestDuplicateKeyJoinWaysAgree(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "memory", nil, 100) // dno = i%10: ten rows per dno
	addDept(t, env, true)
	q := plan.Query{
		Table: "emp",
		Join:  &plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0, Fields: []int{1}},
	}
	tx := env.Begin()
	if _, err := env.CreateAttachment(tx, "dept", "joinindex",
		core.AttrList{"name": "ed", "on": "dno", "peer": "emp"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var base []string
	for _, strat := range []string{"nl", "indexnl", "hash", "joinindex"} {
		fq := q
		if strat == "joinindex" {
			spec := *q.Join
			spec.ForcePath = &plan.ForcedPath{Att: core.AttJoin}
			fq.Join = &spec
		} else {
			fq.ForceJoin = strat
		}
		rows, b := runQuery(t, env, fq)
		if len(rows) != 100 {
			t.Fatalf("%s: rows = %d", strat, len(rows))
		}
		if strat == "joinindex" && !strings.Contains(b.Explain(), "probe access(dept via joinindex") {
			t.Fatalf("joinindex: explain = %s", b.Explain())
		}
		ms := multiset(rows)
		if base == nil {
			base = ms
		} else if !reflect.DeepEqual(ms, base) {
			t.Fatalf("%s diverges from nl", strat)
		}
	}
}

// TestNullJoinKeysNeverMatch: NULL never equi-joins, whichever strategy
// and inner path run the join. l and r each hold k = NULL, 1, NULL, 3, so
// a strategy that pairs NULL with NULL returns six rows instead of two.
// The float cases give r a FLOAT k: an INT outer value equals a FLOAT key
// without sharing its encoding, so the keyed store must re-scan.
func TestNullJoinKeysNeverMatch(t *testing.T) {
	schema := func(k types.Kind) *types.Schema {
		return types.MustSchema(
			types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
			types.Column{Name: "k", Kind: k},
		)
	}
	for _, c := range []struct {
		name, force, innerSM string
		innerAttrs           core.AttrList
		att                  string // an attachment on r (joinindex: on both)
		via                  string // in the explain
		float                bool   // r.k is FLOAT
	}{
		{"nl", "nl", "heap", nil, "", "nestedloop(scan(l via heap) × scan(r via heap))", false},
		{"indexnl via btree", "indexnl", "heap", nil, "btree", "access(r via btree #0)", false},
		{"indexnl via hash", "indexnl", "heap", nil, "hash", "access(r via hash #0)", false},
		{"indexnl via keyed store", "indexnl", "btree", core.AttrList{"key": "k,id"}, "", "scan(r via btree)", false},
		{"nl via keyed store", "nl", "btree", core.AttrList{"key": "k,id"}, "", "nestedloop(scan(l via heap) × scan(r via btree))", false},
		{"hash", "hash", "heap", nil, "", "hash(", false},
		{"joinindex", "", "heap", nil, "joinindex", "access(r via joinindex #0)", false},
		{"float keyed store", "", "btree", core.AttrList{"key": "k,id"}, "", "nestedloop(scan(l via heap) × scan(r via btree))", true},
		{"float nl via keyed store", "nl", "btree", core.AttrList{"key": "k,id"}, "", "nestedloop(scan(l via heap) × scan(r via btree))", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := core.NewEnv(core.Config{})
			tx := env.Begin()
			innerVal := types.Int
			if c.float {
				innerVal = func(v int64) types.Value { return types.Float(float64(v)) }
			}
			for _, rel := range []struct {
				name, sm string
				kind     types.Kind
				val      func(int64) types.Value
			}{{"l", "heap", types.KindInt, types.Int}, {"r", c.innerSM, innerVal(0).K, innerVal}} {
				attrs := core.AttrList(nil)
				if rel.name == "r" {
					attrs = c.innerAttrs
				}
				if _, err := env.CreateRelation(tx, rel.name, schema(rel.kind), rel.sm, attrs); err != nil {
					t.Fatal(err)
				}
				r, _ := env.OpenRelationByName(rel.name)
				for i, k := range []types.Value{types.Null(), rel.val(1), types.Null(), rel.val(3)} {
					if _, err := r.Insert(tx, types.Record{types.Int(int64(i)), k}); err != nil {
						t.Fatal(err)
					}
				}
			}
			spec := plan.JoinSpec{Table: "r", OuterCol: 1, InnerCol: 1, Fields: []int{1}}
			switch c.att {
			case "joinindex":
				spec.ForcePath = &plan.ForcedPath{Att: core.AttJoin}
				for _, side := range [][2]string{{"l", "r"}, {"r", "l"}} {
					if _, err := env.CreateAttachment(tx, side[0], "joinindex",
						core.AttrList{"name": "lr", "on": "k", "peer": side[1]}); err != nil {
						t.Fatal(err)
					}
				}
			case "":
			default:
				if _, err := env.CreateAttachment(tx, "r", c.att, core.AttrList{"on": "k"}); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			rows, b := runQuery(t, env, plan.Query{Table: "l", Fields: []int{1}, Join: &spec, ForceJoin: c.force})
			if !strings.Contains(b.Explain(), c.via) {
				t.Fatalf("explain = %s, want %s", b.Explain(), c.via)
			}
			want := multiset([]types.Record{{types.Int(1), innerVal(1)}, {types.Int(3), innerVal(3)}})
			if got := multiset(rows); !reflect.DeepEqual(got, want) {
				t.Fatalf("rows = %v, want %v", got, want)
			}
		})
	}
}

// TestStatsDrivenAccessChoice is the acceptance test for stats-fed
// planning: on a histogram-covered column, a selective range conjunct
// picks the index while an unselective one picks the scan. With the
// textbook one-third range guess both would pick the index.
func TestStatsDrivenAccessChoice(t *testing.T) {
	env := core.NewEnv(core.Config{})
	tx := env.Begin()
	if _, err := env.CreateRelation(tx, "emp", empSchema(), "heap", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := env.CreateAttachment(tx, "emp", "stats", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := env.CreateAttachment(tx, "emp", "btree",
		core.AttrList{"name": "bysal", "on": "salary"}); err != nil {
		t.Fatal(err)
	}
	r, _ := env.OpenRelationByName("emp")
	for i := 0; i < 10000; i++ {
		if _, err := r.Insert(tx, types.Record{
			types.Int(int64(i)), types.Int(int64(i % 10)), types.Float(float64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	selective := plan.Query{Table: "emp",
		Filter: expr.Lt(expr.Field(2), expr.Const(types.Float(10)))}
	rows, b := runQuery(t, env, selective)
	if !strings.Contains(b.Explain(), "btree") {
		t.Fatalf("selective conjunct: explain = %s, want the btree index", b.Explain())
	}
	if len(rows) != 10 {
		t.Fatalf("selective rows = %d", len(rows))
	}

	unselective := plan.Query{Table: "emp",
		Filter: expr.Lt(expr.Field(2), expr.Const(types.Float(9000)))}
	rows, b = runQuery(t, env, unselective)
	if !strings.HasPrefix(b.Explain(), "scan(") {
		t.Fatalf("unselective conjunct: explain = %s, want a scan", b.Explain())
	}
	if len(rows) != 9000 {
		t.Fatalf("unselective rows = %d", len(rows))
	}
}

// TestPlanObsCounters: a hash join feeds the observability engine.
func TestPlanObsCounters(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "memory", nil, 3000)
	addDept(t, env, false)
	jq := plan.Query{
		Table:     "emp",
		Filter:    expr.Lt(expr.Field(0), expr.Const(types.Int(10))),
		Join:      &plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0, Fields: []int{1}},
		ForceJoin: "hash",
	}
	if rows, _ := runQuery(t, env, jq); len(rows) != 10 {
		t.Fatalf("join rows = %d", len(rows))
	}
	if snap := env.Obs.Snapshot(); snap.Plan.HashJoins < 1 {
		t.Errorf("hash_joins = %d, want ≥1", snap.Plan.HashJoins)
	}
}

// TestForceJoinUnusable: forcing a strategy the query cannot run reports
// ErrForcedUnusable instead of silently degrading.
func TestForceJoinUnusable(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "memory", nil, 10)
	addDept(t, env, false) // no keyed path on dept
	q := plan.Query{
		Table:     "emp",
		Join:      &plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0},
		ForceJoin: "indexnl",
	}
	if _, err := plan.New(env).Plan(q); !errors.Is(err, plan.ErrForcedUnusable) {
		t.Fatalf("err = %v, want ErrForcedUnusable", err)
	}
}

// TestJoinFilterTakesNoParams: only the outer filter has parameter
// markers; a join strategy never binds one in the inner filter.
func TestJoinFilterTakesNoParams(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "memory", nil, 10)
	addDept(t, env, false)
	q := plan.Query{
		Table: "emp",
		Join: &plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0,
			Filter: expr.Eq(expr.Field(1), expr.Param(0))},
		Params: []types.Value{types.Str("eng")},
	}
	if _, err := plan.New(env).Plan(q); err == nil {
		t.Fatal("a parameter marker in JoinSpec.Filter planned")
	}
}

// TestJoinFieldListsAgree: every join strategy returns the same rows, the
// outer's Query.Fields then the inner's Join.Fields, whatever the lists
// are — nil (the whole record), partial, with a field twice, out of
// order, or holding the join column — now that each side reads only the
// fields the join uses. A duplicated dno in dept gives some outer rows two
// matches; eno 3 has a NULL dno and matches nothing.
func TestJoinFieldListsAgree(t *testing.T) {
	env := core.NewEnv(core.Config{})
	tx := env.Begin()
	if _, err := env.CreateRelation(tx, "emp", empSchema(), "heap", nil); err != nil {
		t.Fatal(err)
	}
	emp, _ := env.OpenRelationByName("emp")
	var emps []types.Record
	for i := int64(0); i < 40; i++ {
		dno := types.Int(i % 10)
		if i == 3 {
			dno = types.Null()
		}
		emps = append(emps, types.Record{types.Int(i), dno, types.Float(float64(i) / 2)})
		if _, err := emp.Insert(tx, emps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	addDept(t, env, false)
	dept, _ := env.OpenRelationByName("dept")
	tx = env.Begin()
	if _, err := dept.Insert(tx, types.Record{types.Int(4), types.Str("dup")}); err != nil {
		t.Fatal(err)
	}
	if _, err := env.CreateAttachment(tx, "dept", "btree", core.AttrList{"on": "dno"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	run := func(tx *txn.Txn, q plan.Query) ([]types.Record, error) {
		defer tx.Commit()
		b, err := plan.New(env).Plan(q)
		if err != nil {
			return nil, err
		}
		return plan.Collect(b.Execute(tx))
	}
	depts, err := run(env.Begin(), plan.Query{Table: "dept"})
	if err != nil {
		t.Fatal(err)
	}

	project := func(rec types.Record, fields []int) types.Record {
		if fields == nil {
			return rec
		}
		return rec.Project(fields)
	}
	lists := [][]int{nil, {2}, {0, 0, 2}, {2, 0}, {1, 0}, {1}}
	filter := expr.Lt(expr.Field(0), expr.Const(types.Int(30)))
	for _, of := range lists {
		for _, jf := range [][]int{nil, {1}, {1, 1}, {0}, {1, 0}} {
			var want []types.Record
			for _, e := range emps[:30] {
				for _, d := range depts {
					if !e[1].IsNull() && types.Equal(e[1], d[0]) {
						want = append(want, append(slices.Clone(project(e, of)), project(d, jf)...))
					}
				}
			}
			for _, strat := range []string{"nl", "indexnl", "hash"} {
				q := plan.Query{Table: "emp", Filter: filter, Fields: of, ForceJoin: strat,
					Join: &plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0, Fields: jf}}
				for _, ro := range []bool{false, true} {
					tx := env.Begin()
					if ro {
						tx = env.BeginReadOnly()
					}
					rows, err := run(tx, q)
					if err != nil {
						t.Fatalf("%s, fields %v ⋈ %v: %v", strat, of, jf, err)
					}
					if !reflect.DeepEqual(multiset(rows), multiset(want)) {
						t.Fatalf("%s (read-only %v), fields %v ⋈ %v:\n got %v\nwant %v", strat, ro, of, jf, rows, want)
					}
				}
			}
		}
	}
}

// BenchmarkHashJoinBuild times a hash join whose build dominates: a
// 1 000-row dept (INT key, 20-byte name) built on a fresh snapshot for
// each of 10 outer rows, the shape of scan-filter's Q3 with its outer
// side shrunk.
//
//	go test -run '^$' -bench HashJoinBuild -benchmem ./internal/plan
func BenchmarkHashJoinBuild(b *testing.B) {
	env := core.NewEnv(core.Config{})
	defer env.Close()
	tx := env.Begin()
	for _, c := range []struct {
		name   string
		schema *types.Schema
	}{{"emp", empSchema()}, {"dept", deptSchema()}} {
		if _, err := env.CreateRelation(tx, c.name, c.schema, "heap", nil); err != nil {
			b.Fatal(err)
		}
	}
	emp, _ := env.OpenRelationByName("emp")
	dept, _ := env.OpenRelationByName("dept")
	for i := int64(0); i < 1000; i++ {
		if _, err := dept.Insert(tx, types.Record{types.Int(i), types.Str(strings.Repeat("d", 20))}); err != nil {
			b.Fatal(err)
		}
	}
	for i := int64(0); i < 10; i++ {
		if _, err := emp.Insert(tx, types.Record{types.Int(i), types.Int(i * 97), types.Float(1)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	bound, err := plan.New(env).Plan(plan.Query{Table: "emp", Fields: []int{0, 2}, ForceJoin: "hash",
		Join: &plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0, Fields: []int{0}}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := env.BeginReadOnly()
		rows, err := plan.Collect(bound.Execute(tx))
		if err != nil || len(rows) != 10 {
			b.Fatalf("%d rows, %v", len(rows), err)
		}
		tx.Commit()
	}
}
