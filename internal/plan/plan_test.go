package plan_test

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	_ "dmx/internal/att/btreeix"
	_ "dmx/internal/att/hashidx"
	_ "dmx/internal/att/joinidx"
	_ "dmx/internal/att/rtreeix"
	_ "dmx/internal/att/stats"
	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/plan"
	_ "dmx/internal/sm/btreesm"
	_ "dmx/internal/sm/heap"
	_ "dmx/internal/sm/memsm"
	"dmx/internal/trace"
	"dmx/internal/types"
)

func empSchema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "eno", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "dno", Kind: types.KindInt},
		types.Column{Name: "salary", Kind: types.KindFloat},
	)
}

func deptSchema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "dno", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "name", Kind: types.KindString},
	)
}

// loadEmp creates emp with n records: eno=i, dno=i%10, salary=i.
func loadEmp(t *testing.T, env *core.Env, sm string, attrs core.AttrList, n int) *core.Relation {
	t.Helper()
	tx := env.Begin()
	if _, err := env.CreateRelation(tx, "emp", empSchema(), sm, attrs); err != nil {
		t.Fatal(err)
	}
	r, _ := env.OpenRelationByName("emp")
	for i := 0; i < n; i++ {
		if _, err := r.Insert(tx, types.Record{
			types.Int(int64(i)), types.Int(int64(i % 10)), types.Float(float64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return r
}

func runQuery(t *testing.T, env *core.Env, q plan.Query) ([]types.Record, *plan.Bound) {
	t.Helper()
	p := plan.New(env)
	b, err := p.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	tx := env.Begin()
	defer tx.Commit()
	rows, err := plan.Collect(b.Execute(tx))
	if err != nil {
		t.Fatal(err)
	}
	return rows, b
}

func TestScanPlanWhenNoIndex(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "memory", nil, 100)
	q := plan.Query{Table: "emp", Filter: expr.Eq(expr.Field(0), expr.Const(types.Int(7)))}
	rows, b := runQuery(t, env, q)
	if !strings.HasPrefix(b.Explain(), "scan(") {
		t.Fatalf("explain = %s", b.Explain())
	}
	if len(rows) != 1 || rows[0][0].AsInt() != 7 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestPlannerPicksBTreeIndexForEquality(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "memory", nil, 1000)
	tx := env.Begin()
	if _, err := env.CreateAttachment(tx, "emp", "btree",
		core.AttrList{"name": "byeno", "on": "eno", "unique": "true"}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	q := plan.Query{Table: "emp", Filter: expr.Eq(expr.Field(0), expr.Const(types.Int(42)))}
	rows, b := runQuery(t, env, q)
	if !strings.Contains(b.Explain(), "btree") {
		t.Fatalf("expected btree access, got %s", b.Explain())
	}
	if len(rows) != 1 || rows[0][0].AsInt() != 42 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestIndexRangeScanWithResidual(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "memory", nil, 100)
	tx := env.Begin()
	env.CreateAttachment(tx, "emp", "btree", core.AttrList{"name": "byeno", "on": "eno"})
	tx.Commit()

	// Range on eno (handled by index) AND predicate on dno (residual).
	q := plan.Query{Table: "emp", Filter: expr.And(
		expr.Lt(expr.Field(0), expr.Const(types.Int(50))),
		expr.Eq(expr.Field(1), expr.Const(types.Int(3))),
	)}
	rows, b := runQuery(t, env, q)
	if !strings.Contains(b.Explain(), "btree") {
		t.Fatalf("explain = %s", b.Explain())
	}
	if len(rows) != 5 { // eno in {3,13,23,33,43}
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r[0].AsInt() >= 50 || r[1].AsInt() != 3 {
			t.Fatalf("bad row %v", r)
		}
	}
}

func TestBTreeStorageMethodActsAsAccessPath(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "btree", core.AttrList{"key": "eno"}, 500)
	q := plan.Query{Table: "emp", Filter: expr.Eq(expr.Field(0), expr.Const(types.Int(123)))}
	rows, b := runQuery(t, env, q)
	if !strings.HasPrefix(b.Explain(), "scan(emp via btree") {
		t.Fatalf("explain = %s", b.Explain())
	}
	if len(rows) != 1 || rows[0][0].AsInt() != 123 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestHashIndexChosenForEquality(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "heap", nil, 500)
	tx := env.Begin()
	env.CreateAttachment(tx, "emp", "hash", core.AttrList{"name": "hdno", "on": "dno"})
	tx.Commit()

	q := plan.Query{Table: "emp", Filter: expr.Eq(expr.Field(1), expr.Const(types.Int(4)))}
	rows, b := runQuery(t, env, q)
	if !strings.Contains(b.Explain(), "hash") {
		t.Fatalf("explain = %s", b.Explain())
	}
	if len(rows) != 50 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestProjectionApplied(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "memory", nil, 10)
	q := plan.Query{Table: "emp", Fields: []int{2, 0}}
	rows, _ := runQuery(t, env, q)
	if len(rows) != 10 || len(rows[0]) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].K != types.KindFloat || rows[0][1].K != types.KindInt {
		t.Fatalf("projection order wrong: %v", rows[0])
	}
}

// multiset renders rows order-insensitively for cross-plan comparison.
func multiset(rows []types.Record) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%v", r)
	}
	sort.Strings(out)
	return out
}

func addDept(t *testing.T, env *core.Env, withIndex bool) {
	t.Helper()
	tx := env.Begin()
	if _, err := env.CreateRelation(tx, "dept", deptSchema(), "memory", nil); err != nil {
		t.Fatal(err)
	}
	d, _ := env.OpenRelationByName("dept")
	names := []string{"eng", "ops", "hr", "fin", "mkt", "it", "qa", "rd", "pr", "biz"}
	for i, n := range names {
		d.Insert(tx, types.Record{types.Int(int64(i)), types.Str(n)})
	}
	if withIndex {
		if _, err := env.CreateAttachment(tx, "dept", "btree",
			core.AttrList{"name": "bydno", "on": "dno", "unique": "true"}); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
}

func TestNestedLoopJoin(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "memory", nil, 30)
	addDept(t, env, false)
	q := plan.Query{
		Table:     "emp",
		Filter:    expr.Lt(expr.Field(0), expr.Const(types.Int(5))),
		Fields:    []int{0, 1},
		Join:      &plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0, Fields: []int{1}},
		ForceJoin: "nl",
	}
	rows, b := runQuery(t, env, q)
	if !strings.HasPrefix(b.Explain(), "nestedloop(") {
		t.Fatalf("explain = %s", b.Explain())
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r) != 3 || r[2].K != types.KindString {
			t.Fatalf("bad joined row %v", r)
		}
	}
}

// TestHashJoinChosen: without a keyed path on the inner side, the cost
// model prefers one hash build over re-scanning the inner relation per
// outer row — and the hash join returns exactly the nested loop's rows.
func TestHashJoinChosen(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "memory", nil, 30)
	addDept(t, env, false)
	q := plan.Query{
		Table:  "emp",
		Fields: []int{0, 1},
		Join:   &plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0, Fields: []int{1}},
	}
	rows, b := runQuery(t, env, q)
	if !strings.HasPrefix(b.Explain(), "hash(") {
		t.Fatalf("explain = %s", b.Explain())
	}
	nq := q
	nq.ForceJoin = "nl"
	nlrows, nb := runQuery(t, env, nq)
	if !strings.HasPrefix(nb.Explain(), "nestedloop(") {
		t.Fatalf("forced nl explain = %s", nb.Explain())
	}
	if got, want := multiset(rows), multiset(nlrows); !reflect.DeepEqual(got, want) {
		t.Fatalf("hash join rows diverge from nested loop:\n hash=%v\n   nl=%v", got, want)
	}
}

// TestHashJoinBuildIsPlannedAccess: a hash join's build is the access
// the planner chooses for the inner filter, so a selective filter on an
// indexed column builds through the index instead of scanning the inner
// relation, and the join still returns the nested loop's rows.
func TestHashJoinBuildIsPlannedAccess(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "memory", nil, 100)
	tx := env.Begin()
	if _, err := env.CreateRelation(tx, "dept", deptSchema(), "heap", nil); err != nil {
		t.Fatal(err)
	}
	d, _ := env.OpenRelationByName("dept")
	for i := 0; i < 1000; i++ {
		if _, err := d.Insert(tx, types.Record{types.Int(int64(i % 10)), types.Str(fmt.Sprintf("n%d", i%100))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := env.CreateAttachment(tx, "dept", "btree", core.AttrList{"name": "byname", "on": "name"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	q := plan.Query{
		Table: "emp",
		Join: &plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0, Fields: []int{1},
			Filter: expr.Eq(expr.Field(1), expr.Const(types.Str("n7")))},
		ForceJoin: "hash",
	}
	rows, b := runQuery(t, env, q)
	if want := "hash(scan(emp via memory) ⋈ access(dept via btree #0))"; b.Explain() != want {
		t.Fatalf("explain = %s, want %s", b.Explain(), want)
	}
	nq := q
	nq.ForceJoin = "nl"
	nlrows, _ := runQuery(t, env, nq)
	if len(rows) != 100 {
		t.Fatalf("rows = %d, want 100", len(rows))
	}
	if got, want := multiset(rows), multiset(nlrows); !reflect.DeepEqual(got, want) {
		t.Fatalf("hash join rows diverge from nested loop:\n hash=%v\n   nl=%v", got, want)
	}
}

func TestIndexNestedLoopJoinChosen(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "memory", nil, 30)
	addDept(t, env, true)
	// Grow the inner side until per-row keyed probes beat building a hash
	// table over it, and give the planner statistics to price the probes.
	tx := env.Begin()
	if _, err := env.CreateAttachment(tx, "dept", "stats", nil); err != nil {
		t.Fatal(err)
	}
	d, _ := env.OpenRelationByName("dept")
	for i := 10; i < 1000; i++ {
		d.Insert(tx, types.Record{types.Int(int64(i)), types.Str("filler")})
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	q := plan.Query{
		Table: "emp",
		Join:  &plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0, Fields: []int{1}},
	}
	rows, b := runQuery(t, env, q)
	if !strings.HasPrefix(b.Explain(), "indexNL(") {
		t.Fatalf("explain = %s", b.Explain())
	}
	if len(rows) != 30 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Every row's dept name matches its dno.
	names := []string{"eng", "ops", "hr", "fin", "mkt", "it", "qa", "rd", "pr", "biz"}
	for _, r := range rows {
		if r[3].S != names[r[1].AsInt()] {
			t.Fatalf("join mismatch: %v", r)
		}
	}
}

// joinIndexOn creates the join index ed between emp and dept: emp's side
// on dno, dept's on the given column.
func joinIndexOn(t *testing.T, env *core.Env, deptCol string) {
	t.Helper()
	tx := env.Begin()
	if _, err := env.CreateAttachment(tx, "emp", "joinindex",
		core.AttrList{"name": "ed", "on": "dno", "peer": "dept"}); err != nil {
		t.Fatal(err)
	}
	if _, err := env.CreateAttachment(tx, "dept", "joinindex",
		core.AttrList{"name": "ed", "on": deptCol, "peer": "emp"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestJoinIndexPlan: a join through the join index is the nested loop
// over the access the planner chose for the outer side, each outer row
// probing dept's side of the index, so the rows come in that access's order.
func TestJoinIndexPlan(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "memory", nil, 300)
	addDept(t, env, false)
	joinIndexOn(t, env, "dno")
	tx := env.Begin()
	if _, err := env.CreateAttachment(tx, "emp", "btree", core.AttrList{"name": "byeno", "on": "eno"}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	q := plan.Query{
		Table:  "emp",
		Filter: expr.Lt(expr.Field(0), expr.Const(types.Int(30))),
		Join: &plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0, Fields: []int{1},
			ForcePath: &plan.ForcedPath{Att: core.AttJoin}},
	}
	rows, b := runQuery(t, env, q)
	if want := "indexNL(access(emp via btree #0) ⟕probe access(dept via joinindex #0))"; b.Explain() != want {
		t.Fatalf("explain = %s, want %s", b.Explain(), want)
	}
	if len(rows) != 30 {
		t.Fatalf("rows = %d", len(rows))
	}
	names := []string{"eng", "ops", "hr", "fin", "mkt", "it", "qa", "rd", "pr", "biz"}
	for i, r := range rows {
		if r[0].AsInt() != int64(i) || r[3].S != names[r[1].AsInt()] {
			t.Fatalf("row %d = %v, want eno %d joined with its dept", i, r, i)
		}
	}
}

// TestJoinIndexOnOtherColumn: a join index on another column than the
// join's cannot serve it. Pinned, the plan is refused; unpinned, the join
// runs without it. Neither returns a row.
func TestJoinIndexOnOtherColumn(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "memory", nil, 30)
	tx := env.Begin()
	schema := types.MustSchema(
		types.Column{Name: "dno", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "other", Kind: types.KindInt},
	)
	if _, err := env.CreateRelation(tx, "dept", schema, "memory", nil); err != nil {
		t.Fatal(err)
	}
	d, _ := env.OpenRelationByName("dept")
	if _, err := d.Insert(tx, types.Record{types.Int(3), types.Int(99)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	joinIndexOn(t, env, "dno")

	// emp.dno = dept.other, through the index on dept.dno.
	spec := plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 1, ForcePath: &plan.ForcedPath{Att: core.AttJoin}}
	if _, err := plan.New(env).Plan(plan.Query{Table: "emp", Join: &spec}); !errors.Is(err, plan.ErrForcedUnusable) {
		t.Fatalf("pinned: err = %v, want ErrForcedUnusable", err)
	}
	spec.ForcePath = nil
	if rows, b := runQuery(t, env, plan.Query{Table: "emp", Join: &spec}); len(rows) != 0 {
		t.Fatalf("unpinned: rows = %v from %s, want none", rows, b.Explain())
	}
}

func TestJoinStrategiesAgree(t *testing.T) {
	// All three join strategies must produce the same multiset of rows.
	canonical := func(rows []types.Record) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r.String()
		}
		sort.Strings(out)
		return out
	}

	run := func(prep func(env *core.Env), join plan.JoinSpec) []string {
		env := core.NewEnv(core.Config{})
		loadEmp(t, env, "memory", nil, 40)
		addDept(t, env, false)
		if prep != nil {
			prep(env)
		}
		q := plan.Query{Table: "emp", Fields: []int{0, 1}, Join: &join}
		rows, _ := runQuery(t, env, q)
		return canonical(rows)
	}

	base := plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0, Fields: []int{1}}
	nl := run(nil, base)
	inl := run(func(env *core.Env) {
		tx := env.Begin()
		env.CreateAttachment(tx, "dept", "btree", core.AttrList{"on": "dno"})
		tx.Commit()
	}, base)
	jiSpec := base
	jiSpec.ForcePath = &plan.ForcedPath{Att: core.AttJoin}
	ji := run(func(env *core.Env) { joinIndexOn(t, env, "dno") }, jiSpec)

	if len(nl) != len(inl) || len(nl) != len(ji) {
		t.Fatalf("row counts differ: nl=%d inl=%d ji=%d", len(nl), len(inl), len(ji))
	}
	for i := range nl {
		if nl[i] != inl[i] || nl[i] != ji[i] {
			t.Fatalf("row %d differs:\n nl=%s\ninl=%s\n ji=%s", i, nl[i], inl[i], ji[i])
		}
	}
}

func TestPlanInvalidationOnDropIndex(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "memory", nil, 200)
	tx := env.Begin()
	env.CreateAttachment(tx, "emp", "btree", core.AttrList{"name": "byeno", "on": "eno"})
	tx.Commit()

	p := plan.New(env)
	q := plan.Query{Table: "emp", Filter: expr.Eq(expr.Field(0), expr.Const(types.Int(9)))}
	b, err := p.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.Explain(), "btree") {
		t.Fatalf("initial explain = %s", b.Explain())
	}

	// Drop the index: the bound plan's dependency is invalidated and the
	// next execution automatically re-translates to a scan.
	tx2 := env.Begin()
	if _, err := env.DropAttachment(tx2, "emp", "btree", core.AttrList{"name": "byeno"}); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()

	tx3 := env.Begin()
	rows, err := plan.Collect(b.Execute(tx3))
	if err != nil {
		t.Fatal(err)
	}
	tx3.Commit()
	if b.Replans != 1 {
		t.Fatalf("replans = %d", b.Replans)
	}
	if !strings.HasPrefix(b.Explain(), "scan(") {
		t.Fatalf("re-translated explain = %s", b.Explain())
	}
	if len(rows) != 1 || rows[0][0].AsInt() != 9 {
		t.Fatalf("rows after re-translation = %v", rows)
	}
}

func TestPlanPicksUpNewIndexAfterInvalidation(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "memory", nil, 200)
	p := plan.New(env)
	q := plan.Query{Table: "emp", Filter: expr.Eq(expr.Field(0), expr.Const(types.Int(9)))}
	b, _ := p.Plan(q)
	if !strings.HasPrefix(b.Explain(), "scan(") {
		t.Fatalf("initial explain = %s", b.Explain())
	}
	tx := env.Begin()
	env.CreateAttachment(tx, "emp", "btree", core.AttrList{"on": "eno"})
	tx.Commit()

	tx2 := env.Begin()
	if _, err := plan.Collect(b.Execute(tx2)); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	if !strings.Contains(b.Explain(), "btree") {
		t.Fatalf("plan did not adopt the new index: %s", b.Explain())
	}
}

func TestUnknownTableFails(t *testing.T) {
	env := core.NewEnv(core.Config{})
	p := plan.New(env)
	if _, err := p.Plan(plan.Query{Table: "ghost"}); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestSpatialQueryUsesRTree(t *testing.T) {
	env := core.NewEnv(core.Config{})
	s := types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "shape", Kind: types.KindBytes},
	)
	tx := env.Begin()
	env.CreateRelation(tx, "parcels", s, "memory", nil)
	env.CreateAttachment(tx, "parcels", "rtree", core.AttrList{"on": "shape"})
	r, _ := env.OpenRelationByName("parcels")
	for i := 0; i < 100; i++ {
		x := float64(i%10) * 10
		y := float64(i/10) * 10
		r.Insert(tx, types.Record{types.Int(int64(i)), expr.NewBox(x, y, x+1, y+1).Value()})
	}
	tx.Commit()

	query := expr.NewBox(0, 0, 15, 15)
	q := plan.Query{Table: "parcels", Filter: expr.Encloses(expr.Const(query.Value()), expr.Field(1))}
	rows, b := runQuery(t, env, q)
	if !strings.Contains(b.Explain(), "rtree") {
		t.Fatalf("explain = %s", b.Explain())
	}
	if len(rows) != 4 { // (0,0),(10,0),(0,10),(10,10)
		t.Fatalf("spatial rows = %d", len(rows))
	}
}

func TestOrderedAccessViaIndex(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "heap", nil, 500)
	tx := env.Begin()
	env.CreateAttachment(tx, "emp", "btree", core.AttrList{"name": "bysalary", "on": "salary"})
	tx.Commit()

	p := plan.New(env)
	// Full-table ORDER BY: an unclustered ordered pass fetches every
	// record individually, so the planner correctly prefers scan + sort.
	full, err := p.Plan(plan.Query{Table: "emp", Fields: []int{2}, OrderBy: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if full.Ordered() {
		t.Fatalf("full-table ORDER BY should not pick the ordered pass: %s", full.Explain())
	}
	// Top-k: with a small limit the ordered access streams and wins.
	b, err := p.Plan(plan.Query{Table: "emp", Fields: []int{2}, OrderBy: []int{2}, Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !b.Ordered() || !strings.Contains(b.Explain(), "btree") {
		t.Fatalf("ordered=%v explain=%s", b.Ordered(), b.Explain())
	}
	tx2 := env.Begin()
	rows, err := plan.Collect(b.Execute(tx2))
	if err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	if len(rows) != 500 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].AsFloat() > rows[i][0].AsFloat() {
			t.Fatalf("not ordered at %d: %v > %v", i, rows[i-1][0], rows[i][0])
		}
	}
}

func TestOrderedFlagFalseWithoutSuitableIndex(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "heap", nil, 100)
	p := plan.New(env)
	b, err := p.Plan(plan.Query{Table: "emp", OrderBy: []int{2}, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if b.Ordered() {
		t.Fatalf("heap scan reported ordered: %s", b.Explain())
	}
}

func TestOrderedViaBTreeStorageMethod(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "btree", core.AttrList{"key": "eno"}, 200)
	p := plan.New(env)
	b, err := p.Plan(plan.Query{Table: "emp", Fields: []int{0}, OrderBy: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if !b.Ordered() {
		t.Fatalf("btree storage method should deliver key order: %s", b.Explain())
	}
	tx := env.Begin()
	rows, _ := plan.Collect(b.Execute(tx))
	tx.Commit()
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].AsInt() > rows[i][0].AsInt() {
			t.Fatal("not in key order")
		}
	}
}

func TestExecStatsSingleTable(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "memory", nil, 20)
	q := plan.Query{
		Table:  "emp",
		Filter: expr.Lt(expr.Field(0), expr.Const(types.Int(7))),
	}
	rows, b := runQuery(t, env, q)
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	stats := b.Stats()
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	st := stats[0]
	if st.Name != b.Explain() {
		t.Errorf("operator name %q, explain %q", st.Name, b.Explain())
	}
	if st.Rows != 7 {
		t.Errorf("rows counted = %d, want 7", st.Rows)
	}
	// Collect drives Next until exhaustion: rows + the final miss.
	if st.Calls != 8 {
		t.Errorf("calls = %d, want 8", st.Calls)
	}
	if st.TimeNanos <= 0 {
		t.Errorf("time = %d, want > 0", st.TimeNanos)
	}
	if !strings.Contains(b.ExplainAnalyze(), "calls=8 rows=7") {
		t.Errorf("ExplainAnalyze = %q", b.ExplainAnalyze())
	}
}

func TestExecStatsJoinOperators(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "memory", nil, 30)
	addDept(t, env, true)
	q := plan.Query{
		Table:     "emp",
		Join:      &plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0, Fields: []int{1}},
		ForceJoin: "indexnl",
	}
	rows, b := runQuery(t, env, q)
	if len(rows) != 30 {
		t.Fatalf("rows = %d", len(rows))
	}
	stats := b.Stats()
	if len(stats) != 2 {
		t.Fatalf("want outer + probe operators, got %+v", stats)
	}
	outer, probe := stats[0], stats[1]
	if !strings.HasPrefix(probe.Name, "probe(dept") {
		t.Errorf("probe operator name = %q", probe.Name)
	}
	if outer.Rows != 30 || probe.Rows != 30 {
		t.Errorf("rows: outer=%d probe=%d, want 30/30", outer.Rows, probe.Rows)
	}

	// Stats reset on re-execution.
	tx := env.Begin()
	defer tx.Commit()
	if _, err := plan.Collect(b.Execute(tx)); err != nil {
		t.Fatal(err)
	}
	if got := len(b.Stats()); got != 2 {
		t.Errorf("stats after re-execute = %d operators, want 2", got)
	}
	if b.Stats()[1].Rows != 30 {
		t.Errorf("re-executed probe rows = %d, want 30", b.Stats()[1].Rows)
	}
}

// TestExecStatsMatchTracedOperatorSpans runs a join plan whose probe side
// fires the inner table's btree attachment inside a fully-sampled traced
// transaction, then cross-checks the two observability layers: every
// operator's ExecStats total must equal its plan.op span duration exactly
// (the span is closed from the same counter), and the work dispatched
// during the operator's cursor calls — attachment lookups on the probe —
// must appear as child spans whose durations sum to no more than the
// operator's own total.
func TestExecStatsMatchTracedOperatorSpans(t *testing.T) {
	env := core.NewEnv(core.Config{TraceSample: 1})
	loadEmp(t, env, "memory", nil, 40)
	addDept(t, env, true) // btree attachment on dept: the probe fires it per outer row
	q := plan.Query{
		Table:     "emp",
		Join:      &plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0, Fields: []int{1}},
		ForceJoin: "indexnl",
	}
	p := plan.New(env)
	b, err := p.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	tx := env.Begin()
	if !tx.Trace().Detailed() {
		t.Fatal("TraceSample=1 must give every transaction a detailed trace")
	}
	txnID := uint64(tx.ID())
	rows, err := plan.Collect(b.Execute(tx))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 40 {
		t.Fatalf("rows = %d", len(rows))
	}
	stats := b.Stats()
	if len(stats) != 2 {
		t.Fatalf("want outer + probe operators, got %+v", stats)
	}

	// The ring also holds the (fully sampled) load transactions; pick the
	// query's own trace by transaction id.
	var td *trace.TraceData
	for _, cand := range env.Tracer.Traces(0) {
		if cand.TxnID == txnID {
			td = &cand
			break
		}
	}
	if td == nil || !td.Sampled || td.State != "committed" {
		t.Fatalf("query trace not in ring or wrong shape: %+v", td)
	}

	// Operator spans hang off the root (no statement layer here: the plan
	// was executed directly, not through a session).
	ops := map[string]trace.SpanData{}
	for _, c := range td.Root.Children {
		if c.Name == "plan.op" {
			ops[c.Ext] = c
		}
	}
	if len(ops) != 2 {
		t.Fatalf("plan.op spans = %d, want 2 (root children %+v)", len(ops), td.Root.Children)
	}
	for _, st := range stats {
		sp, ok := ops[st.Name]
		if !ok {
			t.Fatalf("no span for operator %q", st.Name)
		}
		if sp.DurNanos != st.TimeNanos {
			t.Errorf("operator %q: span dur %dns, ExecStats %dns", st.Name, sp.DurNanos, st.TimeNanos)
		}
		var childSum int64
		for _, c := range sp.Children {
			childSum += c.DurNanos
		}
		if childSum > st.TimeNanos {
			t.Errorf("operator %q: children sum %dns exceeds operator total %dns",
				st.Name, childSum, st.TimeNanos)
		}
	}

	// The probe operator dispatched through dept's btree attachment: its
	// lookups must be recorded as att.* child spans under the probe span.
	probe := ops[stats[1].Name]
	attLookups := 0
	for _, c := range probe.Children {
		if strings.HasPrefix(c.Name, "att.") {
			attLookups++
		}
	}
	if attLookups == 0 {
		t.Errorf("probe span %q has no attachment child spans: %+v", probe.Ext, probe.Children)
	}
}

// TestForcedPathsAgree is the planner differential test: for each query
// shape, every access path that claims to be usable must return exactly
// the same multiset of rows as the storage-method full scan.
func TestForcedPathsAgree(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "heap", nil, 200)
	tx := env.Begin()
	if _, err := env.CreateAttachment(tx, "emp", "btree", core.AttrList{"name": "bydno", "on": "dno"}); err != nil {
		t.Fatal(err)
	}
	if _, err := env.CreateAttachment(tx, "emp", "hash", core.AttrList{"name": "byeno", "on": "eno"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	queries := map[string]plan.Query{
		"eq-eno":     {Table: "emp", Filter: expr.Eq(expr.Field(0), expr.Const(types.Int(7)))},
		"eq-dno":     {Table: "emp", Filter: expr.Eq(expr.Field(1), expr.Const(types.Int(3)))},
		"range-dno":  {Table: "emp", Filter: expr.Lt(expr.Field(1), expr.Const(types.Int(4)))},
		"unfiltered": {Table: "emp"},
		"projected":  {Table: "emp", Filter: expr.Eq(expr.Field(1), expr.Const(types.Int(5))), Fields: []int{0, 2}},
	}
	paths := []core.AttID{0, core.AttBTree, core.AttHash}
	for name, q := range queries {
		q.ForcePath = &plan.ForcedPath{Att: 0}
		baseline, _ := runQuery(t, env, q)
		want := multiset(baseline)
		viable := 1
		for _, att := range paths[1:] {
			fq := q
			fq.ForcePath = &plan.ForcedPath{Att: att}
			p := plan.New(env)
			b, err := p.Plan(fq)
			if errors.Is(err, plan.ErrForcedUnusable) {
				continue // this path cannot answer this query shape
			}
			if err != nil {
				t.Fatalf("%s att %d: %v", name, att, err)
			}
			viable++
			tx := env.Begin()
			rows, err := plan.Collect(b.Execute(tx))
			tx.Commit()
			if err != nil {
				t.Fatalf("%s att %d: %v", name, att, err)
			}
			got := multiset(rows)
			if len(got) != len(want) {
				t.Fatalf("%s via att %d: %d rows, scan has %d", name, att, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s via att %d differs at %d: %q vs %q", name, att, i, got[i], want[i])
				}
			}
		}
		// Sanity: the matrix actually exercises indexed paths where expected.
		switch name {
		case "eq-eno": // scan + hash (the btree is on dno)
			if viable != 2 {
				t.Fatalf("eq-eno: %d viable paths, want 2", viable)
			}
		case "range-dno", "eq-dno": // scan + btree (hash answers only eq on eno)
			if viable != 2 {
				t.Fatalf("%s: %d viable paths, want 2", name, viable)
			}
		}
	}
}

// TestForcedPathUnusableIsAnError pins the failure mode: forcing a hash
// index for a range query must fail with ErrForcedUnusable, not silently
// fall back to another path.
func TestForcedPathUnusableIsAnError(t *testing.T) {
	env := core.NewEnv(core.Config{})
	loadEmp(t, env, "heap", nil, 20)
	tx := env.Begin()
	if _, err := env.CreateAttachment(tx, "emp", "hash", core.AttrList{"name": "byeno", "on": "eno"}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	_, err := plan.New(env).Plan(plan.Query{
		Table:     "emp",
		Filter:    expr.Lt(expr.Field(0), expr.Const(types.Int(5))),
		ForcePath: &plan.ForcedPath{Att: core.AttHash},
	})
	if !errors.Is(err, plan.ErrForcedUnusable) {
		t.Fatalf("err = %v, want ErrForcedUnusable", err)
	}
}
