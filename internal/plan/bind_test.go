package plan_test

import (
	"fmt"
	"slices"
	"testing"

	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/plan"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// bindFixture is a heap of n employees (eno 0..n-1, dno eno%10) with btree
// indexes on eno and on dno, and a department table keyed by a unique
// btree on dno.
func bindFixture(tb testing.TB, n int) *core.Env {
	tb.Helper()
	env := core.NewEnv(core.Config{})
	tb.Cleanup(func() { env.Close() })
	tx := env.Begin()
	if _, err := env.CreateRelation(tx, "emp", empSchema(), "heap", nil); err != nil {
		tb.Fatal(err)
	}
	r, err := env.OpenRelationByName("emp")
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := r.Insert(tx, types.Record{types.Int(int64(i)), types.Int(int64(i % 10)), types.Float(float64(i))}); err != nil {
			tb.Fatal(err)
		}
	}
	for _, a := range []core.AttrList{{"name": "byeno", "on": "eno", "unique": "true"}, {"name": "bydno", "on": "dno"}} {
		if _, err := env.CreateAttachment(tx, "emp", "btree", a); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := env.CreateRelation(tx, "dept", deptSchema(), "heap", nil); err != nil {
		tb.Fatal(err)
	}
	d, _ := env.OpenRelationByName("dept")
	for i := 0; i < 10; i++ {
		if _, err := d.Insert(tx, types.Record{types.Int(int64(i)), types.Str(fmt.Sprint("d", i))}); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := env.CreateAttachment(tx, "dept", "btree", core.AttrList{"name": "dept_dno", "on": "dno", "unique": "true"}); err != nil {
		tb.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	return env
}

// mustPlan plans q and checks its explain names want.
func mustPlan(tb testing.TB, env *core.Env, q plan.Query, want string) *plan.Bound {
	tb.Helper()
	b, err := plan.New(env).Plan(q)
	if err != nil {
		tb.Fatal(err)
	}
	if b.Explain() != want {
		tb.Fatalf("plan %q, want %q", b.Explain(), want)
	}
	return b
}

// drain executes b, reads its rows to the end and closes the cursor,
// returning the first field of each row.
func drain(tb testing.TB, b *plan.Bound, tx *txn.Txn, params ...types.Value) []int64 {
	tb.Helper()
	rows, err := b.Execute(tx, params...)
	if err != nil {
		tb.Fatal(err)
	}
	var out []int64
	for {
		rec, ok, err := rows.Next()
		if err != nil {
			tb.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, rec[0].I)
	}
	if err := rows.Close(); err != nil {
		tb.Fatal(err)
	}
	return out
}

// count executes b, reads its rows to the end and closes the cursor.
func count(tb testing.TB, b *plan.Bound, tx *txn.Txn, params ...types.Value) int {
	tb.Helper()
	rows, err := b.Execute(tx, params...)
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	for {
		_, ok, err := rows.Next()
		if err != nil {
			tb.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if err := rows.Close(); err != nil {
		tb.Fatal(err)
	}
	return n
}

// pointQuery is the cached point SELECT of the oltp-sql workload: one
// marker, a unique btree.
var pointQuery = plan.Query{Table: "emp", Filter: expr.Eq(expr.Field(0), expr.Param(0)), Fields: []int{0, 2},
	Params: []types.Value{types.Int(0)}}

// TestExecuteAllocations pins what executing a cached plan costs beyond
// the index-then-fetch read it runs, measured the same way through
// core.Relation with a filter compiled beforehand and the cursor reused,
// as a plan's binder reuses it: a point plan's Execute, drain and Close
// allocate no more than the fetch, and at most 4 times (5 while each open
// allocated its cursor; 7 while the index lookup built the key's prefix
// successor and the fetch decoded the whole record to project it; 14 more
// than the fetch while each execution rebound the filter, rebuilt its key
// range, counters and relation handle), and an indexed nested loop at
// most one more per outer row than a point probe of its inner relation,
// which allocates at most 5 times (6 with a new cursor per probe; 10 more
// per outer row while each outer row rebound).
func TestExecuteAllocations(t *testing.T) {
	const runs = 200
	env := bindFixture(t, 100)
	tx := env.Begin()
	defer tx.Commit()

	t.Run("point", func(t *testing.T) {
		b := mustPlan(t, env, pointQuery, "access(emp via btree #0)")
		rel, err := env.OpenRelationByName("emp")
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]types.Key, 10)
		filters := make([]*expr.Program, 10)
		for i := range keys {
			keys[i] = types.EncodeKeyValues(types.Int(int64(i)))
			filters[i] = expr.Compile(env.Eval, expr.Eq(expr.Field(0), expr.Const(types.Int(int64(i)))))
			if got := drain(t, b, tx, types.Int(int64(i))); !slices.Equal(got, []int64{int64(i)}) {
				t.Fatalf("eno %d: rows %v", i, got)
			}
		}
		i, fields := 0, pointQuery.Fields
		var f *core.AccessFetch
		fetch := testing.AllocsPerRun(runs, func() {
			i++
			var err error
			f, err = rel.OpenAccessFetch(tx, core.AttBTree, 0, true,
				core.ScanOptions{Start: keys[i%10], Fields: fields}, filters[i%10], false, f)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, ok, err := f.Next(); !ok || err != nil {
				t.Fatalf("eno %d: %v", i%10, err)
			}
			f.Close()
		})
		params := make([]types.Value, 10)
		for i := range params {
			params[i] = types.Int(int64(i))
		}
		execute := testing.AllocsPerRun(runs, func() {
			i++
			if n := count(t, b, tx, params[i%10]); n != 1 {
				t.Fatalf("eno %d: %d rows", i%10, n)
			}
		})
		t.Logf("point: Execute, drain and Close %v allocations, the fetch alone %v", execute, fetch)
		if execute > fetch || execute > 4 {
			t.Errorf("a cached point plan allocates %v times, its fetch %v: want no more, and at most 4", execute, fetch)
		}
	})

	t.Run("indexed nested loop", func(t *testing.T) {
		b := mustPlan(t, env, plan.Query{Table: "emp", Fields: []int{0},
			Filter: expr.Lt(expr.Field(0), expr.Param(0)), Params: []types.Value{types.Int(10)},
			Join: &plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0, Fields: []int{1}}, ForceJoin: "indexnl"},
			"indexNL(access(emp via btree #0) ⟕probe access(dept via btree #0))")
		rel, err := env.OpenRelationByName("dept")
		if err != nil {
			t.Fatal(err)
		}
		key, filter, fields := types.EncodeKeyValues(types.Int(3)), expr.Compile(env.Eval, expr.Eq(expr.Field(0), expr.Const(types.Int(3)))), []int{1}
		var f *core.AccessFetch
		perProbe := testing.AllocsPerRun(runs, func() {
			var err error
			f, err = rel.OpenAccessFetch(tx, core.AttBTree, 0, true, core.ScanOptions{Start: key, Fields: fields}, filter, false, f)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, ok, err := f.Next(); !ok || err != nil {
				t.Fatalf("dno 3: %v", err)
			}
			f.Close()
		})
		// The loop's outer side alone: the same access, reading the fields
		// the join reads.
		outer := mustPlan(t, env, plan.Query{Table: "emp", Fields: []int{0, 1},
			Filter: expr.Lt(expr.Field(0), expr.Param(0)), Params: []types.Value{types.Int(10)}},
			"access(emp via btree #0)")
		const few, many = 10, 90
		perRow := func(b *plan.Bound) float64 {
			read := func(rows int64) float64 {
				p := types.Int(rows)
				return testing.AllocsPerRun(runs/10, func() {
					if n := count(t, b, tx, p); n != int(rows) {
						t.Fatalf("eno < %d: %d rows", rows, n)
					}
				})
			}
			return (read(many) - read(few)) / (many - few)
		}
		join, alone := perRow(b), perRow(outer)
		t.Logf("indexed nested loop: %.2f allocations per outer row, %.2f reading the outer row, a probe %v", join, alone, perProbe)
		if join > alone+perProbe+1 || perProbe > 5 {
			t.Errorf("an outer row costs %.2f allocations, reading it %.2f and a probe %v: want at most one more, and a probe at most 5", join, alone, perProbe)
		}
	})
}

// TestOpenCursorsOfOnePlan: two cursors of one bound plan, opened with
// different parameter values and read in turns, each return their own
// rows — point and range plans, under locking and snapshot transactions,
// closed in either order — and Stats reports the later execution.
func TestOpenCursorsOfOnePlan(t *testing.T) {
	const n = 400
	env := bindFixture(t, n)
	point := plan.Query{Table: "emp", Filter: expr.Eq(expr.Field(1), expr.Param(0)), Fields: []int{0},
		Params: []types.Value{types.Int(3)}}
	rng := plan.Query{Table: "emp", Fields: []int{0},
		Filter: expr.And(expr.Ge(expr.Field(0), expr.Param(0)), expr.Lt(expr.Field(0), expr.Param(1))),
		Params: []types.Value{types.Int(10), types.Int(150)}}
	want := func(q plan.Query, params []types.Value) []int64 {
		var out []int64
		for eno := int64(0); eno < n; eno++ {
			if q.Filter == point.Filter && eno%10 == params[0].I ||
				q.Filter == rng.Filter && eno >= params[0].I && eno < params[1].I {
				out = append(out, eno)
			}
		}
		return out
	}
	for _, c := range []struct {
		name    string
		q       plan.Query
		explain string
		p1, p2  []types.Value
	}{
		{"point", point, "access(emp via btree #1)", []types.Value{types.Int(3)}, []types.Value{types.Int(7)}},
		{"range", rng, "access(emp via btree #0)",
			[]types.Value{types.Int(10), types.Int(150)}, []types.Value{types.Int(200), types.Int(330)}},
	} {
		for _, snapshot := range []bool{false, true} {
			for _, reverse := range []bool{false, true} {
				name := fmt.Sprintf("%s/snapshot=%v/close-later-first=%v", c.name, snapshot, reverse)
				t.Run(name, func(t *testing.T) {
					b := mustPlan(t, env, c.q, c.explain)
					begin := env.Begin
					if snapshot {
						begin = env.BeginReadOnly
					}
					for round := 0; round < 2; round++ { // the second reuses the bindings the first closed
						tx := begin()
						c1, err := b.Execute(tx, c.p1...)
						if err != nil {
							t.Fatal(err)
						}
						c2, err := b.Execute(tx, c.p2...)
						if err != nil {
							t.Fatal(err)
						}
						var got1, got2 []int64
						for done1, done2 := false, false; !done1 || !done2; {
							if !done1 {
								done1 = next(t, c1, &got1)
							}
							if !done2 {
								done2 = next(t, c2, &got2)
							}
						}
						if reverse {
							c2.Close()
							c1.Close()
						} else {
							c1.Close()
							c2.Close()
						}
						if w := want(c.q, c.p1); !slices.Equal(got1, w) {
							t.Fatalf("round %d: the first cursor read %v, want %v", round, got1, w)
						}
						if w := want(c.q, c.p2); !slices.Equal(got2, w) {
							t.Fatalf("round %d: the second cursor read %v, want %v", round, got2, w)
						}
						if st := b.Stats(); len(st) != 1 || st[0].Rows != int64(len(got2)) {
							t.Fatalf("round %d: stats %+v, want the second execution's %d rows", round, st, len(got2))
						}
						if err := tx.Commit(); err != nil {
							t.Fatal(err)
						}
					}
					if b.Replans != 0 {
						t.Fatalf("%d re-translations", b.Replans)
					}
				})
			}
		}
	}
}

// TestRebindEqualsFreshPlan: one cached plan with an INT and a STRING
// marker, executed with values v1, v2, v1 in turn, returns each time what
// a freshly planned query returns, and what the data says — as a locking
// point probe, a snapshot range read and an indexed nested loop, whose
// inner access is bound anew for every outer row. The filter a fetch
// matches is compiled once per binding, so each execution reads the
// values bound into its constant nodes at match time.
func TestRebindEqualsFreshPlan(t *testing.T) {
	const n = 400
	env := bindFixture(t, 0)
	tx := env.Begin()
	if _, err := env.CreateRelation(tx, "item", types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "tag", Kind: types.KindString},
		types.Column{Name: "dno", Kind: types.KindInt},
	), "heap", nil); err != nil {
		t.Fatal(err)
	}
	r, err := env.OpenRelationByName("item")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ { // tag t<id%4>, dno id%10
		if _, err := r.Insert(tx, types.Record{types.Int(i), types.Str(fmt.Sprint("t", i%4)), types.Int(i % 10)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := env.CreateAttachment(tx, "item", "btree", core.AttrList{"name": "item_id", "on": "id", "unique": "true"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	idTag := expr.And(expr.Lt(expr.Field(0), expr.Param(0)), expr.Eq(expr.Field(1), expr.Param(1)))
	// want renders the rows of items with id op p[0] and tag p[1]: the
	// item's id, then its department's name when joined.
	want := func(p []types.Value, point, joined bool) string {
		var out []string
		for i := int64(0); i < n; i++ {
			if (point && i == p[0].I || !point && i < p[0].I) && fmt.Sprint("t", i%4) == p[1].S {
				row := fmt.Sprint(i)
				if joined {
					row += fmt.Sprint(" d", i%10)
				}
				out = append(out, row)
			}
		}
		return fmt.Sprint(out)
	}
	for _, c := range []struct {
		name    string
		q       plan.Query
		explain string
		begin   func() *txn.Txn
		point   bool
		v1, v2  []types.Value
	}{
		{"locking point probe", plan.Query{Table: "item", Fields: []int{0},
			Filter: expr.And(expr.Eq(expr.Field(0), expr.Param(0)), expr.Eq(expr.Field(1), expr.Param(1)))},
			"access(item via btree #0)", env.Begin, true,
			[]types.Value{types.Int(5), types.Str("t1")}, []types.Value{types.Int(6), types.Str("t2")}},
		{"snapshot range read", plan.Query{Table: "item", Fields: []int{0}, Filter: idTag},
			"access(item via btree #0)", env.BeginReadOnly, false,
			[]types.Value{types.Int(100), types.Str("t1")}, []types.Value{types.Int(120), types.Str("t2")}},
		{"indexed nested-loop inner", plan.Query{Table: "item", Fields: []int{0}, Filter: idTag,
			Join: &plan.JoinSpec{Table: "dept", OuterCol: 2, InnerCol: 0, Fields: []int{1}}, ForceJoin: "indexnl"},
			"indexNL(access(item via btree #0) ⟕probe access(dept via btree #0))", env.Begin, false,
			[]types.Value{types.Int(100), types.Str("t1")}, []types.Value{types.Int(120), types.Str("t2")}},
	} {
		t.Run(c.name, func(t *testing.T) {
			read := func(b *plan.Bound, tx *txn.Txn, p []types.Value) string {
				rows, err := b.Execute(tx, p...)
				recs, err := plan.Collect(rows, err)
				if err != nil {
					t.Fatal(err)
				}
				out := make([]string, len(recs))
				for i, rec := range recs {
					out[i] = fmt.Sprint(rec[0].I)
					if c.q.Join != nil {
						out[i] += " " + rec[1].S
					}
				}
				return fmt.Sprint(out)
			}
			c.q.Params = c.v1
			cached := mustPlan(t, env, c.q, c.explain)
			tx := c.begin()
			defer tx.Commit()
			for i, p := range [][]types.Value{c.v1, c.v2, c.v1} {
				q := c.q
				q.Params = p
				fresh := mustPlan(t, env, q, c.explain)
				got, again, w := read(cached, tx, p), read(fresh, tx, p), want(p, c.point, c.q.Join != nil)
				if got != again || got != w {
					t.Fatalf("execution %d with %v: the cached plan read %s, a fresh one %s, want %s", i, p, got, again, w)
				}
			}
			if cached.Replans != 0 {
				t.Fatalf("%d re-translations: the executions did not all rebind one translation", cached.Replans)
			}
		})
	}
}

// next reads one row of rows into got, reporting the end.
func next(t *testing.T, rows plan.Rows, got *[]int64) bool {
	t.Helper()
	rec, ok, err := rows.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		*got = append(*got, rec[0].I)
	}
	return !ok
}

// BenchmarkExecuteCachedPoint times one execution of a cached one-marker
// point plan over a unique btree — Execute, drain, Close — in one
// locking transaction.
//
//	go test -run '^$' -bench ExecuteCachedPoint -benchmem ./internal/plan
func BenchmarkExecuteCachedPoint(b *testing.B) {
	env := bindFixture(b, 1000)
	bound := mustPlan(b, env, pointQuery, "access(emp via btree #0)")
	tx := env.Begin()
	defer tx.Commit()
	params := make([]types.Value, 100)
	for i := range params {
		params[i] = types.Int(int64(i * 7))
		count(b, bound, tx, params[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := count(b, bound, tx, params[i%len(params)]); n != 1 {
			b.Fatalf("%d rows", n)
		}
	}
}
