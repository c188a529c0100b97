package plan_test

import (
	"fmt"
	"strings"
	"testing"

	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/plan"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// rangeFetch is the shape of the benchmark's index-then-fetch query at a
// smaller scale: a heap larger than its buffer pool, a btree index on eno,
// and a bound plan that reads eno in [lo, lo+n) through the index, fetching
// two fields of each record in eno order.
type rangeFetch struct {
	env    *core.Env
	bound  *plan.Bound
	filter *expr.Expr // the range the plan reads
	n      int
}

func newRangeFetch(tb testing.TB, rows, frames, lo, n int) *rangeFetch {
	tb.Helper()
	env := core.NewEnv(core.Config{PoolFrames: frames})
	tb.Cleanup(func() { env.Close() })
	schema := types.MustSchema(
		types.Column{Name: "eno", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "band", Kind: types.KindInt},
		types.Column{Name: "salary", Kind: types.KindInt},
		types.Column{Name: "pad", Kind: types.KindString},
	)
	tx := env.Begin()
	rd, err := env.CreateRelation(tx, "emp_big", schema, "heap", nil)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := env.OpenRelation(rd)
	if err != nil {
		tb.Fatal(err)
	}
	pad := types.Str(strings.Repeat("p", 150))
	for i := 0; i < rows; i++ {
		// Scatter eno over the heap so that neighbouring index entries
		// live on different pages.
		eno := int64(i * 7919 % rows)
		if _, err := r.Insert(tx, types.Record{types.Int(eno), types.Int(eno % 100), types.Int(eno * 3), pad}); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := env.CreateAttachment(tx, "emp_big", "btree", core.AttrList{"name": "emp_big_eno", "on": "eno"}); err != nil {
		tb.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	filter := expr.And(expr.Ge(expr.Field(0), expr.Const(types.Int(int64(lo)))),
		expr.Lt(expr.Field(0), expr.Const(types.Int(int64(lo+n)))))
	b, err := plan.New(env).Plan(plan.Query{Table: "emp_big", Fields: []int{0, 2}, OrderBy: []int{0}, Filter: filter})
	if err != nil {
		tb.Fatal(err)
	}
	if !strings.Contains(b.Explain(), "btree") || strings.Contains(b.Explain(), "sort") {
		tb.Fatalf("plan %q does not read the range through the btree index in order", b.Explain())
	}
	return &rangeFetch{env: env, bound: b, filter: filter, n: n}
}

// run executes the query on a fresh snapshot and drains it.
func (f *rangeFetch) run(tb testing.TB) (pins int64) {
	tx := f.env.BeginReadOnly()
	defer tx.Commit()
	rows, err := f.bound.Execute(tx)
	if err != nil {
		tb.Fatal(err)
	}
	n, last := 0, int64(-1)
	for {
		rec, ok, err := rows.Next()
		if err != nil {
			tb.Fatal(err)
		}
		if !ok {
			break
		}
		if rec[0].I <= last {
			tb.Fatalf("row %d: eno %d after %d", n, rec[0].I, last)
		}
		last = rec[0].I
		n++
	}
	rows.Close()
	if n != f.n {
		tb.Fatalf("query returned %d rows, want %d", n, f.n)
	}
	st := tx.Acct()
	return st.BufferHits.Load() + st.BufferMisses.Load()
}

// TestSnapshotIndexFetchPinsOnePagePerRow pins the work of a snapshot
// index-then-fetch read: each row's page is pinned once, by its fetch —
// visibility is judged there, not by a separate probe of the same page —
// and the read allocates per run of 64 keys, not per row: 31 times for
// 200 rows, the bound three more (35 while each execution built its
// counters and relation handle anew; the bound was 2n + 60 while records
// were decoded one allocation each).
func TestSnapshotIndexFetchPinsOnePagePerRow(t *testing.T) {
	const rows, n = 2000, 200
	f := newRangeFetch(t, rows, 16, 500, n)
	if pins := f.run(t); pins != n {
		t.Fatalf("a %d-row snapshot fetch pinned %d pages, want %d", n, pins, n)
	}
	const bound = 34
	allocs := testing.AllocsPerRun(20, func() { f.run(t) })
	if allocs > bound {
		t.Fatalf("a %d-row snapshot fetch allocated %.0f times, want at most %d", n, allocs, bound)
	}
	// A residual the index does not handle is compiled once for the read,
	// not once per run of keys: 4 more allocations (16 while each of the
	// four runs compiled it).
	b, err := plan.New(f.env).Plan(plan.Query{Table: "emp_big", Fields: []int{0, 2}, OrderBy: []int{0},
		Filter: expr.And(f.filter, expr.Ge(expr.Field(2), expr.Const(types.Int(0))))})
	if err != nil {
		t.Fatal(err)
	}
	f.bound = b
	if filtered := testing.AllocsPerRun(20, func() { f.run(t) }); filtered > allocs+7 {
		t.Fatalf("a residual made the %d-row fetch allocate %.0f times, %.0f without it", n, filtered, allocs)
	}
}

// TestSnapshotIndexFetchSeesItsSnapshot: a snapshot's index-then-fetch
// read passes over a key committed after the snapshot began and returns
// the snapshot's version of a record updated since; a later snapshot sees
// both changes.
func TestSnapshotIndexFetchSeesItsSnapshot(t *testing.T) {
	f := newRangeFetch(t, 100, 16, 10, 20)
	r, err := f.env.OpenRelationByName("emp_big")
	if err != nil {
		t.Fatal(err)
	}
	read := func(tx *txn.Txn) map[int64][]int64 {
		defer tx.Commit()
		rows, err := plan.Collect(f.bound.Execute(tx))
		if err != nil {
			t.Fatal(err)
		}
		out := map[int64][]int64{}
		for _, rec := range rows {
			out[rec[0].I] = append(out[rec[0].I], rec[1].I)
		}
		return out
	}
	old := f.env.BeginReadOnly()
	w := f.env.Begin()
	sc, err := r.OpenScan(w, core.ScanOptions{Filter: expr.Eq(expr.Field(0), expr.Const(types.Int(20)))})
	if err != nil {
		t.Fatal(err)
	}
	key, rec, ok, err := sc.Next()
	if err != nil || !ok {
		t.Fatalf("eno 20: %v %v", ok, err)
	}
	sc.Close()
	rec = rec.Clone()
	rec[2] = types.Int(-1)
	if _, err := r.Update(w, key, rec); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(w, types.Record{types.Int(15), types.Int(0), types.Int(-2), types.Str("late")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	before, after := read(old), read(f.env.BeginReadOnly())
	if len(before[15]) != 1 || fmt.Sprint(before[20]) != "[60]" {
		t.Fatalf("the older snapshot read eno 15 as %v and eno 20 as %v, want one row and [60]", before[15], before[20])
	}
	if len(after[15]) != 2 || fmt.Sprint(after[20]) != "[-1]" {
		t.Fatalf("the newer snapshot read eno 15 as %v and eno 20 as %v, want two rows and [-1]", after[15], after[20])
	}
}

// BenchmarkIndexRangeFetch times the snapshot index-then-fetch read: 500
// rows of a 10 000-row heap nearly four times the size of its 128-frame pool.
//
//	go test -run '^$' -bench IndexRangeFetch -benchmem ./internal/plan
func BenchmarkIndexRangeFetch(b *testing.B) {
	f := newRangeFetch(b, 10000, 128, 4000, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.run(b)
	}
}
