package heap_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	_ "dmx/internal/att/btreeix"
	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/lock"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// outcome renders one fetch answer for comparison: the record, or which
// of the two answers that return none.
func outcome(rec types.Record, err error) string {
	switch {
	case err == nil:
		return rec.String()
	case errors.Is(err, core.ErrNotFound):
		return "not found"
	case errors.Is(err, core.ErrFiltered):
		return "filtered"
	}
	return "error: " + err.Error()
}

// pageOf is the logical page of a heap record key.
func pageOf(k types.Key) uint32 {
	return uint32(k[0])<<24 | uint32(k[1])<<16 | uint32(k[2])<<8 | uint32(k[3])
}

// TestFetchRunEqualsFetchByKey: a snapshot's FetchRun answers every key
// of a run as FetchByKey answers it alone — for keys the snapshot sees
// unchanged, updated in place or moved since (the reconstruction path),
// deleted since, born since, changed by a writer still open, or that the
// relation never had; with and without a residual that rejects some rows
// and a projection; for runs of 1, 7, 64, 65 and all keys, in page order,
// reversed and strided across pages. A run pins each page once per
// stretch of consecutive keys on it.
func TestFetchRunEqualsFetchByKey(t *testing.T) {
	env := core.NewEnv(core.Config{PoolFrames: 16})
	defer env.Close()
	r := mkHeap(t, env, "t")
	vs := r.Storage().(core.VersionedStorage)
	tx := env.Begin()
	var keys []types.Key
	for i := 0; i < 300; i++ {
		k, err := r.Insert(tx, rec(int64(i), strings.Repeat("x", 50)))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	loaded := slices.Clone(keys)

	snap := env.BeginReadOnly()
	defer snap.Commit()
	w := env.Begin()
	for i, k := range loaded {
		var err error
		switch i % 10 {
		case 1: // in place
			_, err = r.Update(w, k, rec(int64(i), strings.Repeat("u", 50)))
		case 2: // grown past its slot: moved to a new key
			var moved types.Key
			if moved, err = r.Update(w, k, rec(int64(i), strings.Repeat("g", 200))); err == nil {
				keys = append(keys, moved)
			}
		case 3:
			err = r.Delete(w, k)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		k, err := r.Insert(w, rec(int64(1000+i), "late"))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	open := env.Begin()
	defer open.Abort()
	if _, err := r.Update(open, loaded[5], rec(5, strings.Repeat("o", 50))); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(open, loaded[15]); err != nil {
		t.Fatal(err)
	}
	keys = append(keys, heapKey(1<<20, 0), heapKey(0, 1<<15)) // no such page; a slot past the directory

	strided := make([]types.Key, 0, len(keys))
	for s := 0; s < 7; s++ {
		for i := s; i < len(keys); i += 7 {
			strided = append(strided, keys[i])
		}
	}
	reversed := slices.Clone(keys)
	slices.Reverse(reversed)
	orders := map[string][]types.Key{"page order": keys, "reversed": reversed, "strided": strided}
	residual := expr.Lt(expr.Field(0), expr.Const(types.Int(150)))
	shapes := []struct {
		name   string
		fields []int
		filter *expr.Expr
	}{{"all fields", nil, nil}, {"projection", []int{1}, nil}, {"no fields", []int{}, nil},
		{"residual", nil, residual}, {"residual+projection", []int{1, 0}, residual}}
	for _, reader := range []struct {
		name string
		tx   *txn.Txn
	}{{"older snapshot", snap}, {"newer snapshot", env.BeginReadOnly()}} {
		for oname, order := range orders {
			for _, sh := range shapes {
				want := make([]string, len(order))
				for i, k := range order {
					want[i] = outcome(r.Storage().FetchByKey(reader.tx, k, sh.fields, expr.Compile(env.Eval, sh.filter)))
				}
				for _, n := range []int{1, 7, 64, 65, len(order)} {
					out := make([]core.Fetched, n)
					for lo := 0; lo < len(order); lo += n {
						run := order[lo:min(lo+n, len(order))]
						if err := vs.FetchRun(reader.tx, run, sh.fields, expr.Compile(env.Eval, sh.filter), out[:len(run)]); err != nil {
							t.Fatalf("%s, %s, %s, runs of %d: %v", reader.name, oname, sh.name, n, err)
						}
						for i, o := range out[:len(run)] {
							if got := outcome(o.Rec, o.Err); got != want[lo+i] {
								t.Fatalf("%s, %s, %s, runs of %d: key %d answered %s, alone %s",
									reader.name, oname, sh.name, n, lo+i, got, want[lo+i])
							}
						}
					}
				}
			}
		}
	}

	// Pins: a snapshot that sees every chain head reads each key from its
	// page, so a run pins once per change of page along it.
	fresh := env.BeginReadOnly()
	defer fresh.Commit()
	own := keys[:len(keys)-2]
	for _, n := range []int{64, 65} {
		want := int64(0)
		for lo := 0; lo < len(own); lo += n {
			run := own[lo:min(lo+n, len(own))]
			for i := range run {
				if i == 0 || pageOf(run[i]) != pageOf(run[i-1]) {
					want++
				}
			}
		}
		acct := fresh.Acct()
		before := acct.BufferHits.Load() + acct.BufferMisses.Load()
		out := make([]core.Fetched, n)
		for lo := 0; lo < len(own); lo += n {
			run := own[lo:min(lo+n, len(own))]
			if err := vs.FetchRun(fresh, run, []int{0}, nil, out[:len(run)]); err != nil {
				t.Fatal(err)
			}
		}
		if got := acct.BufferHits.Load() + acct.BufferMisses.Load() - before; got != want {
			t.Errorf("runs of %d pinned %d pages, want %d", n, got, want)
		}
	}
	if err := vs.FetchRun(env.Begin(), own[:1], nil, nil, make([]core.Fetched, 1)); err == nil {
		t.Error("a fetch run in a read-write transaction was served")
	}
}

// bandRelation is a heap of n rows (id, band, payload), ten rows per band
// value, with a btree on column on, and each row's record key by id.
func bandRelation(t *testing.T, env *core.Env, n int, on string) (*core.Relation, map[int64]types.Key) {
	t.Helper()
	tx := env.Begin()
	sch := types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "band", Kind: types.KindInt},
		types.Column{Name: "payload", Kind: types.KindString},
	)
	rd, err := env.CreateRelation(tx, "banded", sch, "heap", nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := env.OpenRelation(rd)
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[int64]types.Key, n)
	for i := int64(0); i < int64(n); i++ {
		if keys[i], err = r.Insert(tx, bandRow(i, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := env.CreateAttachment(tx, "banded", "btree", core.AttrList{"name": "banded_" + on, "on": on}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if r, err = env.OpenRelationByName("banded"); err != nil { // the descriptor with the btree
		t.Fatal(err)
	}
	return r, keys
}

// bandRow is row id with its payload drawn from fill; band is id / 10.
func bandRow(id int64, fill string) types.Record {
	return types.Record{types.Int(id), types.Int(id / 10), types.Str(strings.Repeat(fill, 40))}
}

// ixKey is the btree key of an int column value.
func ixKey(v int64) types.Key {
	return types.EncodeKeyFields(types.Record{types.Int(v)}, []int{0})
}

// drainFetch reads an index-then-fetch cursor to the end, rendering each
// row; after the first row it runs between, once, while the cursor holds
// a buffered run.
func drainFetch(t *testing.T, f *core.AccessFetch, between func()) []string {
	t.Helper()
	defer f.Close()
	var rows []string
	for {
		_, rec, ok, err := f.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return rows
		}
		rows = append(rows, rec.String())
		if len(rows) == 1 && between != nil {
			between()
		}
	}
}

// TestSnapshotAccessFetchRunsEqualPerKey: a snapshot index-then-fetch,
// which fetches its keys in runs, returns exactly what fetching each key
// of the same index range alone returns, for ranges of 63, 64, 65 and
// 129 keys and a residual that rejects some rows, on a snapshot older
// than a writer's updates and on one that sees them.
func TestSnapshotAccessFetchRunsEqualPerKey(t *testing.T) {
	env := core.NewEnv(core.Config{PoolFrames: 16})
	defer env.Close()
	r, keys := bandRelation(t, env, 400, "id")
	snap := env.BeginReadOnly()
	defer snap.Commit()
	w := env.Begin()
	for id := int64(0); id < 400; id += 3 {
		fill := "u" // in place, or grown and moved
		if id%2 == 0 {
			fill = "uu"
		}
		if _, err := r.Update(w, keys[id], bandRow(id, fill)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	const lo = 10
	boundary := expr.Ne(expr.Field(0), expr.Const(types.Int(lo+63))) // the last key of the first run
	for _, reader := range []*txn.Txn{snap, nil} {
		for _, filter := range []*expr.Expr{nil, boundary} {
			for _, n := range []int64{63, 64, 65, 129} {
				tx := reader
				if tx == nil {
					tx = env.BeginReadOnly()
					defer tx.Commit()
				}
				runsEqualPerKey(t, r, tx, core.ScanOptions{Start: ixKey(lo), End: ixKey(lo + n), Fields: []int{0, 2}, Filter: filter})
			}
		}
	}
	// A point lookup's run is as long as the keys it found, none included.
	for id, want := range map[int64]string{7: "[(7)]", 9999: "[]"} {
		f, err := r.OpenAccessFetch(snap, core.AttBTree, 0, true, core.ScanOptions{Start: ixKey(id), Fields: []int{0}}, nil, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(drainFetch(t, f, nil)); got != want {
			t.Errorf("point lookup of id %d: %s, want %s", id, got, want)
		}
	}
}

// runsEqualPerKey checks one snapshot index range read against fetching
// each of the range's keys alone.
func runsEqualPerKey(t *testing.T, r *core.Relation, tx *txn.Txn, opts core.ScanOptions) {
	t.Helper()
	prog := expr.Compile(r.Env().Eval, opts.Filter)
	f, err := r.OpenAccessFetch(tx, core.AttBTree, 0, false, opts, prog, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := drainFetch(t, f, nil)
	var want []string
	ks, err := r.OpenAccessScan(tx, core.AttBTree, 0, core.ScanOptions{Start: opts.Start, End: opts.End, Fields: []int{}})
	if err != nil {
		t.Fatal(err)
	}
	for {
		k, _, ok, err := ks.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rec, err := r.Fetch(tx, k, opts.Fields, prog)
		if errors.Is(err, core.ErrFiltered) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rec.String())
	}
	ks.Close()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("range %v..%v, filter %v: runs returned %v, alone %v", opts.Start, opts.End, opts.Filter, got, want)
	}
}

// TestSnapshotAccessFetchConcurrentWriter: while a snapshot reader drains
// an index-then-fetch over 200 keys (four runs), a writer updates — in
// place and moving — and deletes keys inside the reader's buffered run
// and past it, committing as it goes, first between two of the reader's
// rows and then alongside it; the reader returns exactly its snapshot. The keys come from one point lookup, so every key the
// snapshot holds reaches the fetch: a range read over an unversioned
// index cannot see a key whose entry a writer removed before the scan
// got there. Run under -race (make race).
func TestSnapshotAccessFetchConcurrentWriter(t *testing.T) {
	env := core.NewEnv(core.Config{PoolFrames: 16})
	defer env.Close()
	const rows = 2000
	r, keys := bandRelation(t, env, rows, "band")
	// Band 50's rows all share one index key: rebuild them as 200 rows
	// of band 50 by moving rows 500..699 into it.
	tx := env.Begin()
	for id := int64(500); id < 700; id++ {
		row := bandRow(id, "x")
		row[1] = types.Int(50)
		var err error
		if keys[id], err = r.Update(tx, keys[id], row); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	committed := map[int64]types.Record{}
	for id := int64(500); id < 700; id++ {
		row := bandRow(id, "x")
		row[1] = types.Int(50)
		committed[id] = row
	}
	for round := 0; round < 5; round++ {
		tx := env.BeginReadOnly()
		var want []string
		for id := int64(500); id < 700; id++ {
			if row, ok := committed[id]; ok {
				want = append(want, types.Record{row[0], row[2]}.String())
			}
		}
		f, err := r.OpenAccessFetch(tx, core.AttBTree, 0, true, core.ScanOptions{Start: ixKey(50), Fields: []int{0, 2}}, nil, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		// One pass of writes lands while the reader holds its first run,
		// a second runs alongside the rest of the read.
		var wg sync.WaitGroup
		var werr, gerr error
		write := func() {
			if werr = writeBand(env, r, keys, committed, round); werr != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				gerr = writeBand(env, r, keys, committed, round+1)
			}()
		}
		got := drainFetch(t, f, write)
		wg.Wait()
		tx.Commit()
		if err := errors.Join(werr, gerr); err != nil {
			t.Fatal(err)
		}
		slices.Sort(got)
		slices.Sort(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round %d: the reader returned %d rows, its snapshot holds %d:\n got %v\nwant %v", round, len(got), len(want), got, want)
		}
	}
}

// writeBand changes every fifth surviving row of band 50 in small
// committed transactions, in place, moving it or deleting it by turns,
// and records the committed state.
func writeBand(env *core.Env, r *core.Relation, keys map[int64]types.Key, committed map[int64]types.Record, round int) error {
	ids := make([]int64, 0, len(committed))
	for id := range committed {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	next := map[int64]types.Record{}
	tx := env.Begin()
	for i, id := range ids {
		if (i+round)%5 != 0 {
			continue
		}
		row := slices.Clone(committed[id])
		var err error
		switch (i / 5) % 3 {
		case 0:
			row[2] = types.Str(strings.Repeat("i", 40))
			_, err = r.Update(tx, keys[id], row)
		case 1:
			row[2] = types.Str(strings.Repeat("m", 60+round*40))
			keys[id], err = r.Update(tx, keys[id], row)
		case 2:
			err, row = r.Delete(tx, keys[id]), nil
		}
		if err != nil {
			tx.Abort()
			return err
		}
		next[id] = row
		if len(next)%4 == 0 {
			if err := tx.Commit(); err != nil {
				return err
			}
			tx = env.Begin()
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	for id, row := range next {
		if row == nil {
			delete(committed, id)
		} else {
			committed[id] = row
		}
	}
	return nil
}

// TestLockingAccessFetchLocksRowsReturned: a read-write transaction's
// index-then-fetch reads no key ahead. Closed after k rows, it holds a
// record lock on exactly those k keys (S for a read, X for a read for
// update) besides its relation lock.
func TestLockingAccessFetchLocksRowsReturned(t *testing.T) {
	env := core.NewEnv(core.Config{PoolFrames: 16})
	defer env.Close()
	r, _ := bandRelation(t, env, 400, "id")
	rel := r.Desc().RelID
	for _, forUpdate := range []bool{false, true} {
		want := lock.ModeS
		if forUpdate {
			want = lock.ModeX
		}
		for _, k := range []int{0, 1, 5, 64, 65} {
			tx := env.Begin()
			f, err := r.OpenAccessFetch(tx, core.AttBTree, 0, false, core.ScanOptions{Start: ixKey(10), End: ixKey(210)}, nil, forUpdate, nil)
			if err != nil {
				t.Fatal(err)
			}
			var read []types.Key
			for len(read) < k {
				key, _, ok, err := f.Next()
				if err != nil || !ok {
					t.Fatalf("row %d: %v %v", len(read), ok, err)
				}
				read = append(read, key)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if got := env.Locks.HeldCount(tx.ID()); got != k+1 {
				t.Errorf("forUpdate=%v, closed after %d rows: %d locks held, want %d", forUpdate, k, got, k+1)
			}
			for _, key := range read {
				if m := env.Locks.HeldMode(tx.ID(), lock.KeyResource(rel, key)); m != want {
					t.Errorf("forUpdate=%v: a returned row is locked %v, want %v", forUpdate, m, want)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
