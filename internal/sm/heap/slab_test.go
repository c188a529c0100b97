package heap_test

import (
	"fmt"
	"testing"

	"dmx/internal/core"
	"dmx/internal/types"
)

// TestReturnedRowsAreIndependent: the records and keys of a 130-row scan
// and of a 65-key FetchRun share backing arrays (types.Slab), but each is
// its own: appending to one, or overwriting every field or byte of it,
// leaves every other row as it was, and rows stay correct after the scan
// is closed.
func TestReturnedRowsAreIndependent(t *testing.T) {
	env := core.NewEnv(core.Config{PoolFrames: 16})
	defer env.Close()
	r := mkHeap(t, env, "t")
	tx := env.Begin()
	const n = 130
	want := make([]types.Record, n)
	for i := range want {
		want[i] = rec(int64(i), fmt.Sprintf("row-%03d", i))
		if _, err := r.Insert(tx, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := env.BeginReadOnly()
	defer snap.Commit()

	for _, fields := range [][]int{nil, {1, 0}} {
		sc, err := r.OpenScan(snap, core.ScanOptions{Fields: fields})
		if err != nil {
			t.Fatal(err)
		}
		var keys []types.Key
		var recs []types.Record
		for {
			k, rec, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			keys, recs = append(keys, k), append(recs, rec)
		}
		if err := sc.Close(); err != nil {
			t.Fatal(err)
		}
		if len(recs) != n {
			t.Fatalf("fields %v: scan returned %d rows, want %d", fields, len(recs), n)
		}
		wantKeys := make([]types.Key, n)
		wantRecs := make([]types.Record, n)
		for i := range want {
			wantKeys[i], wantRecs[i] = keys[i].Clone(), want[i]
			if fields != nil {
				wantRecs[i] = want[i].Project(fields)
			}
		}
		checkIndependent(t, fmt.Sprintf("scan, fields %v", fields), keys, recs, wantKeys, wantRecs)

		run := make([]core.Fetched, 65)
		vs := r.Storage().(core.VersionedStorage)
		if err := vs.FetchRun(snap, wantKeys[:65], fields, nil, run); err != nil {
			t.Fatal(err)
		}
		fetched := make([]types.Record, len(run))
		for i, o := range run {
			if o.Err != nil {
				t.Fatalf("FetchRun key %d: %v", i, o.Err)
			}
			fetched[i] = o.Rec
		}
		checkIndependent(t, fmt.Sprintf("FetchRun, fields %v", fields), nil, fetched, nil, wantRecs[:65])
	}
}

// checkIndependent checks the rows against their expected values, then
// appends to each row and checks again, then overwrites each row whole
// and checks that every row after it is untouched.
func checkIndependent(t *testing.T, what string, keys []types.Key, recs []types.Record, wantKeys []types.Key, wantRecs []types.Record) {
	t.Helper()
	check := func(from int, after string) {
		t.Helper()
		for j := from; j < len(recs); j++ {
			if !recs[j].Equal(wantRecs[j]) {
				t.Fatalf("%s: row %d is %v %s, want %v", what, j, recs[j], after, wantRecs[j])
			}
			if keys != nil && !keys[j].Equal(wantKeys[j]) {
				t.Fatalf("%s: key %d is %v %s, want %v", what, j, keys[j], after, wantKeys[j])
			}
		}
	}
	check(0, "as returned")
	for i := range recs {
		_ = append(recs[i], types.Str("appended"))
		if keys != nil {
			_ = append(keys[i], 0xff)
		}
	}
	check(0, "after appending to every row")
	for i := range recs {
		for f := range recs[i] {
			recs[i][f] = types.Str("overwritten")
		}
		if keys != nil {
			for b := range keys[i] {
				keys[i][b] = 0xee
			}
		}
		check(i+1, fmt.Sprintf("after row %d was overwritten", i))
	}
}
