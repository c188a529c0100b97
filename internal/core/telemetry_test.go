package core_test

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"testing"

	_ "dmx/internal/att/btreeix"
	"dmx/internal/core"
	"dmx/internal/obs"
	"dmx/internal/types"
)

var update = flag.Bool("update", false, "rewrite testdata/ golden files from this tree's output")

// fixedWorkload drives every dispatch point of core/relation.go a known
// number of times on a memory relation carrying a btree index on id and
// the veto test attachment: 6 storage-method inserts (one vetoed), 1
// update, 1 delete, 2 fetches, 1 storage scan, 1 access-path scan and 1
// access-path lookup. Every call succeeds except the vetoed notify.
func fixedWorkload(t *testing.T) *core.Env {
	t.Helper()
	env := core.NewEnv(core.Config{})
	tx := env.Begin()
	if _, err := env.CreateRelation(tx, "g", testSchema(), "memory", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := env.CreateAttachment(tx, "g", "btree", core.AttrList{"on": "id"}); err != nil {
		t.Fatal(err)
	}
	rd, err := env.CreateAttachment(tx, "g", "veto", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r, err := env.OpenRelation(rd)
	if err != nil {
		t.Fatal(err)
	}

	tx = env.Begin()
	keys := make([]types.Key, 5)
	for i := range keys {
		if keys[i], err = r.Insert(tx, rec(int64(i+1), "x")); err != nil {
			t.Fatal(err)
		}
	}
	var veto *core.VetoError
	if _, err := r.Insert(tx, rec(-1, "vetoed")); !errors.As(err, &veto) {
		t.Fatalf("negative id not vetoed: %v", err)
	}
	if _, err := r.Update(tx, keys[1], rec(2, "y")); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(tx, keys[2]); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = env.Begin()
	for _, k := range keys[:2] {
		if _, err := r.Fetch(tx, k, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	drain := func(sc core.Scan, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; ; n++ {
			_, _, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				if n != 4 {
					t.Fatalf("scan returned %d rows, want 4", n)
				}
				return
			}
		}
	}
	drain(r.OpenScan(tx, core.ScanOptions{}))
	drain(r.OpenAccessScan(tx, core.AttBTree, 0, core.ScanOptions{}))
	if ks, err := r.LookupAccess(tx, core.AttBTree, 0, types.EncodeKeyValues(types.Int(1))); err != nil || len(ks) != 1 {
		t.Fatalf("lookup id=1: %v, %v", ks, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return env
}

// TestTotalsAreDerived pins MetricsSnapshot().Totals on the fixed workload
// to the numbers the hand-bumped env.Metrics counters gave before Totals
// was computed from the dispatch vectors.
func TestTotalsAreDerived(t *testing.T) {
	got := fixedWorkload(t).MetricsSnapshot().Totals
	want := core.TotalsSnapshot{SMCalls: 8, AttCalls: 16, Fetches: 3, Scans: 2, Vetoes: 1}
	if got != want {
		t.Fatalf("totals = %+v, want %+v", got, want)
	}
}

// TestGoldenMetricsSnapshot compares the fixed workload's snapshot JSON
// with the file the commit before the telemetry walker wrote. Measured
// times are zeroed first (call counts stay): they are the only part of
// the document that differs from run to run.
func TestGoldenMetricsSnapshot(t *testing.T) {
	snap := fixedWorkload(t).MetricsSnapshot()
	untimed := func(h *obs.HistogramSnapshot) { *h = obs.HistogramSnapshot{Count: h.Count} }
	for _, exts := range [][]obs.ExtSnapshot{snap.SM, snap.Att} {
		for i := range exts {
			for j := range exts[i].Ops {
				untimed(&exts[i].Ops[j].Latency)
			}
		}
	}
	untimed(&snap.Lock.WaitTime)
	raw, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	const path = "testdata/metrics_snapshot.json"
	if *update {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(want) {
		t.Errorf("MetricsSnapshot JSON differs from %s:\n%s", path, raw)
	}
}

// TestDispatchAllocations guards the row path: the begin/end pair every
// vector call goes through must not allocate. The bounds are per call, on
// a memory relation without attachments and with one btree index: an
// insert's lock traffic allocates nothing, its log payloads encode into
// pooled buffers, each record encodes into the store's reused buffer, an
// index entry key is built in one allocation sized up front and a tree
// item is one allocation, so an insert costs 6 and 8 (7 and 12 while the
// entry key grew field by field and the tree copied key and value apart;
// 9 and 14 while an encoding grew its buffer field by field, 15 and 23
// when each lock grant and each payload allocated). The insert bounds
// allow one more, because under the race detector sync.Pool drops a
// random quarter of the buffers put back. A scan's records and
// keys come from slabs, one array per run of rows, so its Next costs 0
// (AllocsPerRun rounds down: under one per row; 2 when each row
// allocated its record and its key).
//
// The heap cases pin a whole commit-durable transaction — Begin, four
// inserts, Commit — without an index and with a btree index: 14 and 23
// (19 and 40 while the heap kept each transaction's pending versions in a
// list, a stash-map entry and a commit closure of its own and subscribing
// grew the transaction's listener slice, on top of the entry-key and tree
// costs above; 20 and 41 while Begin made the savepoint and stash maps, 27
// and 48 while the heap encoded each record into a buffer of its own and
// grew each transaction's version-chain list). Under the race detector
// they read 16–17 and 27, and the bounds allow for that.
func TestDispatchAllocations(t *testing.T) {
	for _, c := range []struct {
		name                string
		indexed             bool
		insert, fetch, next float64
	}{
		{"bare", false, 7, 2, 0},
		{"btree", true, 9, 2, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := core.NewEnv(core.Config{})
			tx := env.Begin()
			rd, err := env.CreateRelation(tx, "a", testSchema(), "memory", nil)
			if err != nil {
				t.Fatal(err)
			}
			if c.indexed {
				if rd, err = env.CreateAttachment(tx, "a", "btree", core.AttrList{"on": "id"}); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			r, err := env.OpenRelation(rd)
			if err != nil {
				t.Fatal(err)
			}
			tx = env.Begin()
			defer tx.Commit()
			const runs = 200
			row := rec(0, "x")
			var key types.Key
			id := int64(0)
			insert := testing.AllocsPerRun(runs, func() {
				id++
				row[0] = types.Int(id)
				if key, err = r.Insert(tx, row); err != nil {
					t.Fatal(err)
				}
			})
			fetch := testing.AllocsPerRun(runs, func() {
				if _, err := r.Fetch(tx, key, nil, nil); err != nil {
					t.Fatal(err)
				}
			})
			sc, err := r.OpenScan(tx, core.ScanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			next := testing.AllocsPerRun(runs, func() { // runs+1 calls, runs+1 rows inserted
				if _, _, ok, err := sc.Next(); !ok || err != nil {
					t.Fatalf("scan ended early: %v", err)
				}
			})
			t.Logf("allocations per call: insert %v, fetch %v, scan next %v", insert, fetch, next)
			if insert > c.insert || fetch > c.fetch || next > c.next {
				t.Errorf("allocations per call: insert %v (bound %v), fetch %v (bound %v), scan next %v (bound %v)",
					insert, c.insert, fetch, c.fetch, next, c.next)
			}
		})
	}
	for _, c := range []struct {
		name    string
		indexed bool
		txn     float64
	}{
		{"heap txn", false, 17},
		{"heap+btree txn", true, 27},
	} {
		t.Run(c.name, func(t *testing.T) {
			env, r := heapEnv(t, nil, 0, c.indexed)
			row := rec(0, "x")
			id := int64(0)
			txn := testing.AllocsPerRun(200, func() {
				tx := env.Begin()
				for range 4 {
					id++
					row[0] = types.Int(id)
					if _, err := r.Insert(tx, row); err != nil {
						t.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("allocations per 4-insert transaction: %v", txn)
			if txn > c.txn {
				t.Errorf("allocations per 4-insert transaction: %v (bound %v)", txn, c.txn)
			}
		})
	}
}

// BenchmarkIndexedHeapTxn times the transaction TestDispatchAllocations
// pins: Begin, four inserts into a logged heap with a btree index, Commit.
func BenchmarkIndexedHeapTxn(b *testing.B) {
	env, r := heapEnv(b, nil, 0, true)
	row := rec(0, "x")
	id := int64(0)
	b.ReportAllocs()
	for b.Loop() {
		tx := env.Begin()
		for range 4 {
			id++
			row[0] = types.Int(id)
			if _, err := r.Insert(tx, row); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
