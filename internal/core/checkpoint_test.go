package core_test

import (
	"fmt"
	"path/filepath"
	"testing"

	_ "dmx/internal/att/btreeix"
	"dmx/internal/core"
	_ "dmx/internal/sm/appendsm"
	_ "dmx/internal/sm/heap"
	_ "dmx/internal/sm/memsm"
	"dmx/internal/wal"
)

// heapEnv returns an engine over log holding a heap relation "h" of n
// rows, with a btree index on id when indexed, and the relation's handle.
func heapEnv(tb testing.TB, log *wal.Log, n int, indexed bool) (*core.Env, *core.Relation) {
	return loadedEnv(tb, log, "heap", nil, n, indexed)
}

// loadedEnv is heapEnv for a relation "h" of storage method sm, created
// with attrs.
func loadedEnv(tb testing.TB, log *wal.Log, sm string, attrs core.AttrList, n int, indexed bool) (*core.Env, *core.Relation) {
	tb.Helper()
	env := core.NewEnv(core.Config{Log: log, PoolFrames: 1024})
	tx := env.Begin()
	rd, err := env.CreateRelation(tx, "h", testSchema(), sm, attrs)
	if err != nil {
		tb.Fatal(err)
	}
	if indexed {
		if rd, err = env.CreateAttachment(tx, "h", "btree", core.AttrList{"on": "id"}); err != nil {
			tb.Fatal(err)
		}
	}
	r, err := env.OpenRelation(rd)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range n {
		if _, err := r.Insert(tx, rec(int64(i), fmt.Sprintf("row-%06d", i))); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	return env, r
}

// TestCheckpointAllocations pins what a truncating checkpoint allocates
// per snapshotted record. The storage method hands out each record's
// stored bytes, copied a page (heap) or a run (memory, append) at a time
// into a buffer its snapshot reuses, and every snapshot record is built
// around them in one reused buffer, which the log copies into its window:
// no record is decoded, so what is left is per checkpoint and per
// relation, not per row (about 40 for each 2000-row relation, 0.02 per
// row).
func TestCheckpointAllocations(t *testing.T) {
	const rows = 2000
	for _, c := range []struct {
		sm    string
		attrs core.AttrList
	}{
		{"heap", nil},
		{"memory", nil},
		// A small memtable: the snapshot merges it with several runs.
		{"append", core.AttrList{"memtable": "8192", "compact": "sync"}},
	} {
		t.Run(c.sm, func(t *testing.T) {
			env, r := loadedEnv(t, nil, c.sm, c.attrs, rows, true)
			if rc, ok := r.Storage().(interface{ RunCount() int }); ok && rc.RunCount() < 2 {
				t.Fatalf("%d runs: the snapshot merges nothing", rc.RunCount())
			}
			allocs := testing.AllocsPerRun(5, func() {
				if err := env.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%.0f allocations, %.4f per snapshotted row", allocs, allocs/rows)
			if per := allocs / rows; per > 0.05 {
				t.Errorf("checkpoint allocates %.0f times, %.3f per snapshotted row (bound 0.05)", allocs, per)
			}
		})
	}
}

// BenchmarkCheckpoint times a truncating checkpoint of a 20 000-row heap
// with a btree index on a file-backed log: the snapshot, its one write
// into the rewritten log file, the syncs and the rename.
func BenchmarkCheckpoint(b *testing.B) {
	log, err := wal.Open(filepath.Join(b.TempDir(), "wal.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	env, _ := heapEnv(b, log, 20000, true)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := env.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}
