package core_test

import (
	"fmt"
	"path/filepath"
	"testing"

	_ "dmx/internal/att/btreeix"
	"dmx/internal/core"
	_ "dmx/internal/sm/heap"
	"dmx/internal/wal"
)

// heapEnv returns an engine over log holding a heap relation "h" of n
// rows, with a btree index on id when indexed, and the relation's handle.
func heapEnv(tb testing.TB, log *wal.Log, n int, indexed bool) (*core.Env, *core.Relation) {
	tb.Helper()
	env := core.NewEnv(core.Config{Log: log, PoolFrames: 1024})
	tx := env.Begin()
	rd, err := env.CreateRelation(tx, "h", testSchema(), "heap", nil)
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
// per snapshotted heap record. Every snapshot record is encoded into one
// reused buffer, which the log copies into its window, and the scan
// decodes records in runs; what is left is about one allocation per
// record, its decoded string field (1.047 measured; 5.05 when each
// record encoded into a buffer of its own).
func TestCheckpointAllocations(t *testing.T) {
	const rows = 2000
	env, _ := heapEnv(t, nil, rows, true)
	allocs := testing.AllocsPerRun(5, func() {
		if err := env.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / rows; per > 1.06 {
		t.Errorf("checkpoint allocates %.0f times, %.3f per snapshotted row (bound 1.06)", allocs, per)
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
