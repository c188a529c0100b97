package heap_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dmx/internal/core"
	"dmx/internal/txn"
	"dmx/internal/types"
	"dmx/internal/wal"
)

// TestSnapshotWhilePinsEvict: checkpoints of relation a, and snapshots of
// it taken straight through the storage method, run while readers scan
// relation b through a pool a fraction of either's size, so every page a
// snapshot copies is pinned while other pins evict frames around it. Each
// snapshot hands out all of a's rows, each the stored encoding of the row
// inserted, in record-address order.
func TestSnapshotWhilePinsEvict(t *testing.T) {
	const rows, frames, readers, rounds = 1000, 6, 2, 20
	env := core.NewEnv(core.Config{Log: wal.New(), PoolFrames: frames})
	a, b := mkHeap(t, env, "a"), mkHeap(t, env, "b")
	value := func(id int) string { return fmt.Sprintf("%04d-%s", id, strings.Repeat("x", 80)) }
	for _, r := range []*core.Relation{a, b} {
		tx := env.Begin()
		for id := range rows {
			if _, err := r.Insert(tx, rec(int64(id), value(id))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	type pageCounter interface{ PageCount() int }
	if n := a.Storage().(pageCounter).PageCount(); n < 4*frames {
		t.Fatalf("relation a has %d pages: too few to churn a %d-frame pool", n, frames)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				tx := env.Begin()
				n, err := count(tx, b)
				if cerr := tx.Commit(); err == nil {
					err = cerr
				}
				if err == nil && n != rows {
					err = fmt.Errorf("a reader of b scanned %d rows, want %d", n, rows)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	snapshot := env.Reg.StorageOps(a.Desc().SM).Snapshot
	checkpoints := 0
	for round := range rounds {
		id := 0
		err := snapshot(a.Storage(), func(key types.Key, stored []byte) error {
			want := rec(int64(id), value(id)).AppendEncode(nil)
			if string(stored) != string(want) {
				return fmt.Errorf("round %d: row %d at %x is %q, want %q", round, id, key, stored, want)
			}
			id++
			return nil
		})
		if err == nil && id != rows {
			err = fmt.Errorf("round %d: snapshot handed out %d rows, want %d", round, id, rows)
		}
		if err != nil {
			errs <- err
			break
		}
		switch err := env.Checkpoint(); {
		case err == nil:
			checkpoints++
		case !errors.Is(err, core.ErrCheckpointBusy):
			errs <- err
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if checkpoints == 0 {
		t.Fatal("no checkpoint ran beside the readers")
	}
}

// count scans r in tx and returns how many rows it holds.
func count(tx *txn.Txn, r *core.Relation) (int, error) {
	sc, err := r.OpenScan(tx, core.ScanOptions{})
	if err != nil {
		return 0, err
	}
	defer sc.Close()
	for n := 0; ; n++ {
		if _, _, ok, err := sc.Next(); !ok || err != nil {
			return n, err
		}
	}
}
