package heap_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"dmx/internal/core"
	"dmx/internal/fault"
	"dmx/internal/txn"
	"dmx/internal/types"
	"dmx/internal/wal"
)

// pending reads the heap store's pending-version bookkeeping: how many
// transactions have a list, and how many entries the lists hold.
func pending(t *testing.T, r *core.Relation) (lists, entries int) {
	t.Helper()
	pv, ok := r.Storage().(interface{ PendingVersions() (int, int) })
	if !ok {
		t.Fatal("heap store does not expose PendingVersions")
	}
	return pv.PendingVersions()
}

// snapshotIDs returns the ids a snapshot begun now sees, in order.
func snapshotIDs(t testing.TB, env *core.Env, r *core.Relation) []int64 {
	t.Helper()
	ro := env.BeginReadOnly()
	defer ro.Commit()
	return scanIDs(t, ro, r)
}

// scanIDs returns the ids tx sees, in order.
func scanIDs(t testing.TB, tx *txn.Txn, r *core.Relation) []int64 {
	t.Helper()
	sc, err := r.OpenScan(tx, core.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var ids []int64
	for {
		_, rec, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		ids = append(ids, rec[0].I)
	}
	slices.Sort(ids)
	return ids
}

// TestPendingVersionsEndWithTheirTransaction: a writer's unstamped
// version-chain entries are kept per transaction until it ends, and
// whichever way it ends — commit, abort, a rollback to a savepoint then a
// commit, a commit the log refuses — the store holds no pending list
// afterwards and a snapshot begun afterwards sees exactly the committed
// rows. A committing writer's rows are stamped before its stamp is
// published: a snapshot begun as EventCommit fires reads the same rows
// before and after the commit, and one begun at EventEnd, which fires
// after publication, already sees them.
func TestPendingVersionsEndWithTheirTransaction(t *testing.T) {
	log := wal.New()
	faults := fault.New()
	log.SetFaults(faults)
	env := core.NewEnv(core.Config{Log: log})
	r := mkHeap(t, env, "t")
	var committed []int64

	// begin starts a writer whose listeners check the snapshots begun at
	// its commit and at its end (want() is what the latter sees). They
	// subscribe before the first write, so they run ahead of the store's
	// own actions.
	var atCommit *txn.Txn
	var atCommitIDs []int64
	begin := func(name string, want func() []int64) *txn.Txn {
		tx := env.Begin()
		if err := tx.Subscribe(txn.EventCommit, func(*txn.Txn, string) error {
			atCommit = env.BeginReadOnly()
			atCommitIDs = scanIDs(t, atCommit, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Subscribe(txn.EventEnd, func(*txn.Txn, string) error {
			if atCommit != nil {
				if got := scanIDs(t, atCommit, r); !slices.Equal(got, atCommitIDs) {
					t.Errorf("%s: a snapshot begun at the writer's commit read %v, then %v", name, atCommitIDs, got)
				}
				atCommit.Commit()
				atCommit = nil
			}
			if got, w := snapshotIDs(t, env, r), want(); !slices.Equal(got, w) {
				t.Errorf("%s: a snapshot begun at the writer's end sees %v, want %v", name, got, w)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	insert := func(tx *txn.Txn, id int64) types.Key {
		t.Helper()
		k, err := r.Insert(tx, rec(id, fmt.Sprintf("row-%d", id)))
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	settled := func(name string) {
		t.Helper()
		if lists, entries := pending(t, r); lists != 0 || entries != 0 {
			t.Errorf("%s: %d pending lists with %d entries remain", name, lists, entries)
		}
		if got := snapshotIDs(t, env, r); !slices.Equal(got, committed) {
			t.Errorf("%s: a later snapshot sees %v, want %v", name, got, committed)
		}
	}

	// Commit.
	tx := begin("commit", func() []int64 { return []int64{1, 2, 3} })
	for id := int64(1); id <= 3; id++ {
		insert(tx, id)
	}
	if lists, entries := pending(t, r); lists != 1 || entries != 3 {
		t.Fatalf("before commit: %d lists, %d entries; want 1, 3", lists, entries)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	committed = []int64{1, 2, 3}
	settled("commit")

	// Abort.
	tx = begin("abort", func() []int64 { return committed })
	k1 := insert(tx, 10)
	insert(tx, 11)
	if _, err := r.Update(tx, k1, rec(10, "row-10'")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	settled("abort")

	// A rollback to a savepoint pops the entries written after it, then
	// the commit stamps the rest.
	tx = begin("savepoint", func() []int64 { return []int64{1, 2, 3, 20} })
	k20 := insert(tx, 20)
	if _, err := tx.Savepoint("s"); err != nil {
		t.Fatal(err)
	}
	insert(tx, 21)
	if _, err := r.Update(tx, k20, rec(20, "row-20'")); err != nil {
		t.Fatal(err)
	}
	if err := tx.RollbackTo("s"); err != nil {
		t.Fatal(err)
	}
	if lists, entries := pending(t, r); lists != 1 || entries != 1 {
		t.Errorf("after the rollback to the savepoint: %d lists, %d entries; want 1, 1", lists, entries)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	committed = []int64{1, 2, 3, 20}
	settled("savepoint")

	// A commit the log refuses: its fate is left to restart recovery, and
	// locally its rows stay invisible.
	tx = begin("failed commit", func() []int64 { return committed })
	insert(tx, 30)
	insert(tx, 31)
	faults.Arm(fault.SiteWALAppend, 1)
	if err := tx.Commit(); err == nil {
		t.Fatal("a commit on a dead log succeeded")
	}
	settled("failed commit")
}

// TestPendingVersionsConcurrentWriters: two writers commit, abort and roll
// back to savepoints against one heap while a reader takes snapshots. A
// snapshot reads the same rows each time it scans, holds every or none of
// a transaction's rows and never an aborted or rolled-back row; at the
// end no pending list remains and a snapshot sees exactly the committed
// rows.
func TestPendingVersionsConcurrentWriters(t *testing.T) {
	const writers, txns, rowsPerTxn = 2, 150, 3
	env := core.NewEnv(core.Config{Log: wal.New()})
	r := mkHeap(t, env, "t")

	// Writer w's transaction i inserts ids base..base+rowsPerTxn-1, and on
	// savepoint rounds one more row it rolls back.
	id := func(w, i, j int) int64 { return int64((w*txns+i)*(rowsPerTxn+1) + j) }
	var mu sync.Mutex
	var committed []int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range txns {
				tx := env.Begin()
				var keys []types.Key
				for j := range rowsPerTxn {
					k, err := r.Insert(tx, rec(id(w, i, j), "v"))
					if err != nil {
						errs <- err
						tx.Abort()
						return
					}
					keys = append(keys, k)
				}
				switch i % 3 {
				case 0: // commit
				case 1:
					if err := tx.Abort(); err != nil {
						errs <- err
						return
					}
					continue
				case 2: // a write rolled back to a savepoint, then commit
					if _, err := tx.Savepoint("s"); err != nil {
						errs <- err
						return
					}
					if _, err := r.Insert(tx, rec(id(w, i, rowsPerTxn), "gone")); err != nil {
						errs <- err
						return
					}
					if _, err := r.Update(tx, keys[0], rec(id(w, i, 0), "gone")); err != nil {
						errs <- err
						return
					}
					if err := tx.RollbackTo("s"); err != nil {
						errs <- err
						return
					}
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
				mu.Lock()
				for j := range rowsPerTxn {
					committed = append(committed, id(w, i, j))
				}
				mu.Unlock()
			}
		}()
	}
	var reader sync.WaitGroup
	reader.Add(1)
	go func() { // until the writers are done
		defer reader.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			ro := env.BeginReadOnly()
			var scans [2][]types.Record
			for n := range scans {
				sc, err := r.OpenScan(ro, core.ScanOptions{})
				if err != nil {
					errs <- err
					return
				}
				for {
					_, rec, ok, err := sc.Next()
					if err != nil {
						errs <- err
						return
					}
					if !ok {
						break
					}
					scans[n] = append(scans[n], rec)
				}
				sc.Close()
			}
			ro.Commit()
			if !slices.EqualFunc(scans[0], scans[1], func(a, b types.Record) bool { return a[0].I == b[0].I && a[1].S == b[1].S }) {
				errs <- fmt.Errorf("one snapshot scanned %d rows, then %d", len(scans[0]), len(scans[1]))
				return
			}
			perTxn := map[int64]int{}
			for _, rec := range scans[0] {
				if rec[1].S != "v" {
					errs <- fmt.Errorf("a snapshot sees rolled-back row %v", rec)
					return
				}
				txnOf := rec[0].I / (rowsPerTxn + 1)
				if int(txnOf%txns)%3 == 1 {
					errs <- fmt.Errorf("a snapshot sees aborted row %v", rec)
					return
				}
				perTxn[txnOf]++
			}
			for txnOf, n := range perTxn {
				if n != rowsPerTxn {
					errs <- fmt.Errorf("a snapshot sees %d of transaction %d's %d rows", n, txnOf, rowsPerTxn)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(done)
	reader.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if lists, entries := pending(t, r); lists != 0 || entries != 0 {
		t.Errorf("%d pending lists with %d entries remain", lists, entries)
	}
	slices.Sort(committed)
	if got := snapshotIDs(t, env, r); !slices.Equal(got, committed) {
		t.Errorf("a final snapshot sees %d rows, want the %d committed", len(got), len(committed))
	}
}
