package core_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/lock"
	_ "dmx/internal/sm/memsm"
	"dmx/internal/types"
)

// TestConcurrentTransactionsOnIndexedRelation drives parallel writers and
// readers through the full stack — relation modification, two-step
// attachment notification, logging, key locks — and checks the final
// state is exactly the committed work.
func TestConcurrentTransactionsOnIndexedRelation(t *testing.T) {
	env := core.NewEnv(core.Config{})
	mkRel(t, env, "t", "memory", "trace", "veto")
	rel, _ := env.OpenRelationByName("t")

	const (
		workers    = 8
		perWorker  = 50
		abortEvery = 5 // every 5th txn aborts
	)
	var committed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := env.Begin()
				id := int64(w*perWorker + i)
				if _, err := rel.Insert(tx, rec(id, "x")); err != nil {
					t.Errorf("insert %d: %v", id, err)
					tx.Abort()
					return
				}
				if i%abortEvery == 0 {
					if err := tx.Abort(); err != nil {
						t.Errorf("abort: %v", err)
					}
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				committed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	want := int(committed.Load())
	if got := rel.Storage().RecordCount(); got != want {
		t.Fatalf("final count = %d, want %d", got, want)
	}
	// The trace attachment's logged counter agrees with the storage.
	if got := traceOf(env, rel.Desc().RelID).count; got != want {
		t.Fatalf("attachment count = %d, want %d", got, want)
	}
	// And nothing holds locks anymore.
	if env.Txns.ActiveCount() != 0 {
		t.Fatal("transactions leaked")
	}
}

// TestAttachmentOpenIsSingleFlight checks that concurrent first uses of an
// attachment type on one relation run its Open exactly once: an Open that
// populates state from the relation must never run twice with one result
// thrown away.
func TestAttachmentOpenIsSingleFlight(t *testing.T) {
	env := core.NewEnv(core.Config{})
	rd := mkRel(t, env, "t", "memory", "veto")
	before := vetoOpens.Load()
	const callers = 8
	var ready, done sync.WaitGroup
	ready.Add(callers)
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			ready.Done()
			ready.Wait()
			if _, err := env.AttachmentInstance(rd, attVeto); err != nil {
				t.Error(err)
			}
		}()
	}
	done.Wait()
	if got := vetoOpens.Load() - before; got != 1 {
		t.Fatalf("attachment opened %d times, want 1", got)
	}
}

// TestWriteConflictSerialises checks that two transactions updating the
// same record serialise through the key lock (the second waits for the
// first to finish).
func TestWriteConflictSerialises(t *testing.T) {
	env := core.NewEnv(core.Config{})
	mkRel(t, env, "t", "memory")
	rel, _ := env.OpenRelationByName("t")
	load := env.Begin()
	key, _ := rel.Insert(load, rec(1, "v0"))
	load.Commit()

	tx1 := env.Begin()
	if _, err := rel.Update(tx1, key, rec(1, "from-tx1")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		tx2 := env.Begin()
		if _, err := rel.Update(tx2, key, rec(1, "from-tx2")); err != nil {
			done <- err
			tx2.Abort()
			return
		}
		done <- tx2.Commit()
	}()
	// tx2 must be blocked on the key lock; finish tx1 to release it.
	select {
	case err := <-done:
		t.Fatalf("tx2 finished while tx1 held the lock: %v", err)
	default:
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	check := env.Begin()
	got, _ := rel.Fetch(check, key, nil, nil)
	if got[1].S != "from-tx2" {
		t.Fatalf("final value = %v", got)
	}
	check.Commit()
}

// TestDeadlockVictimThroughRelations induces an AB-BA deadlock through
// record updates and checks one transaction is chosen as victim.
func TestDeadlockVictimThroughRelations(t *testing.T) {
	env := core.NewEnv(core.Config{})
	mkRel(t, env, "t", "memory")
	rel, _ := env.OpenRelationByName("t")
	load := env.Begin()
	ka, _ := rel.Insert(load, rec(1, "a"))
	kb, _ := rel.Insert(load, rec(2, "b"))
	load.Commit()

	tx1 := env.Begin()
	tx2 := env.Begin()
	if _, err := rel.Update(tx1, ka, rec(1, "a1")); err != nil {
		t.Fatal(err)
	}
	if _, err := rel.Update(tx2, kb, rec(2, "b2")); err != nil {
		t.Fatal(err)
	}
	// Close the cycle from both sides; whichever transaction's wait would
	// complete it is chosen as victim (a scheduling race, so accept either).
	got1 := make(chan error, 1)
	got2 := make(chan error, 1)
	go func() {
		_, err := rel.Update(tx1, kb, rec(2, "b1"))
		got1 <- err
	}()
	go func() {
		_, err := rel.Update(tx2, ka, rec(1, "a2"))
		got2 <- err
	}()
	var victimErr error
	var victim, survivorCh = tx1, got2
	select {
	case victimErr = <-got1:
		victim, survivorCh = tx1, got2
	case victimErr = <-got2:
		victim, survivorCh = tx2, got1
	}
	if !errors.Is(victimErr, lock.ErrDeadlock) {
		t.Fatalf("first finisher should be the deadlock victim, got %v", victimErr)
	}
	if err := victim.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := <-survivorCh; err != nil {
		t.Fatalf("survivor failed: %v", err)
	}
	survivor := tx1
	if victim == tx1 {
		survivor = tx2
	}
	if err := survivor.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentScansAndWrites runs readers scanning with filters while
// writers insert, under the relation-level S/IX locks.
func TestConcurrentScansAndWrites(t *testing.T) {
	env := core.NewEnv(core.Config{})
	mkRel(t, env, "t", "memory")
	rel, _ := env.OpenRelationByName("t")
	load := env.Begin()
	for i := 0; i < 100; i++ {
		rel.Insert(load, rec(int64(i), "seed"))
	}
	load.Commit()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if w%2 == 0 {
					tx := env.Begin()
					scan, err := rel.OpenScan(tx, core.ScanOptions{
						Filter: expr.Lt(expr.Field(0), expr.Const(types.Int(50))),
					})
					if err != nil {
						t.Error(err)
						tx.Abort()
						return
					}
					n := 0
					for {
						_, _, ok, err := scan.Next()
						if err != nil {
							t.Error(err)
							break
						}
						if !ok {
							break
						}
						n++
					}
					if n < 50 {
						t.Errorf("scan saw %d < 50 seed rows", n)
					}
					tx.Commit()
				} else {
					tx := env.Begin()
					if _, err := rel.Insert(tx, rec(int64(1000+w*100+i), "w")); err != nil {
						t.Error(err)
					}
					tx.Commit()
				}
			}
		}(w)
	}
	wg.Wait()
}
