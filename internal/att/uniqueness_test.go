package att_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dmx/internal/att/btreeix"
	"dmx/internal/att/unique"
	"dmx/internal/core"
	"dmx/internal/txn"
)

// The two ways to declare a column unique; both rest on the kit's one
// uniqueness rule.
var uniqueTypes = []struct {
	name      string
	attrs     core.AttrList
	violation error
}{
	{"unique", core.AttrList{"name": "u", "on": "tag"}, unique.ErrViolation},
	{"btree", core.AttrList{"name": "u", "on": "tag", "unique": "true"}, btreeix.ErrUniqueViolation},
}

// tagged counts t's records carrying tag.
func (f *fixture) tagged(tag string) int {
	n := 0
	for _, s := range f.contents("t") {
		if s.rec[colTag].S == tag {
			n++
		}
	}
	return n
}

// TestUniqueUnderConcurrentInserters: of several transactions inserting one
// value at the same moment exactly one commits; the others wait for it and
// are then vetoed. Testing for the value and installing it used to be two
// separate critical sections with nothing held on the value in between.
func TestUniqueUnderConcurrentInserters(t *testing.T) {
	const rounds, inserters = 3000, 4
	for _, ut := range uniqueTypes {
		t.Run(ut.name, func(t *testing.T) {
			f := newFixture(t, nil, "memory", nil)
			f.create(ut.name, ut.attrs)
			r := f.rel()
			for round := 0; round < rounds; round++ {
				tag := fmt.Sprintf("v%d", round)
				start := make(chan struct{})
				var wg sync.WaitGroup
				var mu sync.Mutex
				committed := 0
				for i := 0; i < inserters; i++ {
					w := row{id: int64(round*inserters + i), grp: "a", tag: tag}
					wg.Add(1)
					go func() {
						defer wg.Done()
						tx := f.env.Begin()
						<-start
						_, err := r.Insert(tx, w.record())
						if err != nil {
							if !errors.Is(err, ut.violation) {
								t.Errorf("round %d: insert failed with %v, want a uniqueness veto", round, err)
							}
							tx.Abort()
							return
						}
						if err := tx.Commit(); err != nil {
							t.Errorf("round %d: commit: %v", round, err)
							return
						}
						mu.Lock()
						committed++
						mu.Unlock()
					}()
				}
				close(start)
				wg.Wait()
				if committed != 1 {
					t.Fatalf("round %d: %d of %d inserters of one value committed", round, committed, inserters)
				}
			}
			if n := len(f.contents("t")); n != rounds {
				t.Fatalf("%d records after %d rounds of one value each", n, rounds)
			}
		})
	}
}

// TestUniqueWaitsForTheFirstWriter: while a transaction's delete or insert
// of a value is uncommitted, a second writer of that value waits, and is
// then vetoed or let through according to how the first one ended.
func TestUniqueWaitsForTheFirstWriter(t *testing.T) {
	for _, ut := range uniqueTypes {
		for _, sc := range []struct {
			name                       string
			firstDeletes, firstCommits bool
			secondVetoed               bool
		}{
			{"delete-then-abort", true, false, true},
			{"delete-then-commit", true, true, false},
			{"insert-then-commit", false, true, true},
			{"insert-then-abort", false, false, false},
		} {
			t.Run(ut.name+"/"+sc.name, func(t *testing.T) {
				f := newFixture(t, nil, "memory", nil)
				f.create(ut.name, ut.attrs)
				r := f.rel()
				var first *txn.Txn
				if sc.firstDeletes {
					f.insert(row{id: 1, grp: "a", tag: "v"})
					key := f.contents("t")[0].key
					first = f.env.Begin()
					f.must(r.Delete(first, key))
				} else {
					first = f.env.Begin()
					_, err := r.Insert(first, row{id: 2, grp: "a", tag: "v"}.record())
					f.must(err)
				}
				second := f.env.Begin()
				done := make(chan error, 1)
				go func() {
					_, err := r.Insert(second, row{id: 3, grp: "a", tag: "v"}.record())
					if err == nil {
						err = second.Commit()
					} else {
						second.Abort()
					}
					done <- err
				}()
				waitUntilBlocked(t, f.env, second, first, done)
				if sc.firstCommits {
					f.must(first.Commit())
				} else {
					f.must(first.Abort())
				}
				err := <-done
				if sc.secondVetoed && !errors.Is(err, ut.violation) {
					t.Fatalf("second writer: %v, want a uniqueness veto", err)
				}
				if !sc.secondVetoed && err != nil {
					t.Fatalf("second writer: %v, want success", err)
				}
				if n := f.tagged("v"); n != 1 {
					t.Fatalf("%d records carry the value, want 1", n)
				}
			})
		}
	}
}

// waitUntilBlocked returns once waiter is queued behind a lock holder
// holds; it fails the test if waiter's work finishes instead.
func waitUntilBlocked(t *testing.T, env *core.Env, waiter, holder *txn.Txn, done <-chan error) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-done:
			t.Fatalf("the second writer did not wait for the first (it ended with: %v)", err)
		default:
		}
		_, waiting := env.Locks.SnapshotLocks()
		for _, w := range waiting {
			if w.Txn == waiter.ID() && len(w.Blockers) == 1 && w.Blockers[0] == holder.ID() {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("the second writer neither finished nor blocked")
}
