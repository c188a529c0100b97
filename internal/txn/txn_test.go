package txn

import (
	"errors"
	"fmt"
	"testing"

	"dmx/internal/lock"
	"dmx/internal/wal"
)

// scriptUndoer records undo dispatches.
type scriptUndoer struct {
	undone []string
	fail   bool
}

func (u *scriptUndoer) Undo(t wal.TxnID, o wal.Owner, p []byte) error {
	if u.fail {
		return fmt.Errorf("undo failure injected")
	}
	u.undone = append(u.undone, string(p))
	return nil
}

func newEnv() (*Manager, *scriptUndoer) {
	u := &scriptUndoer{}
	m := NewManager(wal.New(), lock.NewManager())
	m.Undoer = u
	return m, u
}

func TestBeginCommitLifecycle(t *testing.T) {
	m, _ := newEnv()
	tx := m.Begin()
	if tx.ID() != 1 || tx.State() != StateActive {
		t.Fatalf("fresh txn: id=%d state=%v", tx.ID(), tx.State())
	}
	if m.ActiveCount() != 1 {
		t.Fatal("ActiveCount")
	}
	if _, err := tx.AppendLog(wal.Owner{Class: wal.OwnerStorage, ExtID: 1}, []byte("w")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.State() != StateCommitted || m.ActiveCount() != 0 {
		t.Fatal("commit state")
	}
	// Commit record then end record must be in the log.
	recs := m.Log.Records()
	kinds := []wal.RecKind{}
	for _, r := range recs {
		kinds = append(kinds, r.Kind)
	}
	want := []wal.RecKind{wal.RecUpdate, wal.RecCommit, wal.RecEnd}
	if len(kinds) != 3 || kinds[0] != want[0] || kinds[1] != want[1] || kinds[2] != want[2] {
		t.Fatalf("log kinds = %v", kinds)
	}
	// Double-commit fails.
	if err := tx.Commit(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("double commit: %v", err)
	}
}

func TestAbortUndoesInReverse(t *testing.T) {
	m, u := newEnv()
	tx := m.Begin()
	tx.AppendLog(wal.Owner{}, []byte("a"))
	tx.AppendLog(wal.Owner{}, []byte("b"))
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if len(u.undone) != 2 || u.undone[0] != "b" || u.undone[1] != "a" {
		t.Fatalf("undone = %v", u.undone)
	}
	if tx.State() != StateAborted || m.ActiveCount() != 0 {
		t.Fatal("abort state")
	}
}

func TestSavepointPartialRollback(t *testing.T) {
	m, u := newEnv()
	tx := m.Begin()
	tx.AppendLog(wal.Owner{}, []byte("before"))
	if _, err := tx.Savepoint("sp"); err != nil {
		t.Fatal(err)
	}
	tx.AppendLog(wal.Owner{}, []byte("after1"))
	tx.AppendLog(wal.Owner{}, []byte("after2"))
	if err := tx.RollbackTo("sp"); err != nil {
		t.Fatal(err)
	}
	if len(u.undone) != 2 || u.undone[0] != "after2" || u.undone[1] != "after1" {
		t.Fatalf("undone = %v", u.undone)
	}
	// Savepoint remains valid; rolling back again undoes nothing new.
	if err := tx.RollbackTo("sp"); err != nil {
		t.Fatal(err)
	}
	if len(u.undone) != 2 {
		t.Fatalf("idempotent rollback broken: %v", u.undone)
	}
	// Work after rollback is undone by a further rollback.
	tx.AppendLog(wal.Owner{}, []byte("again"))
	if err := tx.RollbackTo("sp"); err != nil {
		t.Fatal(err)
	}
	if u.undone[len(u.undone)-1] != "again" {
		t.Fatalf("undone = %v", u.undone)
	}
	if err := tx.RollbackTo("nope"); !errors.Is(err, ErrUnknownSavepoint) {
		t.Fatalf("unknown savepoint: %v", err)
	}
	tx.Commit()
}

func TestNestedSavepointsInvalidatedByRollback(t *testing.T) {
	m, _ := newEnv()
	tx := m.Begin()
	tx.Savepoint("outer")
	tx.AppendLog(wal.Owner{}, []byte("x"))
	tx.Savepoint("inner")
	if err := tx.RollbackTo("outer"); err != nil {
		t.Fatal(err)
	}
	if err := tx.RollbackTo("inner"); !errors.Is(err, ErrUnknownSavepoint) {
		t.Fatalf("inner should be invalidated: %v", err)
	}
	tx.Commit()
}

func TestDeferredActionsRunAtEvents(t *testing.T) {
	m, _ := newEnv()
	tx := m.Begin()
	var order []string
	tx.Defer(EventBeforePrepare, func(*Txn, string) error { order = append(order, "bp1"); return nil })
	tx.Defer(EventBeforePrepare, func(*Txn, string) error { order = append(order, "bp2"); return nil })
	tx.Defer(EventCommit, func(*Txn, string) error { order = append(order, "commit"); return nil })
	tx.Defer(EventEnd, func(*Txn, string) error { order = append(order, "end"); return nil })
	tx.Defer(EventAbort, func(*Txn, string) error { order = append(order, "abort"); return nil })
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := []string{"bp1", "bp2", "commit", "end"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestBeforePrepareVetoAborts(t *testing.T) {
	m, u := newEnv()
	tx := m.Begin()
	tx.AppendLog(wal.Owner{}, []byte("work"))
	veto := errors.New("deferred constraint violated")
	tx.Defer(EventBeforePrepare, func(*Txn, string) error { return veto })
	abortFired := false
	tx.Defer(EventAbort, func(*Txn, string) error { abortFired = true; return nil })
	err := tx.Commit()
	if !errors.Is(err, veto) {
		t.Fatalf("Commit = %v, want veto", err)
	}
	if tx.State() != StateAborted {
		t.Fatalf("state = %v", tx.State())
	}
	if !abortFired {
		t.Fatal("abort actions should fire")
	}
	if len(u.undone) != 1 || u.undone[0] != "work" {
		t.Fatalf("work not undone: %v", u.undone)
	}
}

// TestTerminationEventsRunEveryAction: at EventCommit, EventAbort and
// EventEnd a failing action does not keep the later ones from running,
// and the termination reports every failure; a before-prepare veto still
// stops at the first.
func TestTerminationEventsRunEveryAction(t *testing.T) {
	for _, commit := range []bool{true, false} {
		m, _ := newEnv()
		tx := m.Begin()
		var ran []string
		action := func(name string, err error) Action {
			return func(*Txn, string) error { ran = append(ran, name); return err }
		}
		first, second := errors.New("first failed"), errors.New("second failed")
		term := EventAbort
		if commit {
			term = EventCommit
		}
		tx.Defer(term, action("term1", first))
		tx.Defer(term, action("term2", nil))
		tx.Defer(EventEnd, action("end1", second))
		tx.Subscribe(EventEnd, action("end2", nil))
		end := tx.Abort
		if commit {
			end = tx.Commit
		}
		if err := end(); !errors.Is(err, first) {
			t.Errorf("commit=%v: the termination returned %v, want %v", commit, err, first)
		}
		if want := "[term1 term2 end1 end2]"; fmt.Sprint(ran) != want {
			t.Errorf("commit=%v: ran %v, want %s", commit, ran, want)
		}
		if m.ActiveCount() != 0 {
			t.Errorf("commit=%v: the transaction is still active", commit)
		}
	}

	m, _ := newEnv()
	tx := m.Begin()
	vetoes := 0
	for range 2 {
		tx.Defer(EventBeforePrepare, func(*Txn, string) error { vetoes++; return errors.New("veto") })
	}
	if err := tx.Commit(); err == nil || vetoes != 1 {
		t.Fatalf("Commit = %v after %d vetoes, want one veto", err, vetoes)
	}
}

func TestSubscribersFireRepeatedly(t *testing.T) {
	m, _ := newEnv()
	tx := m.Begin()
	saves, restores := 0, 0
	tx.Subscribe(EventSavepoint, func(_ *Txn, name string) error {
		if name == "" {
			t.Error("savepoint name missing")
		}
		saves++
		return nil
	})
	tx.Subscribe(EventPartialRollback, func(*Txn, string) error { restores++; return nil })
	tx.Savepoint("a")
	tx.Savepoint("b")
	tx.RollbackTo("a")
	tx.RollbackTo("a")
	if saves != 2 || restores != 2 {
		t.Fatalf("saves=%d restores=%d", saves, restores)
	}
	tx.Commit()
}

func TestDeferOneShotVsSubscribe(t *testing.T) {
	m, _ := newEnv()
	tx := m.Begin()
	oneShot, persistent := 0, 0
	tx.Defer(EventSavepoint, func(*Txn, string) error { oneShot++; return nil })
	tx.Subscribe(EventSavepoint, func(*Txn, string) error { persistent++; return nil })
	tx.Savepoint("a")
	tx.Savepoint("b")
	if oneShot != 1 || persistent != 2 {
		t.Fatalf("oneShot=%d persistent=%d", oneShot, persistent)
	}
	tx.Commit()
}

func TestLocksReleasedAtEnd(t *testing.T) {
	m, _ := newEnv()
	tx := m.Begin()
	res := lock.RelResource(1)
	if err := tx.Lock(res, lock.ModeX); err != nil {
		t.Fatal(err)
	}
	if m.Locks.HeldCount(tx.ID()) != 1 {
		t.Fatal("lock not held")
	}
	tx.Commit()
	if m.Locks.HeldCount(tx.ID()) != 0 {
		t.Fatal("locks not released at commit")
	}

	tx2 := m.Begin()
	tx2.Lock(res, lock.ModeX)
	tx2.Abort()
	if m.Locks.HeldCount(tx2.ID()) != 0 {
		t.Fatal("locks not released at abort")
	}
}

func TestStashSharedAcrossCalls(t *testing.T) {
	m, _ := newEnv()
	tx := m.Begin()
	tx.Stash()["refint.pending"] = 42
	if tx.Stash()["refint.pending"] != 42 {
		t.Fatal("stash lost")
	}
	tx.Commit()
}

func TestOperationsAfterEndFail(t *testing.T) {
	m, _ := newEnv()
	tx := m.Begin()
	tx.Commit()
	if err := tx.Lock(lock.RelResource(1), lock.ModeS); !errors.Is(err, ErrNotActive) {
		t.Error("Lock after end")
	}
	if _, err := tx.AppendLog(wal.Owner{}, nil); !errors.Is(err, ErrNotActive) {
		t.Error("AppendLog after end")
	}
	if _, err := tx.Savepoint("x"); !errors.Is(err, ErrNotActive) {
		t.Error("Savepoint after end")
	}
	if err := tx.RollbackTo("x"); !errors.Is(err, ErrNotActive) {
		t.Error("RollbackTo after end")
	}
	if err := tx.Defer(EventCommit, nil); !errors.Is(err, ErrNotActive) {
		t.Error("Defer after end")
	}
	if err := tx.Subscribe(EventCommit, nil); !errors.Is(err, ErrNotActive) {
		t.Error("Subscribe after end")
	}
	if err := tx.Abort(); !errors.Is(err, ErrNotActive) {
		t.Error("Abort after commit")
	}
}

func TestDeferredActionCanAppendDuringPrepare(t *testing.T) {
	// Deferred constraints may need to lock and log during before-prepare.
	m, _ := newEnv()
	tx := m.Begin()
	tx.Defer(EventBeforePrepare, func(tx *Txn, _ string) error {
		if err := tx.Lock(lock.RelResource(9), lock.ModeS); err != nil {
			return err
		}
		_, err := tx.AppendLog(wal.Owner{}, []byte("late"))
		return err
	})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestIDsMonotonic(t *testing.T) {
	m, _ := newEnv()
	a, b := m.Begin(), m.Begin()
	if b.ID() <= a.ID() {
		t.Fatal("IDs not monotonic")
	}
	a.Commit()
	b.Commit()
}

func TestStateAndEventStrings(t *testing.T) {
	for _, s := range []State{StateActive, StatePreparing, StateCommitted, StateAborted, State(9)} {
		if s.String() == "" {
			t.Error("state string")
		}
	}
	for e := Event(0); e < numEvents; e++ {
		if e.String() == "" {
			t.Error("event string")
		}
	}
	if Event(200).String() == "" {
		t.Error("unknown event string")
	}
}

func TestManagerAccessors(t *testing.T) {
	m, _ := newEnv()
	tx := m.Begin()
	if tx.Manager() != m || tx.Log() != m.Log {
		t.Fatal("accessors")
	}
	tx.Commit()
}
