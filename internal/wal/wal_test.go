package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dmx/internal/obs"
)

// recordingDispatcher collects undo/redo dispatches for assertions.
type recordingDispatcher struct {
	mu     sync.Mutex
	undos  []string
	redos  []string
	failOn string
}

func (d *recordingDispatcher) Undo(txn TxnID, o Owner, p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := fmt.Sprintf("t%d:%s", txn, p)
	if d.failOn == string(p) {
		return fmt.Errorf("boom on %s", p)
	}
	d.undos = append(d.undos, s)
	return nil
}

func (d *recordingDispatcher) Redo(txn TxnID, o Owner, p []byte, compensation bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	tag := ""
	if compensation {
		tag = "~"
	}
	d.redos = append(d.redos, fmt.Sprintf("%st%d:%s", tag, txn, p))
	return nil
}

func mustAppend(t *testing.T, l *Log, txn TxnID, kind RecKind, payload string) LSN {
	t.Helper()
	lsn, err := l.Append(txn, kind, Owner{Class: OwnerStorage, ExtID: 2, RelID: 7}, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

func TestAppendChainsPerTxn(t *testing.T) {
	l := New()
	a1 := mustAppend(t, l, 1, RecUpdate, "a1")
	b1 := mustAppend(t, l, 2, RecUpdate, "b1")
	a2 := mustAppend(t, l, 1, RecUpdate, "a2")

	if a1 != 1 || b1 != 2 || a2 != 3 {
		t.Fatalf("LSNs = %d %d %d", a1, b1, a2)
	}
	r, ok := l.At(a2)
	if !ok || r.PrevLSN != a1 {
		t.Fatalf("txn chain broken: %+v", r)
	}
	r, _ = l.At(b1)
	if r.PrevLSN != 0 {
		t.Fatal("first record of txn should have PrevLSN 0")
	}
	if l.LastLSN(1) != a2 || l.LastLSN(2) != b1 || l.LastLSN(9) != 0 {
		t.Fatal("LastLSN")
	}
	if l.Len() != 3 {
		t.Fatal("Len")
	}
	if _, ok := l.At(0); ok {
		t.Fatal("At(0) should not exist")
	}
	if _, ok := l.At(99); ok {
		t.Fatal("At(99) should not exist")
	}
}

func TestRollbackFull(t *testing.T) {
	l := New()
	mustAppend(t, l, 1, RecUpdate, "u1")
	mustAppend(t, l, 1, RecUpdate, "u2")
	mustAppend(t, l, 1, RecUpdate, "u3")
	d := &recordingDispatcher{}
	if err := l.Rollback(1, 0, d); err != nil {
		t.Fatal(err)
	}
	want := []string{"t1:u3", "t1:u2", "t1:u1"}
	if len(d.undos) != 3 {
		t.Fatalf("undos = %v", d.undos)
	}
	for i := range want {
		if d.undos[i] != want[i] {
			t.Fatalf("undo order: %v", d.undos)
		}
	}
	// three CLRs appended
	clrs := 0
	for _, r := range l.Records() {
		if r.Kind == RecCompensation {
			clrs++
		}
	}
	if clrs != 3 {
		t.Fatalf("CLRs = %d", clrs)
	}
}

func TestPartialRollbackToSavepoint(t *testing.T) {
	l := New()
	mustAppend(t, l, 1, RecUpdate, "u1")
	sp := mustAppend(t, l, 1, RecSavepoint, "sp1")
	mustAppend(t, l, 1, RecUpdate, "u2")
	mustAppend(t, l, 1, RecUpdate, "u3")
	d := &recordingDispatcher{}
	if err := l.Rollback(1, sp, d); err != nil {
		t.Fatal(err)
	}
	if len(d.undos) != 2 || d.undos[0] != "t1:u3" || d.undos[1] != "t1:u2" {
		t.Fatalf("partial undos = %v", d.undos)
	}
	// Rolling back again to the same savepoint is a no-op thanks to CLR
	// UndoNext chaining.
	d2 := &recordingDispatcher{}
	if err := l.Rollback(1, sp, d2); err != nil {
		t.Fatal(err)
	}
	if len(d2.undos) != 0 {
		t.Fatalf("second rollback should be idempotent, got %v", d2.undos)
	}
	// Full rollback afterwards undoes only u1.
	d3 := &recordingDispatcher{}
	if err := l.Rollback(1, 0, d3); err != nil {
		t.Fatal(err)
	}
	if len(d3.undos) != 1 || d3.undos[0] != "t1:u1" {
		t.Fatalf("final undos = %v", d3.undos)
	}
}

func TestRollbackSkipsOtherTxns(t *testing.T) {
	l := New()
	mustAppend(t, l, 1, RecUpdate, "a")
	mustAppend(t, l, 2, RecUpdate, "x")
	mustAppend(t, l, 1, RecUpdate, "b")
	d := &recordingDispatcher{}
	if err := l.Rollback(1, 0, d); err != nil {
		t.Fatal(err)
	}
	if len(d.undos) != 2 || d.undos[0] != "t1:b" || d.undos[1] != "t1:a" {
		t.Fatalf("undos = %v", d.undos)
	}
	if l.LastLSN(2) == 0 {
		t.Fatal("txn 2 should be untouched")
	}
}

func TestRollbackUndoErrorPropagates(t *testing.T) {
	l := New()
	mustAppend(t, l, 1, RecUpdate, "u1")
	d := &recordingDispatcher{failOn: "u1"}
	if err := l.Rollback(1, 0, d); err == nil {
		t.Fatal("undo error should propagate")
	}
}

func TestActiveTxns(t *testing.T) {
	l := New()
	mustAppend(t, l, 1, RecUpdate, "a")
	mustAppend(t, l, 2, RecUpdate, "b")
	mustAppend(t, l, 2, RecCommit, "")
	mustAppend(t, l, 2, RecEnd, "")
	active := l.ActiveTxns()
	if len(active) != 1 || active[0] != 1 {
		t.Fatalf("ActiveTxns = %v", active)
	}
}

func TestRecoverRedoesAndUndoesLosers(t *testing.T) {
	l := New()
	mustAppend(t, l, 1, RecUpdate, "c1") // will commit
	mustAppend(t, l, 2, RecUpdate, "x1") // loser
	mustAppend(t, l, 1, RecCommit, "")
	mustAppend(t, l, 2, RecUpdate, "x2")
	// no END for either: crash between commit record and end

	d := &recordingDispatcher{}
	if err := l.Recover(d, d); err != nil {
		t.Fatal(err)
	}
	// Redo repeats history for all updates.
	if len(d.redos) != 3 {
		t.Fatalf("redos = %v", d.redos)
	}
	// Loser txn 2 undone in reverse.
	if len(d.undos) != 2 || d.undos[0] != "t2:x2" || d.undos[1] != "t2:x1" {
		t.Fatalf("undos = %v", d.undos)
	}
	// Both txns ended now.
	if n := len(l.ActiveTxns()); n != 0 {
		t.Fatalf("ActiveTxns after recovery = %d", n)
	}
}

func TestFilePersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, 1, RecUpdate, "hello")
	mustAppend(t, l, 1, RecCommit, "")
	mustAppend(t, l, 1, RecEnd, "")
	mustAppend(t, l, 2, RecUpdate, "loser")
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Len() != 4 {
		t.Fatalf("reloaded Len = %d", l2.Len())
	}
	r, ok := l2.At(1)
	if !ok || string(r.Payload) != "hello" || r.Owner.RelID != 7 || r.Owner.ExtID != 2 {
		t.Fatalf("reloaded record = %+v", r)
	}
	active := l2.ActiveTxns()
	if len(active) != 1 || active[0] != 2 {
		t.Fatalf("reloaded ActiveTxns = %v", active)
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, 1, RecUpdate, "good")
	l.Close()

	// Simulate a torn write: append garbage half-frame.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 8)
	binary.BigEndian.PutUint32(frame, 100) // claims 100-byte body, absent
	f.Write(frame)
	f.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Len() != 1 {
		t.Fatalf("torn tail should be dropped; Len = %d", l2.Len())
	}
	// And the log must be appendable again after truncation.
	if _, err := l2.Append(1, RecUpdate, Owner{}, []byte("more")); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptChecksumTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := Open(path)
	mustAppend(t, l, 1, RecUpdate, "aaaa")
	mustAppend(t, l, 1, RecUpdate, "bbbb")
	l.Close()

	// Flip a payload byte in the second frame.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Len() != 1 {
		t.Fatalf("corrupt frame should be dropped; Len = %d", l2.Len())
	}
}

func TestConcurrentAppends(t *testing.T) {
	l := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := l.Append(TxnID(g+1), RecUpdate, Owner{}, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if l.Len() != 800 {
		t.Fatalf("Len = %d", l.Len())
	}
	// Every transaction's chain must be intact and 100 long.
	for g := 1; g <= 8; g++ {
		n := 0
		for cur := l.LastLSN(TxnID(g)); cur != 0; {
			r, ok := l.At(cur)
			if !ok || r.Txn != TxnID(g) {
				t.Fatalf("chain broken for txn %d", g)
			}
			n++
			cur = r.PrevLSN
		}
		if n != 100 {
			t.Fatalf("txn %d chain length %d", g, n)
		}
	}
}

func TestRecKindString(t *testing.T) {
	kinds := []RecKind{RecUpdate, RecCompensation, RecCommit, RecAbort, RecSavepoint, RecEnd, RecKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Error("empty kind string")
		}
	}
}

func TestEncodeDecodeRecord(t *testing.T) {
	rec := Record{LSN: 5, Txn: 9, PrevLSN: 3, UndoNext: 2, Kind: RecCompensation,
		Owner: Owner{Class: OwnerAttachment, ExtID: 11, RelID: 12345}, Payload: []byte("xyz")}
	frame := make([]byte, frameSize(len(rec.Payload)))
	putFrame(frame, rec, true)
	got := decodeRecord(frame[frameHeader:])
	if got.LSN != rec.LSN || got.Txn != rec.Txn || got.PrevLSN != rec.PrevLSN ||
		got.UndoNext != rec.UndoNext || got.Kind != rec.Kind || got.Owner != rec.Owner ||
		string(got.Payload) != "xyz" {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestSyncCommittedAdvancesDurable(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lsn, err := l.Append(1, RecCommit, Owner{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.Durable() >= lsn {
		t.Fatalf("durable %d before any sync", l.Durable())
	}
	if err := l.SyncCommitted(lsn); err != nil {
		t.Fatal(err)
	}
	if l.Durable() < lsn {
		t.Fatalf("durable = %d, want >= %d", l.Durable(), lsn)
	}
	// Already durable: served without another fsync round.
	if err := l.SyncCommitted(lsn); err != nil {
		t.Fatal(err)
	}
}

func TestGroupCommitBatchesConcurrentCommitters(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	st := &obs.WALStats{}
	l.SetObs(st)
	const committers = 16
	var wg sync.WaitGroup
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				lsn, err := l.Append(TxnID(g+1), RecCommit, Owner{}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if err := l.SyncCommitted(lsn); err != nil {
					t.Error(err)
					return
				}
				if l.Durable() < lsn {
					t.Errorf("commit returned before durable: %d < %d", l.Durable(), lsn)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	commits, batches := st.GroupCommits.Load(), st.GroupBatches.Load()
	if commits != committers*20 {
		t.Fatalf("group commits = %d, want %d", commits, committers*20)
	}
	// That rounds are shared is TestGroupCommitSharesRounds' claim; here
	// every commit came back durable, in no more rounds than commits.
	if batches == 0 || batches > commits {
		t.Fatalf("batches = %d out of range (commits %d)", batches, commits)
	}
}

func TestForceToOnlySyncsWhenBehind(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	st := &obs.WALStats{}
	l.SetObs(st)
	lsn, err := l.Append(1, RecUpdate, Owner{}, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.ForceTo(lsn); err != nil {
		t.Fatal(err)
	}
	if st.ForcedSyncs.Load() != 1 {
		t.Fatalf("forced syncs = %d", st.ForcedSyncs.Load())
	}
	if l.Durable() < lsn {
		t.Fatalf("durable = %d after force to %d", l.Durable(), lsn)
	}
	// Already durable: no further force.
	if err := l.ForceTo(lsn); err != nil {
		t.Fatal(err)
	}
	if st.ForcedSyncs.Load() != 1 {
		t.Fatalf("forced syncs after no-op = %d", st.ForcedSyncs.Load())
	}
}

func TestDurableRestoredAtOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(1, RecCommit, Owner{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SyncCommitted(lsn); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	// Everything read back from the file is durable by construction, so a
	// commit already on disk must not trigger a fresh fsync wait.
	if l2.Durable() < lsn {
		t.Fatalf("reopened durable = %d, want >= %d", l2.Durable(), lsn)
	}
}
