package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"dmx/internal/fault"
	"dmx/internal/obs"
)

// memFile is a logFile in memory. While hold is non-nil every Sync
// announces itself on entered and parks until hold is closed; shortWrites
// makes the next WriteAt calls land half their bytes and fail.
type memFile struct {
	mu          sync.Mutex
	data        []byte
	shortWrites int
	entered     chan struct{}
	hold        chan struct{}
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var err error
	if f.shortWrites > 0 {
		f.shortWrites--
		p, err = p[:len(p)/2], io.ErrShortWrite
	}
	if grow := int(off) + len(p) - len(f.data); grow > 0 {
		f.data = append(f.data, make([]byte, grow)...)
	}
	copy(f.data[off:], p)
	return len(p), err
}

func (f *memFile) Sync() error {
	if f.hold != nil {
		f.entered <- struct{}{}
		<-f.hold
	}
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.data = f.data[:size]
	return nil
}

func (f *memFile) Close() error { return nil }

// TestGroupCommitSharesRounds is the MT claim (EXPERIMENTS.md): commits
// appended while a force is in flight are all covered by the next one. No
// clock and no batching delay: the first force is parked inside fsync
// until the eight later commits are in the log.
func TestGroupCommitSharesRounds(t *testing.T) {
	const followers = 8
	f := &memFile{entered: make(chan struct{}, followers+1), hold: make(chan struct{})}
	l := New()
	l.file = f
	st := &obs.WALStats{}
	l.SetObs(st)

	var done sync.WaitGroup
	commit := func(txn TxnID, appended *sync.WaitGroup) {
		defer done.Done()
		lsn, err := l.Append(txn, RecCommit, Owner{}, nil)
		if appended != nil {
			appended.Done()
		}
		if err == nil {
			err = l.SyncCommitted(lsn)
		}
		if err != nil {
			t.Error(err)
		} else if l.Durable() < lsn {
			t.Errorf("commit %d acknowledged before durable", lsn)
		}
	}
	done.Add(1)
	go commit(1, nil)
	<-f.entered // the leader is inside fsync, the log's lock released

	var appended sync.WaitGroup
	for i := 0; i < followers; i++ {
		done.Add(1)
		appended.Add(1)
		go commit(TxnID(i+2), &appended)
	}
	appended.Wait() // every append returned while the force is still blocked
	if d := l.Durable(); d != 0 {
		t.Fatalf("durable = %d while the first force is blocked", d)
	}
	close(f.hold)
	done.Wait()

	if b, c, s := st.GroupBatches.Load(), st.GroupCommits.Load(), st.Syncs.Load(); b != 2 || c != followers+1 || s != 2 {
		t.Fatalf("%d rounds (%d fsyncs) served %d commits, want 2 rounds for %d", b, s, c, followers+1)
	}
	if st.ForceSeconds.Snapshot().Count != 2 {
		t.Fatalf("force histogram saw %d rounds", st.ForceSeconds.Snapshot().Count)
	}
}

// A failed write leaves durable and goodEnd where they were and the frames
// in the window: the retry overwrites the partial bytes in place.
func TestRetryAfterShortWriteOverwritesInPlace(t *testing.T) {
	f := &memFile{}
	l := New()
	l.file = f
	mustAppend(t, l, 1, RecUpdate, "first")
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	durable, goodEnd := l.Durable(), l.goodEnd
	mustAppend(t, l, 1, RecUpdate, "second")
	f.shortWrites = 1
	if err := l.Sync(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Sync over a short write = %v", err)
	}
	if l.Durable() != durable || l.goodEnd != goodEnd {
		t.Fatalf("failed round moved durable %d→%d, goodEnd %d→%d", durable, l.Durable(), goodEnd, l.goodEnd)
	}
	mustAppend(t, l, 1, RecUpdate, "third")
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if want := referenceImage(l.Records()); !bytes.Equal(f.data, want) {
		t.Fatalf("file after retry is %d bytes, want the %d-byte image of 3 records", len(f.data), len(want))
	}
}

// TestAppendersRunDuringForce: the forcer reads segment bytes below its
// cut with the lock released while appenders write above it; the race
// detector must agree that is disjoint (run with -race -cpu 1,2,4), and
// what reaches the file must be what At returned.
func TestAppendersRunDuringForce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const appenders, committers, perWorker = 8, 4, 300
	var wg sync.WaitGroup
	work := func(txn TxnID, kind RecKind) {
		defer wg.Done()
		for i := 0; i < perWorker; i++ {
			payload := []byte(fmt.Sprintf("t%d-%d-%s", txn, i, bytes.Repeat([]byte{'x'}, i%200)))
			lsn, err := l.Append(txn, kind, Owner{Class: OwnerStorage, RelID: uint32(i)}, payload)
			if err != nil {
				t.Error(err)
				return
			}
			if kind == RecCommit {
				if err := l.SyncCommitted(lsn); err != nil {
					t.Error(err)
					return
				}
			}
			if rec, ok := l.At(lsn); ok && !bytes.Equal(rec.Payload, payload) {
				t.Errorf("At(%d) = %q, appended %q", lsn, rec.Payload, payload)
				return
			}
		}
	}
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go work(TxnID(g+1), RecUpdate)
	}
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go work(TxnID(100+g), RecCommit)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := l.Checkpoint(nil, 0, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	want := l.Records()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded %d records (base %d), the closed log held %d (base %d)", len(got), l2.Base(), len(want), l.Base())
	}
}

// TestAppendAllocations: an append is a copy into the tail segment — no
// allocation in steady state, one per new segment — and a force round
// allocates nothing either.
func TestAppendAllocations(t *testing.T) {
	payload := make([]byte, 100)
	perSegment := segmentSize / (frameSize(len(payload)) + 4)
	for _, c := range []struct {
		name string
		open func() *Log
	}{
		{"memory", New},
		{"file", func() *Log {
			l, err := Open(filepath.Join(t.TempDir(), "wal.log"))
			if err != nil {
				t.Fatal(err)
			}
			return l
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			l := c.open()
			defer l.Close()
			n := 0
			appendOne := func() {
				lsn, err := l.Append(1, RecUpdate, Owner{}, payload)
				if err != nil {
					t.Fatal(err)
				}
				if n++; n%50 == 0 {
					if err := l.SyncCommitted(lsn); err != nil {
						t.Fatal(err)
					}
				}
			}
			appendOne()
			if got := testing.AllocsPerRun(2000, appendOne); got != 0 {
				t.Errorf("%v allocations per append, want 0", got)
			}
			got := testing.AllocsPerRun(16, func() {
				for i := 0; i < perSegment; i++ {
					appendOne()
				}
			})
			if got > 1 {
				t.Errorf("%v allocations per segment filled, want at most 1", got)
			}
		})
	}
}

// crashAt opens a file-backed log with an injector, runs fn against it and
// abandons the handle the way a crash does: no Close, so no trim.
func crashAt(t *testing.T, path string, fn func(l *Log, inj *fault.Injector)) {
	t.Helper()
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New()
	l.SetFaults(inj)
	fn(l, inj)
}

// reopenExpect opens path and requires exactly the given payloads, a file
// trimmed to them, and a log that can be appended to and reloaded again.
func reopenExpect(t *testing.T, path string, payloads ...string) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		l, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		recs := l.Records()
		if len(recs) != len(payloads) {
			t.Fatalf("pass %d: reloaded %d records, want %d", pass, len(recs), len(payloads))
		}
		for i, rec := range recs {
			if string(rec.Payload) != payloads[i] {
				t.Fatalf("pass %d: record %d = %q, want %q", pass, i, rec.Payload, payloads[i])
			}
		}
		if info, err := os.Stat(path); err != nil || info.Size() != int64(len(referenceImage(recs))) {
			t.Fatalf("pass %d: file not trimmed to its records: %v bytes, %v", pass, info.Size(), err)
		}
		mustAppend(t, l, 9, RecUpdate, "after")
		payloads = append(payloads, "after")
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAbandonedHandleLeavesZeroTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	crashAt(t, path, func(l *Log, _ *fault.Injector) {
		mustAppend(t, l, 1, RecUpdate, "kept")
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		mustAppend(t, l, 1, RecUpdate, "never forced")
	})
	if info, err := os.Stat(path); err != nil || info.Size() != extentSize {
		t.Fatalf("abandoned file is %v bytes, want one %d-byte extent (%v)", info.Size(), extentSize, err)
	}
	reopenExpect(t, path, "kept")
}

func TestTearMidFrameOverZeroFill(t *testing.T) {
	for _, keep := range []int{1, frameHeader, frameHeader + 5, frameSize(0) + 2} {
		path := filepath.Join(t.TempDir(), "wal.log")
		crashAt(t, path, func(l *Log, inj *fault.Injector) {
			mustAppend(t, l, 1, RecUpdate, "kept")
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			inj.ArmTorn(fault.SiteWALFlush, 1, keep)
			mustAppend(t, l, 1, RecUpdate, "torn")
			mustAppend(t, l, 1, RecUpdate, "lost")
			if err := l.Sync(); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("Sync at the armed site = %v", err)
			}
			// The process is dead: Close can neither force nor trim.
			if err := l.Close(); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("Close after the crash = %v", err)
			}
		})
		if info, _ := os.Stat(path); info.Size() != extentSize {
			t.Fatalf("keep %d: file is %d bytes, want the tear inside one extent", keep, info.Size())
		}
		reopenExpect(t, path, "kept")
	}
}

func TestTearOnExtentBoundary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	const keep = 20
	big := string(bytes.Repeat([]byte{'b'}, extentSize-keep-frameSize(0)))
	crashAt(t, path, func(l *Log, inj *fault.Injector) {
		mustAppend(t, l, 1, RecUpdate, big) // ends keep bytes short of the extent
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		inj.ArmTorn(fault.SiteWALFlush, 1, keep)
		mustAppend(t, l, 1, RecUpdate, "straddles the boundary")
		if err := l.Sync(); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("Sync at the armed site = %v", err)
		}
	})
	if info, _ := os.Stat(path); info.Size() != extentSize {
		t.Fatalf("file is %d bytes, want the tear to end it at the extent boundary", info.Size())
	}
	reopenExpect(t, path, big)
}

func TestFrameLargerThanSegmentAndExtent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	big := string(bytes.Repeat([]byte("0123456789abcdef"), (extentSize+2*segmentSize)/16))
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, 1, RecUpdate, "small")
	lsn := mustAppend(t, l, 1, RecUpdate, big)
	mustAppend(t, l, 1, RecUpdate, "small again")
	if rec, ok := l.At(lsn); !ok || string(rec.Payload) != big {
		t.Fatalf("At(big) = %d bytes, %v", len(rec.Payload), ok)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if info, _ := os.Stat(path); info.Size()%extentSize != 0 || info.Size() < int64(len(big)) {
		t.Fatalf("forced file is %d bytes, want whole extents covering the frame", info.Size())
	}
	// Abandoned, not closed: the reload sees frames, then zero fill.
	reopenExpect(t, path, "small", big, "small again")
}
