package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// referenceImage is the file format written out longhand, independent of
// the window's encoder: per record len(u32) | crc(u32) | body, the body
// the fixed header then the payload. It is what every earlier version of
// the log wrote for these records.
func referenceImage(recs []Record) []byte {
	var out []byte
	for _, rec := range recs {
		var body []byte
		body = binary.BigEndian.AppendUint64(body, uint64(rec.LSN))
		body = binary.BigEndian.AppendUint64(body, uint64(rec.Txn))
		body = binary.BigEndian.AppendUint64(body, uint64(rec.PrevLSN))
		body = binary.BigEndian.AppendUint64(body, uint64(rec.UndoNext))
		body = append(body, byte(rec.Kind), byte(rec.Owner.Class), rec.Owner.ExtID)
		body = binary.BigEndian.AppendUint32(body, rec.Owner.RelID)
		body = append(body, rec.Payload...)
		out = binary.BigEndian.AppendUint32(out, uint32(len(body)))
		out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
		out = append(out, body...)
	}
	return out
}

// The closed file holds exactly the reference frames — no zero tail, no
// other byte — before and after a checkpoint rewrites its head, and a file
// of reference frames opens to the same records: logs move between
// versions of the log in both directions.
func TestClosedFileIsTheReferenceImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	o := Owner{Class: OwnerAttachment, ExtID: 3, RelID: 77}
	want := []Record{
		{LSN: 1, Txn: 5, Kind: RecUpdate, Owner: o, Payload: []byte("one")},
		{LSN: 2, Txn: 6, Kind: RecUpdate, Owner: o, Payload: []byte{}},
		{LSN: 3, Txn: 5, PrevLSN: 1, UndoNext: 0, Kind: RecCompensation, Owner: o, Payload: []byte("one")},
		{LSN: 4, Txn: 5, PrevLSN: 3, Kind: RecCommit, Payload: AppendCommitStamp(nil, 9)},
		{LSN: 5, Txn: 5, PrevLSN: 4, Kind: RecEnd, Payload: []byte{}},
	}
	l.Append(5, RecUpdate, o, []byte("one"))
	l.Append(6, RecUpdate, o, nil)
	l.AppendCLR(5, o, []byte("one"), 0)
	l.Append(5, RecCommit, Owner{}, AppendCommitStamp(nil, 9))
	l.Append(5, RecEnd, Owner{}, nil)
	if err := l.Sync(); err != nil { // grows the file by an extent
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, referenceImage(want)) {
		t.Fatalf("closed file differs from the reference image:\n got %x\nwant %x", got, referenceImage(want))
	}

	// The other direction, and the head rewrite.
	l, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint([]TxnID{6}, 9, nil); err != nil {
		t.Fatal(err)
	}
	tail := l.Records()
	if len(tail) != 2 || tail[0].Kind != RecCheckpoint || tail[0].LSN != 6 {
		t.Fatalf("window after checkpoint = %+v", tail)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ = os.ReadFile(path); !bytes.Equal(got, referenceImage(tail)) {
		t.Fatalf("checkpointed file differs from the reference image of its %d records", len(tail))
	}
}

// Frames left behind by an earlier life of the file, whole and with good
// checksums, are rejected because their LSNs do not continue the sequence.
func TestStaleFramesPastTheTailRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	live := []Record{{LSN: 5, Txn: 1, Kind: RecUpdate, Payload: []byte("five")}, {LSN: 6, Txn: 1, PrevLSN: 5, Kind: RecUpdate, Payload: []byte("six")}}
	stale := []Record{{LSN: 3, Txn: 2, Kind: RecUpdate, Payload: []byte("three")}, {LSN: 8, Txn: 2, Kind: RecUpdate, Payload: []byte("eight")}}
	image := append(referenceImage(live), referenceImage(stale)...)
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Len() != 2 || l.Base() != 4 || l.LastLSN(2) != 0 {
		t.Fatalf("Len %d Base %d LastLSN(2) %d: stale frames were loaded", l.Len(), l.Base(), l.LastLSN(2))
	}
	if lsn := mustAppend(t, l, 1, RecUpdate, "seven"); lsn != 7 {
		t.Fatalf("next LSN = %d", lsn)
	}
	if info, _ := os.Stat(path); info.Size() != int64(len(referenceImage(live))) {
		t.Fatalf("stale frames not trimmed: file is %d bytes", info.Size())
	}
}

// A whole frame with a good checksum whose PrevLSN does not point
// backwards ends the valid prefix: loaded, it would send the loser
// rollback's chain walk round the same record forever.
func TestSelfPointingFrameRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, selfPointing(), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Len() != 0 || l.LastLSN(5) != 0 {
		t.Fatalf("Len %d LastLSN(5) %d: the self-pointing frame was loaded", l.Len(), l.LastLSN(5))
	}
	if err := l.Recover(nopDispatcher{}, nopDispatcher{}); err != nil {
		t.Fatal(err)
	}
}

func selfPointing() []byte {
	return referenceImage([]Record{{LSN: 1, Txn: 5, PrevLSN: 1, Kind: RecUpdate, Payload: []byte("x")}})
}

type nopDispatcher struct{}

func (nopDispatcher) Redo(TxnID, Owner, []byte, bool) error { return nil }
func (nopDispatcher) Undo(TxnID, Owner, []byte) error       { return nil }

// FuzzOpenLog opens a log file holding arbitrary bytes and recovers it with
// no-op redo and undo. Neither may panic or hang; Open cuts the file to a
// prefix of the input, and reopening that prefix loads the same records.
func FuzzOpenLog(f *testing.F) {
	o := Owner{Class: OwnerStorage, ExtID: 2, RelID: 7}
	valid := referenceImage([]Record{ // txn 1 commits, txn 2 rolls back, txn 3 is a loser
		{LSN: 1, Txn: 1, Kind: RecUpdate, Owner: o, Payload: []byte("a1")},
		{LSN: 2, Txn: 2, Kind: RecUpdate, Owner: o, Payload: []byte("b1")},
		{LSN: 3, Txn: 1, PrevLSN: 1, Kind: RecUpdate, Owner: o, Payload: []byte("a2")},
		{LSN: 4, Txn: 1, PrevLSN: 3, Kind: RecCommit, Payload: AppendCommitStamp(nil, 1)},
		{LSN: 5, Txn: 3, Kind: RecUpdate, Owner: o, Payload: []byte("c1")},
		{LSN: 6, Txn: 2, PrevLSN: 2, Kind: RecCompensation, Owner: o, Payload: []byte("b1")},
		{LSN: 7, Txn: 2, PrevLSN: 6, Kind: RecAbort, Payload: []byte{}},
		{LSN: 8, Txn: 1, PrevLSN: 4, Kind: RecEnd, Payload: []byte{}},
		{LSN: 9, Txn: 2, PrevLSN: 7, Kind: RecEnd, Payload: []byte{}},
	})
	f.Add(valid)
	f.Add(selfPointing())
	f.Add(valid[:len(valid)-5]) // torn tail
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		prefix, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, prefix) {
			t.Fatalf("the %d-byte file is not a prefix of the %d-byte input", len(prefix), len(data))
		}
		loaded := l.Records()
		again := New()
		if end := again.load(prefix); end != int64(len(prefix)) {
			t.Fatalf("reloading the %d-byte prefix stopped at byte %d", len(prefix), end)
		}
		if reloaded := again.Records(); !reflect.DeepEqual(loaded, reloaded) {
			t.Fatalf("reloading the prefix gave %d records, not the %d first loaded", len(reloaded), len(loaded))
		}

		// The log closes only once Recover returns: a hung Recover holds
		// l.mu, which Close would wait on too.
		done := make(chan struct{})
		go func() {
			defer close(done)
			l.Recover(nopDispatcher{}, nopDispatcher{}) // a broken chain may fail it
			l.Close()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Recover did not return")
		}
	})
}

// Scan visits the window from any LSN across segment boundaries, stops
// when told to, and may use the log from inside the callback.
func TestScan(t *testing.T) {
	l := New()
	payload := bytes.Repeat([]byte{'p'}, 1000)
	const n = 3 * segmentSize / 1000
	for i := 0; i < n; i++ {
		mustAppend(t, l, 1, RecUpdate, string(payload))
	}
	if len(l.segs) < 3 {
		t.Fatalf("%d records fit %d segments", n, len(l.segs))
	}
	next := LSN(n / 2)
	l.Scan(next, func(rec Record) bool {
		if rec.LSN != next || !bytes.Equal(rec.Payload, payload) {
			t.Fatalf("visited lsn %d (%d bytes), want %d", rec.LSN, len(rec.Payload), next)
		}
		if again, ok := l.At(rec.LSN); !ok || again.PrevLSN != rec.PrevLSN {
			t.Fatalf("At(%d) inside Scan = %+v, %v", rec.LSN, again, ok)
		}
		next++
		return rec.LSN < n-5
	})
	if next != n-4 {
		t.Fatalf("scan stopped after lsn %d", next-1)
	}
	// Appends during a scan are not visited: the scan ends where the
	// window ended when it began.
	seen := 0
	l.Scan(0, func(Record) bool {
		mustAppend(t, l, 2, RecUpdate, "more")
		seen++
		return true
	})
	if seen != n {
		t.Fatalf("scan visited %d records of %d", seen, n)
	}
	l.Scan(LSN(l.Len())+1, func(Record) bool { t.Fatal("scan past the tail"); return false })
}

// A decoded payload aliases the window: it survives later appends and the
// head truncation that drops its record, and appending to it cannot touch
// the next frame.
func TestPayloadsAliasImmutableBytes(t *testing.T) {
	l := New()
	first := mustAppend(t, l, 1, RecUpdate, "first")
	second := mustAppend(t, l, 1, RecUpdate, "second")
	rec, _ := l.At(first)
	_ = append(rec.Payload, "scribble"...)
	if next, _ := l.At(second); string(next.Payload) != "second" || next.PrevLSN != first {
		t.Fatalf("appending to a payload reached the next frame: %+v", next)
	}
	for i := 0; i < 2*segmentSize/100; i++ {
		mustAppend(t, l, 2, RecUpdate, string(bytes.Repeat([]byte{'z'}, 100)))
	}
	if err := l.Checkpoint(nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.At(first); ok {
		t.Fatal("truncated record still reachable")
	}
	if string(rec.Payload) != "first" {
		t.Fatalf("held payload = %q after appends and truncation", rec.Payload)
	}
}
