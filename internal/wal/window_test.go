package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
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
		{LSN: 4, Txn: 5, PrevLSN: 3, Kind: RecCommit, Payload: EncodeCommitStamp(9)},
		{LSN: 5, Txn: 5, PrevLSN: 4, Kind: RecEnd, Payload: []byte{}},
	}
	l.Append(5, RecUpdate, o, []byte("one"))
	l.Append(6, RecUpdate, o, nil)
	l.AppendCLR(5, o, []byte("one"), 0)
	l.Append(5, RecCommit, Owner{}, EncodeCommitStamp(9))
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
