package wal

import (
	"encoding/binary"
	"hash/crc32"
	"sort"
)

// The window — the records since the last checkpoint — is kept as the
// very bytes the backing file holds: a chain of fixed-capacity segments of
// frames, each frame len(u32) | crc(u32) | body. A record is encoded once,
// at Append, into the tail segment; a force writes segment bytes as they
// are; At, Scan and Rollback decode on demand. Bytes below a segment's
// used mark never change and no segment is reused, so a force round reads
// them without the log's lock while appenders fill the bytes above, and a
// decoded payload may alias them for as long as its holder likes.

const (
	frameHeader = 8  // len | crc
	bodyHeader  = 39 // LSN, Txn, PrevLSN, UndoNext, Kind, Owner
	// segmentSize is the capacity of a window segment; a frame that needs
	// more gets a segment of its own size.
	segmentSize = 64 << 10
)

func frameSize(payload int) int { return frameHeader + bodyHeader + payload }

// segment is an append-only run of consecutive frames. Frames fill buf
// from the front; the 4-byte start offset of frame i sits i+1 slots from
// the back, so the segment is one pointer-free allocation.
type segment struct {
	first LSN // LSN of frame 0
	n     int // frames held
	used  int // bytes of frames; buf[:used] is immutable
	buf   []byte
}

// off returns the start of frame i.
func (s *segment) off(i int) int {
	return int(binary.LittleEndian.Uint32(s.buf[len(s.buf)-4*(i+1):]))
}

// reserve returns the n bytes of the window where the frame of the next
// LSN goes, opening a new tail segment when the current one is full.
func (l *Log) reserve(n int) []byte {
	var s *segment
	if len(l.segs) > 0 {
		s = &l.segs[len(l.segs)-1]
	}
	if s == nil || s.used+n+4*(s.n+1) > len(s.buf) {
		l.segs = append(l.segs, segment{first: l.next, buf: make([]byte, max(segmentSize, n+4))})
		s = &l.segs[len(l.segs)-1]
	}
	binary.LittleEndian.PutUint32(s.buf[len(s.buf)-4*(s.n+1):], uint32(s.used))
	b := s.buf[s.used : s.used+n]
	s.used += n
	s.n++
	l.next++
	return b
}

// segIndex returns the index of the segment holding lsn (in the window).
func (l *Log) segIndex(lsn LSN) int {
	return sort.Search(len(l.segs), func(i int) bool { return l.segs[i].first > lsn }) - 1
}

func (l *Log) atLocked(lsn LSN) (Record, bool) {
	if lsn <= l.base || lsn >= l.next {
		return Record{}, false
	}
	s := &l.segs[l.segIndex(lsn)]
	frame := s.buf[s.off(int(lsn-s.first)):]
	return decodeRecord(frame[frameHeader : frameHeader+binary.BigEndian.Uint32(frame)]), true
}

// chunksLocked appends to dst the window bytes holding the frames from LSN
// from (or the head of the window, if later) through the last appended:
// one slice per segment.
func (l *Log) chunksLocked(dst [][]byte, from LSN) [][]byte {
	from = max(from, l.base+1)
	if from >= l.next {
		return dst
	}
	for i := l.segIndex(from); i < len(l.segs); i++ {
		s := &l.segs[i]
		dst = append(dst, s.buf[s.off(int(max(from, s.first)-s.first)):s.used:s.used])
	}
	return dst
}

// load rebuilds the window, the per-transaction chain heads and the
// checkpoint pointer from a file image and returns the offset after the
// last valid frame: a torn, corrupt or zero-filled tail ends the parse.
// The first record's LSN sets the truncation base; a gap in the LSN
// sequence — stale frames of an earlier life of the file — is a corrupt
// tail too, and so is a back pointer (PrevLSN, UndoNext) that does not
// point backwards: the log never writes one, and an undo chain walk would
// follow it forever.
func (l *Log) load(data []byte) int64 {
	pos := 0
	for pos+frameHeader <= len(data) {
		end := pos + frameHeader + int(binary.BigEndian.Uint32(data[pos:]))
		if end > len(data) || end < pos+frameHeader+bodyHeader {
			break // torn tail, or zero fill
		}
		body := data[pos+frameHeader : end]
		if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[pos+4:]) {
			break
		}
		rec := decodeRecord(body)
		if pos == 0 && rec.LSN > 0 {
			l.base, l.next = rec.LSN-1, rec.LSN
		}
		if rec.LSN != l.next || rec.PrevLSN >= rec.LSN || rec.UndoNext >= rec.LSN {
			break
		}
		copy(l.reserve(end-pos), data[pos:end])
		l.track(rec)
		pos = end
	}
	return int64(pos)
}

// putFrame encodes rec into b, which is exactly its frame's size.
func putFrame(b []byte, rec Record, sum bool) {
	body := b[frameHeader:]
	binary.BigEndian.PutUint32(b, uint32(len(body)))
	binary.BigEndian.PutUint64(body[0:], uint64(rec.LSN))
	binary.BigEndian.PutUint64(body[8:], uint64(rec.Txn))
	binary.BigEndian.PutUint64(body[16:], uint64(rec.PrevLSN))
	binary.BigEndian.PutUint64(body[24:], uint64(rec.UndoNext))
	body[32], body[33], body[34] = byte(rec.Kind), byte(rec.Owner.Class), rec.Owner.ExtID
	binary.BigEndian.PutUint32(body[35:], rec.Owner.RelID)
	copy(body[bodyHeader:], rec.Payload)
	if sum {
		binary.BigEndian.PutUint32(b[4:], crc32.ChecksumIEEE(body))
	}
}

// decodeRecord decodes a frame body of at least bodyHeader bytes. The
// payload aliases b, capped so that appending to it cannot reach the next
// frame.
func decodeRecord(b []byte) Record {
	return Record{
		LSN:      LSN(binary.BigEndian.Uint64(b[0:])),
		Txn:      TxnID(binary.BigEndian.Uint64(b[8:])),
		PrevLSN:  LSN(binary.BigEndian.Uint64(b[16:])),
		UndoNext: LSN(binary.BigEndian.Uint64(b[24:])),
		Kind:     RecKind(b[32]),
		Owner:    Owner{Class: OwnerClass(b[33]), ExtID: b[34], RelID: binary.BigEndian.Uint32(b[35:])},
		Payload:  b[bodyHeader:len(b):len(b)],
	}
}
