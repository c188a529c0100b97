package core

import (
	"encoding/binary"
	"fmt"
	"sync"

	"dmx/internal/txn"
	"dmx/internal/types"
	"dmx/internal/wal"
)

// ModOp classifies a logged logical modification.
type ModOp byte

// Logical modification operations.
const (
	ModInsert ModOp = 1
	ModUpdate ModOp = 2
	ModDelete ModOp = 3
)

// String returns the operation name.
func (op ModOp) String() string {
	switch op {
	case ModInsert:
		return "INSERT"
	case ModUpdate:
		return "UPDATE"
	case ModDelete:
		return "DELETE"
	default:
		return fmt.Sprintf("ModOp(%d)", byte(op))
	}
}

// ModPayload is the shared logical log payload for record modifications.
// The old record value is available on updates and deletes, the new record
// value on updates and inserts, and the record key on all operations —
// exactly the data the attached procedures receive.
type ModPayload struct {
	Op     ModOp
	Key    types.Key    // record key (old key for updates)
	NewKey types.Key    // new record key (updates only)
	Old    types.Record // nil for inserts
	New    types.Record // nil for deletes
}

// AppendMod appends the serialised modification payload to dst.
func AppendMod(dst []byte, p ModPayload) []byte {
	out := append(dst, byte(p.Op))
	out = appendBytes(out, p.Key)
	out = appendBytes(out, p.NewKey)
	out = appendRecord(out, p.Old)
	out = appendRecord(out, p.New)
	return out
}

// DecodeMod reverses AppendMod. It accepts only what AppendMod writes:
// trailing bytes are an error.
func DecodeMod(b []byte) (ModPayload, error) {
	var p ModPayload
	if len(b) < 1 {
		return p, fmt.Errorf("core: empty modification payload")
	}
	p.Op = ModOp(b[0])
	pos := 1
	var err error
	if p.Key, pos, err = readBytes(b, pos); err != nil {
		return p, err
	}
	if p.NewKey, pos, err = readBytes(b, pos); err != nil {
		return p, err
	}
	if p.Old, pos, err = readRecord(b, pos); err != nil {
		return p, err
	}
	if p.New, pos, err = readRecord(b, pos); err != nil {
		return p, err
	}
	if pos != len(b) {
		return p, fmt.Errorf("core: %d trailing bytes after modification payload", len(b)-pos)
	}
	return p, nil
}

// EntryPayload is the shared logical log payload for access-path entry
// maintenance: instance-scoped (entry key → record key) additions and
// removals.
type EntryPayload struct {
	Op       ModOp // ModInsert adds the entry, ModDelete removes it
	Instance int
	EntryKey types.Key
	RecKey   types.Key
}

// EncodeEntry serialises an access-path entry payload.
func EncodeEntry(p EntryPayload) []byte { return AppendEntry(nil, p) }

// AppendEntry appends the serialised access-path entry payload to dst.
func AppendEntry(dst []byte, p EntryPayload) []byte {
	out := append(dst, byte(p.Op))
	out = binary.BigEndian.AppendUint16(out, uint16(p.Instance))
	out = appendBytes(out, p.EntryKey)
	out = appendBytes(out, p.RecKey)
	return out
}

// DecodeEntry reverses EncodeEntry.
func DecodeEntry(b []byte) (EntryPayload, error) {
	var p EntryPayload
	if len(b) < 3 {
		return p, fmt.Errorf("core: short entry payload")
	}
	p.Op = ModOp(b[0])
	p.Instance = int(binary.BigEndian.Uint16(b[1:]))
	pos := 3
	var err error
	if p.EntryKey, pos, err = readBytes(b, pos); err != nil {
		return p, err
	}
	if p.RecKey, _, err = readBytes(b, pos); err != nil {
		return p, err
	}
	return p, nil
}

// LogSM writes a storage-method-owned modification record for rd.
func LogSM(tx *txn.Txn, rd *RelDesc, p ModPayload) error {
	_, err := LogSMLSN(tx, rd, p)
	return err
}

// LogSMLSN is LogSM returning the record's LSN, for storage methods that
// stamp buffer frames with page LSNs (write-ahead rule).
func LogSMLSN(tx *txn.Txn, rd *RelDesc, p ModPayload) (wal.LSN, error) {
	buf := payloadBufs.Get().(*[]byte)
	*buf = AppendMod((*buf)[:0], p)
	lsn, err := tx.AppendLog(wal.Owner{Class: wal.OwnerStorage, ExtID: uint8(rd.SM), RelID: rd.RelID}, *buf)
	payloadBufs.Put(buf)
	return lsn, err
}

// LogAttachment writes an attachment-owned entry record for rd.
func LogAttachment(tx *txn.Txn, rd *RelDesc, id AttID, p EntryPayload) error {
	buf := payloadBufs.Get().(*[]byte)
	*buf = AppendEntry((*buf)[:0], p)
	_, err := tx.AppendLog(wal.Owner{Class: wal.OwnerAttachment, ExtID: uint8(id), RelID: rd.RelID}, *buf)
	payloadBufs.Put(buf)
	return err
}

// payloadBufs holds encode buffers for log payloads, sized for a typical
// record. A buffer goes back as soon as AppendLog returns: the log copies
// the payload it appends.
var payloadBufs = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

func appendBytes(dst, b []byte) []byte {
	if b == nil {
		return binary.BigEndian.AppendUint32(dst, 0xFFFFFFFF)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

func readBytes(b []byte, pos int) ([]byte, int, error) {
	if len(b) < pos+4 {
		return nil, 0, fmt.Errorf("core: truncated payload length")
	}
	n := binary.BigEndian.Uint32(b[pos:])
	pos += 4
	if n == 0xFFFFFFFF {
		return nil, pos, nil
	}
	if len(b) < pos+int(n) {
		return nil, 0, fmt.Errorf("core: truncated payload body")
	}
	out := make([]byte, n) // empty, not nil: nil is the 0xFFFFFFFF length
	copy(out, b[pos:])
	return out, pos + int(n), nil
}

func appendRecord(dst []byte, r types.Record) []byte {
	if r == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return r.AppendEncode(dst)
}

func readRecord(b []byte, pos int) (types.Record, int, error) {
	if len(b) < pos+1 {
		return nil, 0, fmt.Errorf("core: truncated record flag")
	}
	if b[pos] > 1 {
		return nil, 0, fmt.Errorf("core: bad record flag %d", b[pos])
	}
	if b[pos] == 0 {
		return nil, pos + 1, nil
	}
	rec, n, err := types.DecodeRecord(b[pos+1:])
	if err != nil {
		return nil, 0, err
	}
	return rec, pos + 1 + n, nil
}
