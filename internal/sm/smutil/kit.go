package smutil

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/types"
)

// ErrDuplicateKey is returned by key-organised storage methods when an
// insert or key-moving update collides with a stored record: the key
// fields are the relation's primary key.
var ErrDuplicateKey = errors.New("duplicate key")

// DuplicateKey wraps ErrDuplicateKey with rec's offending key values.
func DuplicateKey(rec types.Record, keyFields []int) error {
	return fmt.Errorf("%w: %v", ErrDuplicateKey, rec.Project(keyFields))
}

// Qualifier is the tail every read shares, a scan's and a direct-by-key
// fetch's: the pushed-down filter, compiled (a scan's once when it opens,
// a fetch's by its caller), and the projection onto the read's fields
// (nil = all). The records it returns come from one Slab, so a run of
// rows costs one allocation, not one per row. Like the Program in it, a
// Qualifier serves one read at a time.
type Qualifier struct {
	prog   *expr.Program
	out    types.Selector
	fields []int
	rows   types.Slab[types.Value]
}

// NewQualifier compiles opts' filter for one scan.
func NewQualifier(env *core.Env, opts core.ScanOptions) Qualifier {
	return CompiledQualifier(expr.Compile(env.Eval, opts.Filter), opts.Fields)
}

// CompiledQualifier is a Qualifier over a filter its caller compiled
// (nil: none) and projecting onto fields.
func CompiledQualifier(prog *expr.Program, fields []int) Qualifier {
	return Qualifier{prog: prog, out: types.NewSelector(fields), fields: fields}
}

// SizeRun sizes the slab for a caller that knows how many records it is
// about to qualify.
func (q *Qualifier) SizeRun(rows int) { q.rows.Size(rows) }

// Encoded qualifies a stored record: the filter matches its encoded bytes
// in place, and only a qualifying record is decoded, straight onto the
// scan's fields. ok is false when the filter rejects the record. The
// result shares no bytes with enc, but may share its backing array with
// the other records of the scan (see types.Slab).
func (q *Qualifier) Encoded(enc []byte) (rec types.Record, ok bool, err error) {
	if ok, err := q.prog.Match(enc); !ok || err != nil {
		return nil, false, err
	}
	if q.fields != nil {
		rec = q.rows.Take(q.out.Width())
		err = q.out.ProjectInto(rec, enc)
	} else {
		var n int
		if n, err = types.RecordArity(enc); err == nil {
			rec = q.rows.Take(n)
			_, err = types.DecodeRecordInto(rec, enc)
		}
	}
	if err != nil {
		return nil, false, err
	}
	return rec, true, nil
}

// Record qualifies a record the scan holds decoded.
func (q *Qualifier) Record(rec types.Record) (types.Record, bool, error) {
	if ok, err := q.prog.MatchRecord(rec); !ok || err != nil {
		return nil, false, err
	}
	if q.fields != nil {
		out := q.rows.Take(len(q.fields))
		for i, f := range q.fields {
			out[i] = rec[f]
		}
		rec = out
	}
	return rec, true, nil
}

// Fetch is Encoded for the one record a direct-by-key access reads: a
// record the filter rejects is core.ErrFiltered.
func (q *Qualifier) Fetch(enc []byte) (types.Record, error) {
	return fetched(q.Encoded(enc))
}

// FetchRecord is Fetch for a record the method holds decoded.
func (q *Qualifier) FetchRecord(rec types.Record) (types.Record, error) {
	return fetched(q.Record(rec))
}

func fetched(rec types.Record, ok bool, err error) (types.Record, error) {
	if !ok && err == nil {
		return nil, core.ErrFiltered
	}
	return rec, err
}

// StoredRun gathers stored records — each a record key and its stored
// encoding — into one buffer while a storage method holds its latch or a
// page pin, and hands them to a snapshot's emit after it lets go
// (core.StorageOps.Snapshot). The buffer is reused by the next run.
type StoredRun struct {
	buf  []byte
	ends []int // per record: the end of its key, then of its bytes, in buf
}

// Add copies one record into the run.
func (r *StoredRun) Add(key, stored []byte) {
	r.buf = append(r.buf, key...)
	r.ends = append(r.ends, len(r.buf))
	r.buf = append(r.buf, stored...)
	r.ends = append(r.ends, len(r.buf))
}

// Len is the number of records in the run.
func (r *StoredRun) Len() int { return len(r.ends) / 2 }

// Emit hands every record of the run to emit in the order added, then
// empties the run. The first error emit returns stops it.
func (r *StoredRun) Emit(emit func(types.Key, []byte) error) error {
	start := 0
	for i := 0; i < len(r.ends); i += 2 {
		k, end := r.ends[i], r.ends[i+1]
		if err := emit(r.buf[start:k], r.buf[k:end]); err != nil {
			return err
		}
		start = end
	}
	r.buf, r.ends = r.buf[:0], r.ends[:0]
	return nil
}

// Effect is what a logged modification asks of a (key → record) store once
// the direction (redo or undo) is folded in: remove Del, then store Rec at
// Put. Either key may be nil. A key-moving update is the one case with
// both set.
type Effect struct {
	Del types.Key
	Put types.Key
	Rec types.Record
}

// LoggedEffect decodes a storage-method log payload and normalises it:
// undoing an insert is a delete, undoing a delete or an update puts the
// old record back at the old key, and whichever of an update's two keys
// is not the destination is removed when they differ.
func LoggedEffect(payload []byte, undo bool) (Effect, error) {
	p, err := core.DecodeMod(payload)
	if err != nil {
		return Effect{}, err
	}
	switch {
	case p.Op == core.ModInsert && !undo:
		return Effect{Put: p.Key, Rec: p.New}, nil
	case p.Op == core.ModInsert, p.Op == core.ModDelete && !undo:
		return Effect{Del: p.Key}, nil
	case p.Op == core.ModDelete:
		return Effect{Put: p.Key, Rec: p.Old}, nil
	case p.Op == core.ModUpdate:
		e := Effect{Del: p.Key, Put: p.NewKey, Rec: p.New}
		if undo {
			e = Effect{Del: p.NewKey, Put: p.Key, Rec: p.Old}
		}
		if e.Del.Equal(e.Put) {
			e.Del = nil
		}
		return e, nil
	default:
		return Effect{}, fmt.Errorf("smutil: bad logged op %v", p.Op)
	}
}

// ParseKeyColumns resolves the key=col,... DDL attribute of a
// key-organised storage method against schema.
func ParseKeyColumns(extension string, schema *types.Schema, attrs core.AttrList) ([]int, error) {
	spec, ok := attrs.Get("key")
	if !ok || spec == "" {
		return nil, fmt.Errorf("%s: a key=col,... attribute is required", extension)
	}
	var fields []int
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		i := schema.ColIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("%s: key column %q not in schema", extension, name)
		}
		fields = append(fields, i)
	}
	return fields, nil
}

// AppendKeyColumns appends the storage-descriptor form of a key-column
// list: a count byte, then two bytes per field position.
func AppendKeyColumns(dst []byte, fields []int) []byte {
	dst = append(dst, byte(len(fields)))
	for _, f := range fields {
		dst = binary.BigEndian.AppendUint16(dst, uint16(f))
	}
	return dst
}

// DecodeKeyColumns reverses AppendKeyColumns, returning the bytes after
// the list.
func DecodeKeyColumns(b []byte) (fields []int, rest []byte, err error) {
	if len(b) < 1 || len(b) < 1+2*int(b[0]) {
		return nil, nil, fmt.Errorf("smutil: truncated key-column list in storage descriptor")
	}
	n := int(b[0])
	for i := 0; i < n; i++ {
		fields = append(fields, int(binary.BigEndian.Uint16(b[1+2*i:])))
	}
	return fields, b[1+2*n:], nil
}

// Position is the cursor state of a scan that sits "on" the last key it
// returned: the architecture's position semantics (deleting that item
// leaves the scan just after it; Next returns the first item after the
// position) fall out of always resuming strictly after the key. Scans
// embed it for Pos, Restore and Close.
type Position struct {
	Started bool      // false: before the first item
	After   types.Key // key of the item the scan is on
	Closed  bool
}

// Pos implements core.Scan: the opaque saved position.
func (p *Position) Pos() core.ScanPos {
	if !p.Started {
		return core.ScanPos{0}
	}
	return append(core.ScanPos{1}, p.After...)
}

// Restore implements core.Scan. A closed scan stays closed.
func (p *Position) Restore(pos core.ScanPos) error {
	if p.Closed {
		return fmt.Errorf("smutil: scan is closed")
	}
	if len(pos) == 0 || pos[0] > 1 {
		return fmt.Errorf("smutil: bad scan position %v", []byte(pos))
	}
	p.Started = pos[0] == 1
	p.After = nil
	if p.Started {
		p.After = append(types.Key(nil), pos[1:]...)
	}
	return nil
}

// Close implements core.Scan.
func (p *Position) Close() error {
	p.Closed = true
	return nil
}
