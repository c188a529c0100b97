package types

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Column describes one field of a relation.
type Column struct {
	Name    string
	Kind    Kind
	NotNull bool
}

// Schema is the ordered column list of a relation. Schemas are shared by
// all extensions touching a relation; a Schema value is immutable after
// construction.
type Schema struct {
	Cols   []Column
	byName map[string]int
}

// NewSchema builds a schema from the given columns. Column names must be
// unique (case-insensitive), and the schema must fit its encoding: at most
// 0xFFFF columns, each named in at most 0xFFFF bytes, of a value kind.
func NewSchema(cols ...Column) (*Schema, error) {
	if len(cols) > 0xFFFF {
		return nil, fmt.Errorf("types: %d columns, at most %d allowed", len(cols), 0xFFFF)
	}
	s := &Schema{Cols: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		key := strings.ToLower(c.Name)
		if key == "" {
			return nil, fmt.Errorf("types: column %d has empty name", i)
		}
		if len(c.Name) > 0xFFFF {
			return nil, fmt.Errorf("types: column %d name is %d bytes, at most %d allowed", i, len(c.Name), 0xFFFF)
		}
		if c.Kind == KindNull || c.Kind > KindBool {
			return nil, fmt.Errorf("types: column %q has no value kind (%v)", c.Name, c.Kind)
		}
		if _, dup := s.byName[key]; dup {
			return nil, fmt.Errorf("types: duplicate column name %q", c.Name)
		}
		s.byName[key] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and examples.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumCols returns the number of columns.
func (s *Schema) NumCols() int { return len(s.Cols) }

// ColIndex returns the index of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	if i, ok := s.byName[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// Validate checks that rec conforms to the schema: arity, kind (NULL is
// admissible unless NotNull), and NOT NULL constraints.
func (s *Schema) Validate(rec Record) error {
	if len(rec) != len(s.Cols) {
		return fmt.Errorf("types: record has %d fields, schema has %d", len(rec), len(s.Cols))
	}
	for i, v := range rec {
		c := s.Cols[i]
		if v.K == KindNull {
			if c.NotNull {
				return fmt.Errorf("types: NULL in NOT NULL column %q", c.Name)
			}
			continue
		}
		if v.K != c.Kind {
			return fmt.Errorf("types: column %q wants %v, got %v", c.Name, c.Kind, v.K)
		}
	}
	return nil
}

// AppendEncode appends a binary encoding of the schema to dst.
func (s *Schema) AppendEncode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s.Cols)))
	for _, c := range s.Cols {
		dst = append(dst, byte(c.Kind))
		if c.NotNull {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(c.Name)))
		dst = append(dst, c.Name...)
	}
	return dst
}

// DecodeSchema decodes a schema from b, returning the schema and bytes
// consumed.
func DecodeSchema(b []byte) (*Schema, int, error) {
	if len(b) < 2 {
		return nil, 0, fmt.Errorf("types: truncated schema")
	}
	n := int(binary.BigEndian.Uint16(b))
	pos := 2
	cols := make([]Column, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < pos+4 {
			return nil, 0, fmt.Errorf("types: truncated schema column %d", i)
		}
		kind := Kind(b[pos])
		if b[pos+1] > 1 {
			return nil, 0, fmt.Errorf("types: schema column %d NOT NULL flag %d", i, b[pos+1])
		}
		notNull := b[pos+1] == 1
		nameLen := int(binary.BigEndian.Uint16(b[pos+2:]))
		pos += 4
		if len(b) < pos+nameLen {
			return nil, 0, fmt.Errorf("types: truncated schema column name %d", i)
		}
		cols = append(cols, Column{Name: string(b[pos : pos+nameLen]), Kind: kind, NotNull: notNull})
		pos += nameLen
	}
	s, err := NewSchema(cols...)
	if err != nil {
		return nil, 0, err
	}
	return s, pos, nil
}

// Record is an ordered tuple of field values in the common representation.
type Record []Value

// Clone returns a deep copy of the record (BYTES bodies are copied).
func (r Record) Clone() Record {
	out := make(Record, len(r))
	for i, v := range r {
		if v.K == KindBytes {
			b := make([]byte, len(v.B))
			copy(b, v.B)
			v.B = b
		}
		out[i] = v
	}
	return out
}

// Equal reports whether two records have equal arity and field values.
func (r Record) Equal(o Record) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !Equal(r[i], o[i]) {
			return false
		}
	}
	return true
}

// Project returns the sub-record holding the fields at the given indexes.
func (r Record) Project(fields []int) Record {
	out := make(Record, len(fields))
	for i, f := range fields {
		out[i] = r[f]
	}
	return out
}

// String renders the record as a parenthesised value list.
func (r Record) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range r {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// AppendEncode appends a self-delimiting encoding of the record to dst.
// A dst with no spare capacity (nil, say) is grown once, to fit the
// record; a reused buffer is appended to as it is.
func (r Record) AppendEncode(dst []byte) []byte {
	if cap(dst) == len(dst) {
		n := 2
		for i := range r {
			n += r[i].encodedLen()
		}
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r)))
	for _, v := range r {
		dst = v.AppendEncode(dst)
	}
	return dst
}

// DecodeRecord decodes one record from b, returning it and bytes consumed.
func DecodeRecord(b []byte) (Record, int, error) {
	n, err := RecordArity(b)
	if err != nil {
		return nil, 0, err
	}
	rec := make(Record, n)
	used, err := DecodeRecordInto(rec, b)
	if err != nil {
		return nil, 0, err
	}
	return rec, used, nil
}

// RecordArity is the number of fields of the record encoded in b.
func RecordArity(b []byte) (int, error) {
	if len(b) < 2 {
		return 0, fmt.Errorf("types: truncated record")
	}
	return int(binary.BigEndian.Uint16(b)), nil
}

// DecodeRecordInto decodes the record encoded in b into rec, whose length
// is the record's arity (RecordArity), and returns the bytes consumed.
func DecodeRecordInto(rec Record, b []byte) (int, error) {
	pos := 2
	for i := range rec {
		v, used, err := DecodeValue(b[pos:])
		if err != nil {
			return 0, fmt.Errorf("types: record field %d: %w", i, err)
		}
		rec[i] = v
		pos += used
	}
	return pos, nil
}

var (
	errTruncatedValue = errors.New("types: truncated value")
	errBadKind        = errors.New("types: bad value kind")
)

// ValueLen is the encoded length of the well-formed value at the start of
// b, or 0 when the value is truncated or of no kind; SplitValue then says
// which. It is the one place the lengths of the encoding are read, and
// small enough to inline into a loop that skips fields.
func ValueLen(b []byte) int {
	if len(b) == 0 {
		return 0
	}
	n := 1
	switch Kind(b[0]) {
	case KindNull:
	case KindInt, KindBool, KindFloat:
		n = 9
	case KindString, KindBytes:
		if len(b) < 5 {
			return 0
		}
		n = 5 + int(binary.BigEndian.Uint32(b[1:]))
	default:
		return 0
	}
	if n < 1 || n > len(b) {
		return 0
	}
	return n
}

// SplitValue splits the encoded value at the start of b into its kind and
// its body, without materialising it: the 8 big-endian bytes of an INT,
// BOOL or FLOAT, the bytes of a STRING or BYTES, none for NULL. n is the
// value's encoded length. The body aliases b.
func SplitValue(b []byte) (k Kind, body []byte, n int, err error) {
	if n = ValueLen(b); n == 0 {
		if len(b) > 0 && !Kind(b[0]).encodable() {
			return 0, nil, 0, errBadKind
		}
		return 0, nil, 0, errTruncatedValue
	}
	switch k = Kind(b[0]); k {
	case KindNull:
		return k, nil, 1, nil
	case KindString, KindBytes:
		return k, b[5:n], n, nil
	default:
		return k, b[1:n], n, nil
	}
}

// encodable reports whether k is a kind SplitValue splits.
func (k Kind) encodable() bool {
	switch k {
	case KindNull, KindInt, KindBool, KindFloat, KindString, KindBytes:
		return true
	}
	return false
}

// Selector decodes chosen fields of encoded records, skipping (without
// materialising) the rest. It is built once per scan or fetch; storage
// methods use it to decode the fields the caller asked for straight from
// the buffer-resident record bytes.
type Selector struct {
	field []int // ascending
	slot  []int // field[i]'s index in the caller's list; nil: i itself
}

// NewSelector returns the selector of fields, in any order, duplicates
// allowed. An ascending list — the usual case — is used as given, not
// copied: the caller leaves it alone while the selector is in use.
func NewSelector(fields []int) Selector {
	if sort.IntsAreSorted(fields) {
		return Selector{field: fields}
	}
	pairs := make([]int, 2*len(fields))
	s := Selector{field: pairs[:len(fields)], slot: pairs[len(fields):]}
	for i, f := range fields { // insertion sort; lists are tiny
		j := i
		for ; j > 0 && s.field[j-1] > f; j-- {
			s.field[j], s.slot[j] = s.field[j-1], s.slot[j-1]
		}
		s.field[j], s.slot[j] = f, i
	}
	return s
}

// Width is the number of fields the selector decodes: the length of the
// list it was built from.
func (s *Selector) Width() int { return len(s.field) }

// Project decodes the selected fields of b into a new record in the
// caller's field order (Record.Project of the decoded record, without
// decoding it). A field past the record's arity is NULL.
func (s *Selector) Project(b []byte) (Record, error) {
	out := make(Record, len(s.field))
	if err := s.ProjectInto(out, b); err != nil {
		return nil, err
	}
	return out, nil
}

// ProjectInto is Project into out, of length Width.
func (s *Selector) ProjectInto(out Record, b []byte) error {
	if len(b) < 2 {
		return fmt.Errorf("types: truncated record")
	}
	clear(out)
	arity := int(binary.BigEndian.Uint16(b))
	pos, next := 2, 0
	for i := 0; i < arity && next < len(s.field); i++ {
		if s.field[next] != i {
			_, _, used, err := SplitValue(b[pos:])
			if err != nil {
				return fmt.Errorf("types: record field %d: %w", i, err)
			}
			pos += used
			continue
		}
		v, used, err := DecodeValue(b[pos:])
		if err != nil {
			return fmt.Errorf("types: record field %d: %w", i, err)
		}
		pos += used
		for ; next < len(s.field) && s.field[next] == i; next++ {
			if s.slot == nil {
				out[next] = v
			} else {
				out[s.slot[next]] = v
			}
		}
	}
	return nil
}

// Key is an opaque record key. The defining storage method controls its
// format and interpretation; access paths map access-path keys to Keys.
// Keys compare byte-wise.
type Key []byte

// Compare orders two keys byte-wise.
func (k Key) Compare(o Key) int { return cmpBytes(k, o) }

// Equal reports byte-wise equality.
func (k Key) Equal(o Key) bool { return cmpBytes(k, o) == 0 }

// Clone returns a copy of the key.
func (k Key) Clone() Key {
	out := make(Key, len(k))
	copy(out, k)
	return out
}

// String renders the key in hex for diagnostics.
func (k Key) String() string { return fmt.Sprintf("key:%x", []byte(k)) }

// EncodeKeyFields composes an order-preserving key from the given record
// fields; used by key-from-fields storage methods and index attachments.
// The key is one allocation of exactly its length.
func EncodeKeyFields(rec Record, fields []int) Key {
	if len(fields) == 0 {
		return nil
	}
	return AppendKeyFields(make(Key, 0, KeyFieldsLen(rec, fields)), rec, fields)
}

// AppendKeyFields appends EncodeKeyFields(rec, fields) to dst.
func AppendKeyFields(dst []byte, rec Record, fields []int) Key {
	for _, f := range fields {
		dst = rec[f].AppendOrderedEncode(dst)
	}
	return dst
}

// KeyFieldsLen is the length of EncodeKeyFields(rec, fields), so a caller
// composing a longer key can size it up front.
func KeyFieldsLen(rec Record, fields []int) int {
	n := 0
	for _, f := range fields {
		n += rec[f].orderedLen()
	}
	return n
}

// EncodeKeyValues composes an order-preserving key from loose values.
func EncodeKeyValues(vals ...Value) Key {
	var out []byte
	for _, v := range vals {
		out = v.AppendOrderedEncode(out)
	}
	return out
}

// DecodeKeyValues decodes all order-preserving values packed in k.
func DecodeKeyValues(k Key) ([]Value, error) {
	var out []Value
	for pos := 0; pos < len(k); {
		v, used, err := DecodeOrderedValue(k[pos:])
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		pos += used
	}
	return out, nil
}
