// Package types defines the common record and field value representations
// shared by all storage method and attachment extensions.
//
// The extension architecture requires that every extension communicate
// through a single record and field-value convention (the paper's "most
// obvious interface convention"). Value is that convention: a small tagged
// union covering the field kinds the data definition language admits.
// Record is an ordered slice of Values matching a Schema, and Key is the
// opaque record-key representation whose definition and interpretation is
// controlled by the owning storage method.
package types

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the field value kinds supported by the common record
// representation.
type Kind uint8

// Supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBytes
	KindBool
)

// String returns the DDL spelling of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBytes:
		return "BYTES"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// KindFromString parses a DDL type name into a Kind.
func KindFromString(s string) (Kind, error) {
	switch strings.ToUpper(s) {
	case "INT", "INTEGER", "BIGINT":
		return KindInt, nil
	case "FLOAT", "DOUBLE", "REAL":
		return KindFloat, nil
	case "STRING", "TEXT", "VARCHAR", "CHAR":
		return KindString, nil
	case "BYTES", "BLOB":
		return KindBytes, nil
	case "BOOL", "BOOLEAN":
		return KindBool, nil
	default:
		return KindNull, fmt.Errorf("types: unknown type name %q", s)
	}
}

// Value is a single field value in the common representation. The zero
// Value is NULL.
type Value struct {
	K Kind
	I int64
	F float64
	S string
	B []byte
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an INT value.
func Int(i int64) Value { return Value{K: KindInt, I: i} }

// Float returns a FLOAT value.
func Float(f float64) Value { return Value{K: KindFloat, F: f} }

// Str returns a STRING value.
func Str(s string) Value { return Value{K: KindString, S: s} }

// Bytes returns a BYTES value. The slice is not copied.
func Bytes(b []byte) Value { return Value{K: KindBytes, B: b} }

// Bool returns a BOOL value.
func Bool(b bool) Value {
	v := Value{K: KindBool}
	if b {
		v.I = 1
	}
	return v
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// AsBool reports the truth value of a BOOL Value; non-BOOL values are false.
func (v Value) AsBool() bool { return v.K == KindBool && v.I != 0 }

// AsInt returns the integer content of an INT or BOOL value, converting
// FLOAT by truncation. NULL and other kinds return 0.
func (v Value) AsInt() int64 {
	switch v.K {
	case KindInt, KindBool:
		return v.I
	case KindFloat:
		return int64(v.F)
	default:
		return 0
	}
}

// AsFloat returns the numeric content as a float64.
func (v Value) AsFloat() float64 {
	switch v.K {
	case KindInt, KindBool:
		return float64(v.I)
	case KindFloat:
		return v.F
	default:
		return 0
	}
}

// String renders the value for display and error messages.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.S)
	case KindBytes:
		return fmt.Sprintf("x'%x'", v.B)
	case KindBool:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("Value(kind=%d)", uint8(v.K))
	}
}

// numericKinds reports whether both kinds are numeric (INT or FLOAT), in
// which case comparison coerces to float64.
func numericKinds(a, b Kind) bool {
	return (a == KindInt || a == KindFloat) && (b == KindInt || b == KindFloat)
}

// Compare orders two values. NULL sorts before every non-NULL value; INT
// and FLOAT compare numerically with each other; otherwise comparing
// values of different kinds orders by kind tag (a total order is required
// for B-tree keys). Returns -1, 0, or +1.
func Compare(a, b Value) int {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == b.K:
			return 0
		case a.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.K != b.K {
		if numericKinds(a.K, b.K) {
			return cmpFloat(a.AsFloat(), b.AsFloat())
		}
		return cmpInt(int64(a.K), int64(b.K))
	}
	switch a.K {
	case KindInt, KindBool:
		return cmpInt(a.I, b.I)
	case KindFloat:
		return cmpFloat(a.F, b.F)
	case KindString:
		return strings.Compare(a.S, b.S)
	case KindBytes:
		return cmpBytes(a.B, b.B)
	default:
		return 0
	}
}

// Equal reports whether two values compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return cmpInt(int64(len(a)), int64(len(b)))
}

// AppendEncode appends a self-delimiting binary encoding of v to dst and
// returns the extended slice. The encoding is used by the WAL, the catalog,
// and storage methods; DecodeValue reverses it.
func (v Value) AppendEncode(dst []byte) []byte {
	dst = append(dst, byte(v.K))
	switch v.K {
	case KindNull:
	case KindInt, KindBool:
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.I))
	case KindFloat:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.F))
	case KindString:
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(v.S)))
		dst = append(dst, v.S...)
	case KindBytes:
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(v.B)))
		dst = append(dst, v.B...)
	}
	return dst
}

// encodedLen is the length of v's AppendEncode encoding.
func (v *Value) encodedLen() int {
	switch v.K {
	case KindInt, KindBool, KindFloat:
		return 9
	case KindString:
		return 5 + len(v.S)
	case KindBytes:
		return 5 + len(v.B)
	}
	return 1
}

// DecodeValue decodes one value from b, returning the value and the number
// of bytes consumed.
func DecodeValue(b []byte) (Value, int, error) {
	if len(b) < 1 {
		return Value{}, 0, fmt.Errorf("types: truncated value")
	}
	k := Kind(b[0])
	switch k {
	case KindNull:
		return Value{}, 1, nil
	case KindInt, KindBool:
		if len(b) < 9 {
			return Value{}, 0, fmt.Errorf("types: truncated %v", k)
		}
		return Value{K: k, I: int64(binary.BigEndian.Uint64(b[1:]))}, 9, nil
	case KindFloat:
		if len(b) < 9 {
			return Value{}, 0, fmt.Errorf("types: truncated FLOAT")
		}
		return Float(math.Float64frombits(binary.BigEndian.Uint64(b[1:]))), 9, nil
	case KindString, KindBytes:
		if len(b) < 5 {
			return Value{}, 0, fmt.Errorf("types: truncated %v header", k)
		}
		n := int(binary.BigEndian.Uint32(b[1:]))
		if len(b) < 5+n {
			return Value{}, 0, fmt.Errorf("types: truncated %v body (want %d bytes)", k, n)
		}
		if k == KindString {
			return Str(string(b[5 : 5+n])), 5 + n, nil
		}
		body := make([]byte, n)
		copy(body, b[5:5+n])
		return Bytes(body), 5 + n, nil
	default:
		return Value{}, 0, fmt.Errorf("types: bad value kind %d", b[0])
	}
}

// AppendOrderedEncode appends an order-preserving encoding of v to dst:
// byte-wise comparison of two encodings agrees with Compare. Storage
// methods and access paths use it to compose record and index keys.
func (v Value) AppendOrderedEncode(dst []byte) []byte {
	dst = append(dst, byte(v.K))
	switch v.K {
	case KindNull:
	case KindInt, KindBool:
		// Flip the sign bit so negative values sort below positive.
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.I)^(1<<63))
	case KindFloat:
		bits := math.Float64bits(v.F)
		if bits&(1<<63) != 0 {
			bits = ^bits // negative floats: invert all bits
		} else {
			bits ^= 1 << 63 // positive floats: flip sign bit
		}
		dst = binary.BigEndian.AppendUint64(dst, bits)
	case KindString:
		dst = appendEscaped(dst, v.S)
	case KindBytes:
		dst = appendEscaped(dst, v.B)
	}
	return dst
}

// orderedLen is the length of v's AppendOrderedEncode encoding.
func (v *Value) orderedLen() int {
	switch v.K {
	case KindInt, KindBool, KindFloat:
		return 9
	case KindString:
		return 3 + len(v.S) + strings.Count(v.S, "\x00")
	case KindBytes:
		return 3 + len(v.B) + bytes.Count(v.B, []byte{0})
	}
	return 1
}

// appendEscaped writes b with 0x00 escaped as 0x00 0xFF and terminated by
// 0x00 0x00, preserving prefix ordering for variable-length values.
func appendEscaped[T string | []byte](dst []byte, b T) []byte {
	for i := 0; i < len(b); i++ {
		if c := b[i]; c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x00)
}

// DecodeOrderedValue decodes one order-preserving encoded value from b,
// returning the value and bytes consumed.
func DecodeOrderedValue(b []byte) (Value, int, error) {
	if len(b) < 1 {
		return Value{}, 0, fmt.Errorf("types: truncated ordered value")
	}
	k := Kind(b[0])
	switch k {
	case KindNull:
		return Value{}, 1, nil
	case KindInt, KindBool:
		if len(b) < 9 {
			return Value{}, 0, fmt.Errorf("types: truncated ordered %v", k)
		}
		u := binary.BigEndian.Uint64(b[1:]) ^ (1 << 63)
		return Value{K: k, I: int64(u)}, 9, nil
	case KindFloat:
		if len(b) < 9 {
			return Value{}, 0, fmt.Errorf("types: truncated ordered FLOAT")
		}
		bits := binary.BigEndian.Uint64(b[1:])
		if bits&(1<<63) != 0 {
			bits ^= 1 << 63
		} else {
			bits = ^bits
		}
		return Float(math.Float64frombits(bits)), 9, nil
	case KindString, KindBytes:
		body, n, err := decodeEscaped(b[1:])
		if err != nil {
			return Value{}, 0, err
		}
		if k == KindString {
			return Str(string(body)), 1 + n, nil
		}
		return Bytes(body), 1 + n, nil
	default:
		return Value{}, 0, fmt.Errorf("types: bad ordered value kind %d", b[0])
	}
}

func decodeEscaped(b []byte) ([]byte, int, error) {
	var out []byte
	for i := 0; i < len(b); {
		c := b[i]
		if c != 0x00 {
			out = append(out, c)
			i++
			continue
		}
		if i+1 >= len(b) {
			return nil, 0, fmt.Errorf("types: truncated escaped sequence")
		}
		switch b[i+1] {
		case 0x00:
			return out, i + 2, nil
		case 0xFF:
			out = append(out, 0x00)
			i += 2
		default:
			return nil, 0, fmt.Errorf("types: bad escape byte %#x", b[i+1])
		}
	}
	return nil, 0, fmt.Errorf("types: unterminated escaped sequence")
}
