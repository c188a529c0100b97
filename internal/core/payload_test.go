package core_test

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"dmx/internal/core"
	"dmx/internal/types"
)

// goldenEntries are internal/att/formats_test.go's golden log payloads, an
// entry change through each attachment type that logs (hash and joinindex
// write the same bytes).
var goldenEntries = []string{
	"0100010000000c036100000000000000000001000000080000000000000001",
	"0100010000000403610000000000080000000000000001",
	"01000100000020401c000000000000401c00000000000040200000000000004020000000000000000000080000000000000001",
	"010000ffffffffffffffff",
	"02000100000004036100000000001040080000000000000000000000000001",
	"010001000000050374370000ffffffff",
}

// FuzzDecodeEntry holds the entry payload decoder to "reject, never
// panic": what it accepts encodes to a payload that decodes to the same
// entry.
func FuzzDecodeEntry(f *testing.F) {
	for _, h := range goldenEntries {
		b, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := core.DecodeEntry(b)
		if err != nil {
			return
		}
		enc := core.EncodeEntry(p)
		again, err := core.DecodeEntry(enc)
		if err != nil || !reflect.DeepEqual(again, p) {
			t.Fatalf("DecodeEntry(%x) = %+v; re-encoded it decodes to %+v, %v", b, p, again, err)
		}
		if appended := core.AppendEntry([]byte{0xAB}, p); appended[0] != 0xAB || !bytes.Equal(appended[1:], enc) {
			t.Fatalf("AppendEntry after one byte wrote %x, want ab%x", appended, enc)
		}
	})
}

// FuzzDecodeMod holds the storage-method modification payload decoder, the
// one every method's replay reads through, to "reject, never panic": what
// it accepts re-encodes to identical bytes. Bytes, not values, are
// compared, because a NaN field never equals itself.
func FuzzDecodeMod(f *testing.F) {
	k1, k2 := types.Key{0, 0, 0, 0, 0, 0, 0, 1}, types.Key{0, 0, 0, 1, 0, 0, 0, 0}
	old := types.Record{types.Int(1), types.Str("old"), types.Null()}
	moved := types.Record{types.Int(1), types.Str("a longer new value"), types.Float(math.NaN())}
	for _, p := range []core.ModPayload{
		{Op: core.ModInsert, Key: k1, New: old},
		{Op: core.ModUpdate, Key: k1, NewKey: k2, Old: old, New: moved},
		{Op: core.ModDelete, Key: k2, Old: moved},
	} {
		f.Add(core.AppendMod(nil, p))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := core.DecodeMod(b)
		if err != nil {
			return
		}
		if again := core.AppendMod(nil, p); !bytes.Equal(again, b) {
			t.Fatalf("DecodeMod(%x) = %+v re-encodes to %x", b, p, again)
		}
		if again := core.AppendMod([]byte{0xAB}, p); again[0] != 0xAB || !bytes.Equal(again[1:], b) {
			t.Fatalf("AppendMod after one byte wrote %x, want ab%x", again, b)
		}
	})
}

var payloadSink []byte

// BenchmarkAppendMod encodes an update payload, the largest a write logs,
// into a fresh slice and into a reused buffer (AppendMod, as
// LogSM does).
func BenchmarkAppendMod(b *testing.B) {
	p := core.ModPayload{
		Op:     core.ModUpdate,
		Key:    types.Key{0, 0, 0, 0, 0, 0, 0, 1},
		NewKey: types.Key{0, 0, 0, 0, 0, 0, 0, 2},
		Old:    types.Record{types.Int(1), types.Str("old value"), types.Float(2.5)},
		New:    types.Record{types.Int(1), types.Str("a longer new value"), types.Float(3.5)},
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			payloadSink = core.AppendMod(nil, p)
		}
	})
	b.Run("reused", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = core.AppendMod(buf[:0], p)
		}
		payloadSink = buf
	})
}
