package attutil

import (
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dmx/internal/core"
	"dmx/internal/types"
)

func TestDefsRoundTrip(t *testing.T) {
	defs := []IndexDef{
		{Seq: 1, Name: "a", Fields: []int{0, 2}, Unique: true, Extra: []byte{9}},
		{Seq: 7, Name: "b", Fields: nil, Unique: false, Extra: nil},
	}
	enc := EncodeDefs(8, defs)
	next, got, err := DecodeDefs(enc)
	if err != nil || next != 8 || len(got) != 2 {
		t.Fatalf("decode: %v next=%d n=%d", err, next, len(got))
	}
	if got[0].Seq != 1 || got[0].Name != "a" || !got[0].Unique || len(got[0].Fields) != 2 || got[0].Extra[0] != 9 {
		t.Fatalf("def 0 = %+v", got[0])
	}
	if got[1].Seq != 7 || got[1].Name != "b" {
		t.Fatalf("def 1 = %+v", got[1])
	}
	if _, _, err := DecodeDefs([]byte{1, 2}); err == nil {
		t.Error("truncated defs accepted")
	}
}

func TestAddRemoveDef(t *testing.T) {
	field, err := AddDef(nil, IndexDef{Name: "first", Fields: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	field, err = AddDef(field, IndexDef{Name: "second", Fields: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	_, defs, _ := DecodeDefs(field)
	if len(defs) != 2 || defs[0].Seq != 1 || defs[1].Seq != 2 {
		t.Fatalf("defs = %+v", defs)
	}
	// Duplicate names rejected (case-insensitive).
	if _, err := AddDef(field, IndexDef{Name: "FIRST"}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	// Remove middle; Seq numbering of survivors unchanged.
	field, err = RemoveDef(field, "first")
	if err != nil {
		t.Fatal(err)
	}
	_, defs, _ = DecodeDefs(field)
	if len(defs) != 1 || defs[0].Name != "second" || defs[0].Seq != 2 {
		t.Fatalf("after remove = %+v", defs)
	}
	// Seq counter continues: a new def does not reuse seq 1.
	field, _ = AddDef(field, IndexDef{Name: "third"})
	_, defs, _ = DecodeDefs(field)
	if defs[1].Seq != 3 {
		t.Fatalf("seq reuse: %+v", defs)
	}
	// Removing the last instance keeps the descriptor (empty list): the
	// Seq counter must survive so re-created instances get fresh Seqs.
	field, _ = RemoveDef(field, "second")
	field, err = RemoveDef(field, "third")
	if err != nil || field == nil {
		t.Fatalf("final remove: %v %v", field, err)
	}
	next, defs, _ := DecodeDefs(field)
	if next != 4 || len(defs) != 0 {
		t.Fatalf("after final remove: next=%d defs=%+v", next, defs)
	}
	field, _ = AddDef(field, IndexDef{Name: "fourth"})
	_, defs, _ = DecodeDefs(field)
	if len(defs) != 1 || defs[0].Seq != 4 {
		t.Fatalf("seq reuse after drop-all: %+v", defs)
	}
	if _, err := RemoveDef(EncodeDefs(1, nil), "ghost"); err == nil {
		t.Fatal("removing unknown def should fail")
	}
}

func TestParseColumns(t *testing.T) {
	s := types.MustSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindString},
	)
	fields, err := ParseColumns(s, core.AttrList{"on": "b, a"})
	if err != nil || len(fields) != 2 || fields[0] != 1 || fields[1] != 0 {
		t.Fatalf("ParseColumns = %v, %v", fields, err)
	}
	if _, err := ParseColumns(s, core.AttrList{}); err == nil {
		t.Error("missing on= accepted")
	}
	if _, err := ParseColumns(s, core.AttrList{"on": "zzz"}); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestInstanceName(t *testing.T) {
	if got := InstanceName(core.AttrList{"name": "custom"}, nil); got != "custom" {
		t.Errorf("explicit name = %q", got)
	}
	if got := InstanceName(nil, nil); got != "ix1" {
		t.Errorf("default name = %q", got)
	}
	field, _ := AddDef(nil, IndexDef{Name: "x"})
	if got := InstanceName(nil, field); got != "ix2" {
		t.Errorf("second default name = %q", got)
	}
}

func TestFieldsChanged(t *testing.T) {
	oldRec := types.Record{types.Int(1), types.Str("a"), types.Float(2)}
	same := types.Record{types.Int(1), types.Str("a"), types.Float(9)}
	if FieldsChanged([]int{0, 1}, oldRec, same) {
		t.Error("unchanged fields reported changed")
	}
	if !FieldsChanged([]int{2}, oldRec, same) {
		t.Error("changed field missed")
	}
	if !FieldsChanged([]int{5}, oldRec, same) {
		t.Error("out-of-range field should be treated as changed")
	}
}

// AddDef refuses what the stored formats cannot carry instead of letting
// EncodeDefs truncate a length byte or a log record name another instance.
func TestAddDefRefusesWhatTheCodecCannotCarry(t *testing.T) {
	full := make([]IndexDef, 255)
	for i := range full {
		full[i] = IndexDef{Seq: uint32(i + 1), Name: fmt.Sprintf("ix%d", i+1)}
	}
	for _, tc := range []struct {
		what  string
		prior []byte
		def   IndexDef
		ok    bool
	}{
		{"a 255-byte name", nil, IndexDef{Name: strings.Repeat("n", 255)}, true},
		{"a 256-byte name", nil, IndexDef{Name: strings.Repeat("n", 256)}, false},
		{"the 255th instance", EncodeDefs(255, full[:254]), IndexDef{Name: "last"}, true},
		{"the 256th instance", EncodeDefs(256, full), IndexDef{Name: "over"}, false},
		{"255 fields", nil, IndexDef{Name: "f", Fields: make([]int, 255)}, true},
		{"256 fields", nil, IndexDef{Name: "f", Fields: make([]int, 256)}, false},
		{"65 535 bytes of Extra", nil, IndexDef{Name: "x", Extra: make([]byte, 1<<16-1)}, true},
		{"65 536 bytes of Extra", nil, IndexDef{Name: "x", Extra: make([]byte, 1<<16)}, false},
		{"Seq 65 535", EncodeDefs(1<<16-1, nil), IndexDef{Name: "s"}, true},
		{"Seq 65 536", EncodeDefs(1<<16, nil), IndexDef{Name: "s"}, false},
	} {
		field, err := AddDef(tc.prior, tc.def)
		if !tc.ok {
			if err == nil {
				t.Errorf("%s accepted", tc.what)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s refused: %v", tc.what, err)
			continue
		}
		// What was accepted must come back as it went in.
		_, defs, err := DecodeDefs(field)
		if err != nil {
			t.Errorf("%s: %v", tc.what, err)
			continue
		}
		got := defs[len(defs)-1]
		if got.Name != tc.def.Name || len(got.Fields) != len(tc.def.Fields) || len(got.Extra) != len(tc.def.Extra) {
			t.Errorf("%s did not round-trip", tc.what)
		}
		if got.Seq > 1<<16-1 {
			t.Errorf("%s: Seq %d does not fit a log record", tc.what, got.Seq)
		}
	}
}

// goldenDefs are internal/att/formats_test.go's golden descriptor fields,
// one per attachment type that keeps a def list.
var goldenDefs = []string{
	"000000030200000001026231010001000000000000020262320200000001010000",
	"00000003020000000102683101000100000000000002026832010000000000",
	"00000003020000000102723101000300000000000002027232010003000000",
	"000000030200000001026a310100010000047065657200000002026a3201000000000470656572",
	"0000000302000000010263310000001308020100020000000001000000000000000000000000020263320000001308020100020000000001000000000000000000",
	"00000003020000000102663101000100000a010101010001706565720000000202663201000000000a02020201000070656572",
	"000000030200000001027431000000060367756172640000000202743200000006076775617264",
	"00000002010000000105737461747300000000",
	"0000000302000000010261310000000400020002000000020261320000000400000002",
	"00000003020000000102753101000001000000000002027532010004010000",
}

// FuzzDecodeDefs holds the descriptor decoder to "reject, never panic":
// what it accepts encodes to a field that decodes to the same list.
func FuzzDecodeDefs(f *testing.F) {
	for _, h := range goldenDefs {
		b, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		next, defs, err := DecodeDefs(b)
		if err != nil {
			return
		}
		next2, defs2, err := DecodeDefs(EncodeDefs(next, defs))
		if err != nil || next2 != next || !reflect.DeepEqual(defs2, defs) {
			t.Fatalf("DecodeDefs(%x) = %d %+v; re-encoded it decodes to %d %+v, %v", b, next, defs, next2, defs2, err)
		}
	})
}
