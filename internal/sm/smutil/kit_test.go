package smutil

import (
	"bytes"
	"testing"

	"dmx/internal/core"
	"dmx/internal/types"
)

func TestKeyColumnsAttributeAndCodec(t *testing.T) {
	schema := types.MustSchema(
		types.Column{Name: "dept", Kind: types.KindString, NotNull: true},
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
	)
	if _, err := ParseKeyColumns("btree", schema, nil); err == nil {
		t.Fatal("missing key attribute accepted")
	}
	if _, err := ParseKeyColumns("btree", schema, core.AttrList{"key": "nope"}); err == nil {
		t.Fatal("unknown key column accepted")
	}
	fields, err := ParseKeyColumns("btree", schema, core.AttrList{"key": "id, dept"})
	if err != nil || len(fields) != 2 || fields[0] != 1 || fields[1] != 0 {
		t.Fatalf("parsed %v, %v", fields, err)
	}
	// The descriptor bytes are on disk in every log that created a btree
	// or part relation: count, then two big-endian bytes per position.
	enc := AppendKeyColumns(nil, fields)
	if !bytes.Equal(enc, []byte{2, 0, 1, 0, 0}) {
		t.Fatalf("descriptor bytes = %v", enc)
	}
	got, rest, err := DecodeKeyColumns(append(enc, 0xAA))
	if err != nil || len(got) != 2 || got[0] != 1 || got[1] != 0 || !bytes.Equal(rest, []byte{0xAA}) {
		t.Fatalf("decoded %v rest %v, %v", got, rest, err)
	}
	for _, bad := range [][]byte{nil, {2, 0, 1, 0}} {
		if _, _, err := DecodeKeyColumns(bad); err == nil {
			t.Fatalf("truncated list %v accepted", bad)
		}
	}
}

func TestLoggedEffect(t *testing.T) {
	k1, k2 := types.Key{1}, types.Key{2}
	old, new := types.Record{types.Str("old")}, types.Record{types.Str("new")}
	for _, tc := range []struct {
		name     string
		p        core.ModPayload
		undo     bool
		del, put types.Key
		rec      types.Record
	}{
		{"redo insert", core.ModPayload{Op: core.ModInsert, Key: k1, New: new}, false, nil, k1, new},
		{"undo insert", core.ModPayload{Op: core.ModInsert, Key: k1, New: new}, true, k1, nil, nil},
		{"redo delete", core.ModPayload{Op: core.ModDelete, Key: k1, Old: old}, false, k1, nil, nil},
		{"undo delete", core.ModPayload{Op: core.ModDelete, Key: k1, Old: old}, true, nil, k1, old},
		{"redo update", core.ModPayload{Op: core.ModUpdate, Key: k1, NewKey: k1, Old: old, New: new}, false, nil, k1, new},
		{"undo update", core.ModPayload{Op: core.ModUpdate, Key: k1, NewKey: k1, Old: old, New: new}, true, nil, k1, old},
		{"redo move", core.ModPayload{Op: core.ModUpdate, Key: k1, NewKey: k2, Old: old, New: new}, false, k1, k2, new},
		{"undo move", core.ModPayload{Op: core.ModUpdate, Key: k1, NewKey: k2, Old: old, New: new}, true, k2, k1, old},
	} {
		e, err := LoggedEffect(core.AppendMod(nil, tc.p), tc.undo)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !e.Del.Equal(tc.del) || !e.Put.Equal(tc.put) || (e.Del == nil) != (tc.del == nil) || (e.Put == nil) != (tc.put == nil) {
			t.Errorf("%s: del %v put %v, want del %v put %v", tc.name, e.Del, e.Put, tc.del, tc.put)
		}
		if len(e.Rec) != len(tc.rec) || (len(e.Rec) > 0 && e.Rec[0].S != tc.rec[0].S) {
			t.Errorf("%s: record %v, want %v", tc.name, e.Rec, tc.rec)
		}
	}
	if _, err := LoggedEffect(core.AppendMod(nil, core.ModPayload{Op: 9, Key: k1}), false); err == nil {
		t.Error("unknown logged op accepted")
	}
}
