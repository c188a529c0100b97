package att_test

import (
	"encoding/hex"
	"testing"

	"dmx/internal/core"
	"dmx/internal/wal"
)

// TestStoredFormats pins what the attachment types leave on disk: the
// descriptor field of a def list (two instances wherever the type allows)
// and the log payload of one entry change. The bytes were written by the
// encoders of the commit before the kit existed; a log or catalog written
// then must still be readable, so a difference here is a format change.
func TestStoredFormats(t *testing.T) {
	descs := map[string]struct {
		defs []core.AttrList
		want string
	}{
		"btree": {[]core.AttrList{{"name": "b1", "on": "grp"}, {"name": "b2", "on": "id,grp", "unique": "true"}},
			"000000030200000001026231010001000000000000020262320200000001010000"},
		"hash": {[]core.AttrList{{"name": "h1", "on": "grp"}, {"name": "h2", "on": "id"}},
			"00000003020000000102683101000100000000000002026832010000000000"},
		"rtree": {[]core.AttrList{{"name": "r1", "on": "box"}, {"name": "r2", "on": "box"}},
			"00000003020000000102723101000300000000000002027232010003000000"},
		"joinindex": {[]core.AttrList{{"name": "j1", "on": "grp", "peer": "peer"}, {"name": "j2", "on": "id", "peer": "peer"}},
			"000000030200000001026a310100010000047065657200000002026a3201000000000470656572"},
		"check": {[]core.AttrList{{"name": "c1", "predicate": "nonneg"}, {"name": "c2", "predicate": "nonneg"}},
			"0000000302000000010263310000001308020100020000000001000000000000000000000000020263320000001308020100020000000001000000000000000000"},
		"refint": {[]core.AttrList{
			{"name": "f1", "role": "child", "on": "grp", "peer": "peer", "peerkey": "grp"},
			{"name": "f2", "role": "parent", "on": "id", "peer": "peer", "peerkey": "id", "action": "cascade", "timing": "deferred"}},
			"00000003020000000102663101000100000a010101010001706565720000000202663201000000000a02020201000070656572"},
		"trigger": {[]core.AttrList{{"name": "t1", "call": "guard", "events": "insert,update"}, {"name": "t2", "call": "guard"}},
			"000000030200000001027431000000060367756172640000000202743200000006076775617264"},
		"stats": {[]core.AttrList{nil},
			"00000002010000000105737461747300000000"},
		"aggregate": {[]core.AttrList{{"name": "a1", "group": "grp", "value": "val"}, {"name": "a2", "value": "val"}},
			"0000000302000000010261310000000400020002000000020261320000000400000002"},
		"unique": {[]core.AttrList{{"name": "u1", "on": "id"}, {"name": "u2", "on": "tag"}},
			"00000003020000000102753101000001000000000002027532010004010000"},
	}
	for _, at := range types10 {
		tc, ok := descs[at.name]
		if !ok {
			t.Errorf("%s: no golden descriptor", at.name)
			continue
		}
		f := newFixture(t, wal.New(), "memory", nil)
		var rd *core.RelDesc
		for _, attrs := range tc.defs {
			rd = f.create(at.name, attrs)
		}
		if got := hex.EncodeToString(rd.AttDesc[at.id]); got != tc.want {
			t.Errorf("%s descriptor:\n got %s\nwant %s", at.name, got, tc.want)
		}
	}

	// One inserted record through one instance of every type that logs.
	payloads := map[string]string{
		"btree":     "0100010000000c036100000000000000000001000000080000000000000001",
		"hash":      "0100010000000403610000000000080000000000000001",
		"rtree":     "01000100000020401c000000000000401c00000000000040200000000000004020000000000000000000080000000000000001",
		"joinindex": "0100010000000403610000000000080000000000000001",
		"stats":     "010000ffffffffffffffff",
		"aggregate": "02000100000004036100000000001040080000000000000000000000000001",
		"unique":    "010001000000050374370000ffffffff",
	}
	log := wal.New()
	f := newFixture(t, log, "memory", nil)
	for name := range payloads {
		f.create(name, byName(name).attrs("i1"))
	}
	f.insert(row{id: 7, grp: "a", val: 3, boxed: true})
	got := map[string]string{}
	for _, rec := range log.Records() {
		if rec.Owner.Class != wal.OwnerAttachment || rec.Owner.RelID != f.rel().Desc().RelID {
			continue
		}
		name := core.DefaultRegistry.AttachmentOps(core.AttID(rec.Owner.ExtID)).Name
		if _, seen := got[name]; !seen {
			got[name] = hex.EncodeToString(rec.Payload)
		}
	}
	for name, want := range payloads {
		if got[name] != want {
			t.Errorf("%s log payload:\n got %s\nwant %s", name, got[name], want)
		}
	}
}
