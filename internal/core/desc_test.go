package core_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"dmx/internal/core"
	"dmx/internal/types"
	"dmx/internal/wal"
)

func randDesc(r *rand.Rand) *core.RelDesc {
	rd := &core.RelDesc{
		RelID:   r.Uint32(),
		Name:    "rel" + string(rune('a'+r.Intn(26))),
		Schema:  testSchema(),
		SM:      core.SMID(1 + r.Intn(6)),
		Version: r.Uint64(),
	}
	if r.Intn(2) == 0 {
		rd.SMDesc = make([]byte, r.Intn(40))
		r.Read(rd.SMDesc)
	}
	for i := 1; i < core.MaxAttachmentTypes; i++ {
		if r.Intn(4) == 0 {
			d := make([]byte, r.Intn(60))
			r.Read(d)
			rd.AttDesc[i] = d
		}
	}
	return rd
}

func descEqual(a, b *core.RelDesc) bool {
	if a.RelID != b.RelID || a.Name != b.Name || a.SM != b.SM || a.Version != b.Version {
		return false
	}
	if string(a.SMDesc) != string(b.SMDesc) {
		return false
	}
	for i := range a.AttDesc {
		if (a.AttDesc[i] == nil) != (b.AttDesc[i] == nil) {
			return false
		}
		if string(a.AttDesc[i]) != string(b.AttDesc[i]) {
			return false
		}
	}
	return a.Schema.NumCols() == b.Schema.NumCols()
}

func TestRelDescRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		rd := randDesc(r)
		enc := rd.AppendEncode(nil)
		got, n, err := core.DecodeRelDesc(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("consumed %d of %d", n, len(enc))
		}
		if !descEqual(rd, got) {
			t.Fatalf("round trip mismatch:\n%+v\n%+v", rd, got)
		}
	}
}

func TestRelDescEmptySMDescNormalisation(t *testing.T) {
	// A nil SMDesc and an empty SMDesc are equivalent on the wire.
	rd := &core.RelDesc{RelID: 1, Name: "t", Schema: testSchema(), SM: core.SMHeap}
	got, _, err := core.DecodeRelDesc(rd.AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.SMDesc) != 0 {
		t.Fatalf("SMDesc = %v", got.SMDesc)
	}
}

func TestRelDescOversizedAttachmentField(t *testing.T) {
	rd := &core.RelDesc{RelID: 1, Name: "t", Schema: testSchema(), SM: core.SMHeap}
	rd.AttDesc[3] = make([]byte, 0x12345) // forces the 4-byte length spill
	got, _, err := core.DecodeRelDesc(rd.AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.AttDesc[3]) != 0x12345 {
		t.Fatalf("oversized field length = %d", len(got.AttDesc[3]))
	}
}

func TestRelDescDecodeErrors(t *testing.T) {
	rd := &core.RelDesc{RelID: 1, Name: "emp", Schema: testSchema(), SM: core.SMHeap,
		SMDesc: []byte{1, 2, 3}}
	rd.AttDesc[1] = []byte{9}
	enc := rd.AppendEncode(nil)
	// Every truncation point must fail cleanly, never panic.
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := core.DecodeRelDesc(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// nonCanonicalDescs are descriptor encodings AppendEncode never writes,
// each a one-field edit of a valid encoding of relation "t" over
// testSchema: a NOT NULL flag other than 0 or 1, a column kind no value
// has, and a 2-byte attachment field in the 4-byte-length form.
func nonCanonicalDescs() [][]byte {
	rd := &core.RelDesc{RelID: 1, Name: "t", Schema: testSchema(), SM: core.SMHeap}
	enc := rd.AppendEncode(nil)
	const firstCol = 4 + 2 + 1 + 2 // RelID, name length, "t", column count
	notNull := append([]byte(nil), enc...)
	notNull[firstCol+1] = 0x30
	kind := append([]byte(nil), enc...)
	kind[firstCol] = 200
	fields := len(enc) - 2*(core.MaxAttachmentTypes-1) // all NULL: 0xFFFF each
	long := append([]byte(nil), enc[:fields]...)
	long = append(long, 0xFF, 0xFE, 0, 0, 0, 2, 'a', 'b')
	long = append(long, enc[fields+2:]...)
	return [][]byte{notNull, kind, long}
}

func TestRelDescDecodeRejectsNonCanonical(t *testing.T) {
	for i, b := range nonCanonicalDescs() {
		if rd, _, err := core.DecodeRelDesc(b); err == nil {
			t.Errorf("case %d: %x accepted as %+v", i, b, rd)
		}
	}
	// A field of exactly 0xFFFE bytes cannot use the short form, whose
	// length would read as the escape.
	rd := &core.RelDesc{RelID: 1, Name: "t", Schema: testSchema(), SM: core.SMHeap}
	rd.AttDesc[2] = make([]byte, 0xFFFE)
	enc := rd.AppendEncode(nil)
	if got, n, err := core.DecodeRelDesc(enc); err != nil || n != len(enc) || len(got.AttDesc[2]) != 0xFFFE {
		t.Fatalf("0xFFFE-byte attachment field: %v (consumed %d of %d)", err, n, len(enc))
	}
}

// FuzzDecodeRelDesc holds the relation descriptor decoder, which the
// catalog's log records and checkpoints read through, to "reject, never
// panic": what it accepts re-encodes to the bytes it consumed.
func FuzzDecodeRelDesc(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 3; i++ {
		f.Add(randDesc(r).AppendEncode(nil))
	}
	for _, b := range nonCanonicalDescs() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		rd, n, err := core.DecodeRelDesc(b)
		if err != nil {
			return
		}
		if again := rd.AppendEncode(nil); !bytes.Equal(again, b[:n]) {
			t.Fatalf("DecodeRelDesc(%x) = %+v re-encodes to %x", b[:n], rd, again)
		}
	})
}

// TestRelationNameFitsItsDescriptor refuses a name the descriptor's
// uint16 length cannot carry, before anything is logged, and recovers the
// longest one that fits.
func TestRelationNameFitsItsDescriptor(t *testing.T) {
	log := wal.New()
	env := core.NewEnv(core.Config{Log: log})
	tx := env.Begin()
	if _, err := env.CreateRelation(tx, strings.Repeat("n", 70000), testSchema(), "memory", nil); err == nil {
		t.Fatal("70 000-byte relation name accepted")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	name := strings.Repeat("n", 0xFFFF)
	mkRel(t, env, name, "memory")
	env2 := core.NewEnv(core.Config{Log: log})
	if err := env2.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, ok := env2.Cat.ByName(name); !ok {
		t.Fatal("0xFFFF-byte relation name not recovered")
	}
}

func TestRelDescCloneIsDeep(t *testing.T) {
	rd := &core.RelDesc{RelID: 1, Name: "t", Schema: testSchema(), SM: core.SMHeap,
		SMDesc: []byte{1}}
	rd.AttDesc[2] = []byte{7}
	c := rd.Clone()
	c.SMDesc[0] = 9
	c.AttDesc[2][0] = 9
	if rd.SMDesc[0] != 1 || rd.AttDesc[2][0] != 7 {
		t.Fatal("Clone shares descriptor bytes")
	}
}

func TestAttachmentTypesAndHas(t *testing.T) {
	rd := &core.RelDesc{}
	rd.AttDesc[3] = []byte{1}
	rd.AttDesc[7] = []byte{1}
	got := rd.AttachmentTypes()
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("AttachmentTypes = %v", got)
	}
	if !rd.HasAttachment(3) || rd.HasAttachment(4) {
		t.Fatal("HasAttachment")
	}
}

func TestModPayloadRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 300; i++ {
		p := core.ModPayload{Op: core.ModOp(1 + r.Intn(3))}
		if r.Intn(4) > 0 {
			p.Key = make(types.Key, r.Intn(12))
			r.Read(p.Key)
		}
		if r.Intn(2) == 0 {
			p.NewKey = make(types.Key, r.Intn(12))
			r.Read(p.NewKey)
		}
		if r.Intn(2) == 0 {
			p.Old = rec(int64(i), "old")
		}
		if r.Intn(2) == 0 {
			p.New = rec(int64(i), "new")
		}
		got, err := core.DecodeMod(core.AppendMod(nil, p))
		if err != nil {
			t.Fatal(err)
		}
		if got.Op != p.Op || string(got.Key) != string(p.Key) || string(got.NewKey) != string(p.NewKey) {
			t.Fatalf("round trip: %+v vs %+v", got, p)
		}
		if (got.Old == nil) != (p.Old == nil) || (got.New == nil) != (p.New == nil) {
			t.Fatalf("record presence: %+v vs %+v", got, p)
		}
		if p.Old != nil && !got.Old.Equal(p.Old) {
			t.Fatal("old record mismatch")
		}
	}
	if _, err := core.DecodeMod(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := core.DecodeMod([]byte{1, 0}); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestEntryPayloadRoundTrip(t *testing.T) {
	p := core.EntryPayload{Op: core.ModDelete, Instance: 300, EntryKey: types.Key{1, 2}, RecKey: types.Key{3}}
	got, err := core.DecodeEntry(core.EncodeEntry(p))
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != p.Op || got.Instance != 300 || string(got.EntryKey) != string(p.EntryKey) || string(got.RecKey) != string(p.RecKey) {
		t.Fatalf("round trip: %+v", got)
	}
	// Nil keys survive (distinct from empty).
	p2 := core.EntryPayload{Op: core.ModInsert}
	got2, err := core.DecodeEntry(core.EncodeEntry(p2))
	if err != nil || got2.EntryKey != nil || got2.RecKey != nil {
		t.Fatalf("nil keys: %+v %v", got2, err)
	}
	if _, err := core.DecodeEntry([]byte{1}); err == nil {
		t.Error("short entry accepted")
	}
}

func TestModOpString(t *testing.T) {
	for _, op := range []core.ModOp{core.ModInsert, core.ModUpdate, core.ModDelete, core.ModOp(9)} {
		if op.String() == "" {
			t.Error("empty op name")
		}
	}
}
