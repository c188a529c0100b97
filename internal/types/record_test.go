package types

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func empSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Column{Name: "id", Kind: KindInt, NotNull: true},
		Column{Name: "name", Kind: KindString, NotNull: true},
		Column{Name: "salary", Kind: KindFloat},
		Column{Name: "active", Kind: KindBool},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaRejectsDuplicates(t *testing.T) {
	_, err := NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "A", Kind: KindInt})
	if err == nil {
		t.Fatal("duplicate (case-insensitive) column names accepted")
	}
	_, err = NewSchema(Column{Name: "", Kind: KindInt})
	if err == nil {
		t.Fatal("empty column name accepted")
	}
}

// TestNewSchemaRejectsWhatCannotEncode holds a schema to its encoding's
// uint16 counts and to the kinds a value can have.
func TestNewSchemaRejectsWhatCannotEncode(t *testing.T) {
	long := strings.Repeat("c", 0xFFFF)
	if _, err := NewSchema(Column{Name: long + "c", Kind: KindInt}); err == nil {
		t.Fatal("column name of 0x10000 bytes accepted")
	}
	s, err := NewSchema(Column{Name: long, Kind: KindInt})
	if err != nil {
		t.Fatalf("column name of 0xFFFF bytes: %v", err)
	}
	if got, _, err := DecodeSchema(s.AppendEncode(nil)); err != nil || got.Cols[0].Name != long {
		t.Fatalf("0xFFFF-byte column name does not round-trip: %v", err)
	}
	cols := make([]Column, 0x10000)
	for i := range cols {
		cols[i] = Column{Name: "c" + strconv.Itoa(i), Kind: KindInt}
	}
	if _, err := NewSchema(cols...); err == nil {
		t.Fatal("0x10000 columns accepted")
	}
	if _, err := NewSchema(cols[:0xFFFF]...); err != nil {
		t.Fatalf("0xFFFF columns: %v", err)
	}
	for _, k := range []Kind{KindNull, KindBool + 1, 200} {
		if _, err := NewSchema(Column{Name: "a", Kind: k}); err == nil {
			t.Fatalf("column kind %v accepted", k)
		}
	}
}

func TestColIndex(t *testing.T) {
	s := empSchema(t)
	if s.ColIndex("name") != 1 || s.ColIndex("NAME") != 1 {
		t.Error("ColIndex case-insensitive lookup failed")
	}
	if s.ColIndex("nope") != -1 {
		t.Error("missing column should be -1")
	}
	if s.NumCols() != 4 {
		t.Error("NumCols")
	}
}

func TestSchemaValidate(t *testing.T) {
	s := empSchema(t)
	good := Record{Int(1), Str("bob"), Float(10.5), Bool(true)}
	if err := s.Validate(good); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	withNull := Record{Int(1), Str("bob"), Null(), Null()}
	if err := s.Validate(withNull); err != nil {
		t.Fatalf("nullable NULLs rejected: %v", err)
	}
	for _, bad := range []Record{
		{Int(1), Str("bob")},                 // arity
		{Null(), Str("bob"), Null(), Null()}, // NULL in NOT NULL
		{Int(1), Int(5), Null(), Null()},     // kind mismatch
		{Int(1), Str("b"), Str("x"), Null()}, // kind mismatch float col
	} {
		if err := s.Validate(bad); err == nil {
			t.Errorf("invalid record accepted: %v", bad)
		}
	}
}

func TestSchemaEncodeDecode(t *testing.T) {
	s := empSchema(t)
	enc := s.AppendEncode(nil)
	got, n, err := DecodeSchema(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("decode: %v (n=%d/%d)", err, n, len(enc))
	}
	if got.NumCols() != s.NumCols() {
		t.Fatal("column count mismatch")
	}
	for i := range s.Cols {
		if got.Cols[i] != s.Cols[i] {
			t.Errorf("col %d: %+v != %+v", i, got.Cols[i], s.Cols[i])
		}
	}
	if _, _, err := DecodeSchema([]byte{0}); err == nil {
		t.Error("truncated schema accepted")
	}
	// The NOT NULL flag is 0 or 1; any other byte is not what AppendEncode
	// writes.
	bad := append([]byte(nil), enc...)
	bad[3] = 0x30
	if _, _, err := DecodeSchema(bad); err == nil {
		t.Error("NOT NULL flag 0x30 accepted")
	}
}

func TestRecordCloneIsDeep(t *testing.T) {
	r := Record{Bytes([]byte{1, 2, 3}), Str("x")}
	c := r.Clone()
	c[0].B[0] = 9
	if r[0].B[0] != 1 {
		t.Fatal("Clone shared BYTES backing array")
	}
	if !r.Equal(Record{Bytes([]byte{1, 2, 3}), Str("x")}) {
		t.Fatal("original mutated")
	}
}

func TestRecordEqualAndProject(t *testing.T) {
	r := Record{Int(1), Str("a"), Float(2)}
	if !r.Equal(Record{Int(1), Str("a"), Float(2)}) {
		t.Error("Equal false negative")
	}
	if r.Equal(Record{Int(1), Str("a")}) {
		t.Error("Equal arity false positive")
	}
	if r.Equal(Record{Int(1), Str("b"), Float(2)}) {
		t.Error("Equal value false positive")
	}
	p := r.Project([]int{2, 0})
	if !p.Equal(Record{Float(2), Int(1)}) {
		t.Errorf("Project = %v", p)
	}
}

func TestRecordString(t *testing.T) {
	r := Record{Int(1), Str("a")}
	if got := r.String(); got != `(1, "a")` {
		t.Errorf("String = %q", got)
	}
}

func TestRecordEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		rec := make(Record, r.Intn(8))
		for j := range rec {
			rec[j] = randValue(r)
		}
		enc := rec.AppendEncode(nil)
		if i%50 == 0 { // one growth per encoding, however many fields
			if n := testing.AllocsPerRun(10, func() { rec.AppendEncode(nil) }); n != 1 {
				t.Fatalf("encoding %v allocates %v times, want 1", rec, n)
			}
		}
		got, n, err := DecodeRecord(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("decode: %v (n=%d/%d)", err, n, len(enc))
		}
		if !rec.Equal(got) {
			t.Fatalf("round trip %v -> %v", rec, got)
		}
	}
	if _, _, err := DecodeRecord([]byte{0, 3, byte(KindInt)}); err == nil {
		t.Error("truncated record accepted")
	}
	if _, _, err := DecodeRecord(nil); err == nil {
		t.Error("empty record buffer accepted")
	}
}

func TestKeyHelpers(t *testing.T) {
	k := EncodeKeyValues(Int(5), Str("x"))
	k2 := EncodeKeyValues(Int(5), Str("x"))
	if !k.Equal(k2) {
		t.Fatal("deterministic key encoding broken")
	}
	vals, err := DecodeKeyValues(k)
	if err != nil || len(vals) != 2 || !Equal(vals[0], Int(5)) || !Equal(vals[1], Str("x")) {
		t.Fatalf("DecodeKeyValues = %v, %v", vals, err)
	}
	c := k.Clone()
	c[0] = 0xFF
	if k.Equal(c) {
		t.Fatal("Clone not independent")
	}
	if k.String() == "" {
		t.Fatal("String empty")
	}
	rec := Record{Int(1), Str("b"), Int(3)}
	kf := EncodeKeyFields(rec, []int{2, 1})
	want := EncodeKeyValues(Int(3), Str("b"))
	if !kf.Equal(want) {
		t.Fatal("EncodeKeyFields mismatch")
	}
}

// EncodeKeyFields sizes its key before encoding: one allocation of
// exactly the key's length, whatever the fields hold — zero bytes that
// escape to two, strings longer than a conversion's stack buffer.
func TestEncodeKeyFieldsAllocatesOnce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	recs := []Record{
		{Str(strings.Repeat("long\x00string ", 8)), Bytes([]byte{0, 0, 1}), Int(-4)},
		{Null(), Str(""), Float(-2.5), Bool(true)},
	}
	for range 200 {
		rec := make(Record, 1+r.Intn(6))
		for j := range rec {
			rec[j] = randValue(r)
		}
		recs = append(recs, rec)
	}
	for _, rec := range recs {
		fields := r.Perm(len(rec))
		var want []byte
		for _, f := range fields {
			want = rec[f].AppendOrderedEncode(want)
		}
		got := EncodeKeyFields(rec, fields)
		if !bytes.Equal(got, want) || cap(got) != len(want) || KeyFieldsLen(rec, fields) != len(want) {
			t.Fatalf("EncodeKeyFields(%v, %v) = %x (cap %d), want %x", rec, fields, got, cap(got), want)
		}
		if n := testing.AllocsPerRun(10, func() { EncodeKeyFields(rec, fields) }); n != 1 {
			t.Fatalf("EncodeKeyFields(%v, %v) allocates %v times, want 1", rec, fields, n)
		}
	}
}

func TestKeyOrderingComposite(t *testing.T) {
	// Composite keys must order field-by-field.
	a := EncodeKeyValues(Int(1), Str("z"))
	b := EncodeKeyValues(Int(2), Str("a"))
	if a.Compare(b) != -1 {
		t.Fatal("composite key ordering broken")
	}
	c := EncodeKeyValues(Int(1), Str("a"))
	if c.Compare(a) != -1 {
		t.Fatal("second field ordering broken")
	}
}

func TestSelector(t *testing.T) {
	rec := Record{Int(7), Str("skip-me"), Float(2.5), Bytes([]byte{1, 2}), Null()}
	enc := rec.AppendEncode(nil)

	project := func(fields ...int) (Record, error) {
		sel := NewSelector(fields)
		return sel.Project(enc)
	}
	// Empty field set: nothing materialised.
	got, err := project()
	if err != nil || len(got) != 0 {
		t.Fatalf("empty fields: %v %v", got, err)
	}
	// Last field requested: all prior fields skipped, value correct.
	got, err = project(4)
	if err != nil || len(got) != 1 || !got[0].IsNull() {
		t.Fatalf("last field: %v %v", got, err)
	}
	got, err = project(3)
	if err != nil || !Equal(got[0], Bytes([]byte{1, 2})) {
		t.Fatalf("bytes field: %v %v", got, err)
	}
	// Projection: caller's order, duplicates, a field past the arity.
	sel := NewSelector([]int{2, 0, 2, 9})
	out, err := sel.Project(enc)
	if err != nil || !out.Equal(Record{Float(2.5), Int(7), Float(2.5), Null()}) {
		t.Fatalf("project: %v %v", out, err)
	}
	sel = NewSelector([]int{0, 0, 3}) // ascending: used as given
	out, err = sel.Project(enc)
	if err != nil || !out.Equal(Record{Int(7), Int(7), Bytes([]byte{1, 2})}) {
		t.Fatalf("ascending project: %v %v", out, err)
	}
	// Errors on corrupt input.
	sel = NewSelector([]int{2})
	if _, err := sel.Project(nil); err == nil {
		t.Error("nil input accepted by Project")
	}
	if _, err := sel.Project(enc[:1]); err == nil {
		t.Error("truncated header accepted by Project")
	}
	if _, err := sel.Project(enc[:5]); err == nil {
		t.Error("truncated input accepted")
	}
}

// TestShortSelectorIsInline: an unsorted list of up to shortSelector
// fields is held in the Selector itself, so building it allocates
// nothing and a copy of it selects the same fields; a longer one still
// projects in the caller's order.
func TestShortSelectorIsInline(t *testing.T) {
	fields := []int{2, 1}
	var sel Selector
	if n := testing.AllocsPerRun(100, func() { sel = NewSelector(fields) }); n != 0 {
		t.Errorf("NewSelector(%v): %v allocations, want 0", fields, n)
	}
	rec := Record{Int(0), Int(1), Int(2), Int(3), Int(4), Int(5), Int(6), Int(7), Int(8), Int(9)}
	enc := rec.AppendEncode(nil)
	copied := sel
	if got, err := copied.Project(enc); err != nil || !got.Equal(Record{Int(2), Int(1)}) {
		t.Errorf("a copy of the short selector projects %v, %v", got, err)
	}
	long := []int{9, 8, 7, 6, 5, 4, 3, 2, 1}
	sel = NewSelector(long)
	if got, err := sel.Project(enc); err != nil || !got.Equal(rec.Project(long)) || sel.Width() != len(long) {
		t.Errorf("the long selector projects %v, %v (width %d)", got, err, sel.Width())
	}
}

func TestSelectorMatchesFullDecodeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		rec := make(Record, 1+r.Intn(8))
		for j := range rec {
			rec[j] = randValue(r)
		}
		enc := rec.AppendEncode(nil)
		// SplitValue walks the encoding field by field without decoding.
		pos := 2
		for j, v := range rec {
			k, body, n, err := SplitValue(enc[pos:])
			want := v.AppendEncode(nil)
			if err != nil || k != v.K || n != len(want) || string(body) != string(want[len(want)-len(body):]) {
				t.Fatalf("SplitValue field %d of %v: kind %v, body %x, n %d, %v", j, rec, k, body, n, err)
			}
			if _, _, _, err := SplitValue(enc[pos : pos+n-1]); err == nil {
				t.Fatalf("SplitValue accepted field %d of %v cut short", j, rec)
			}
			pos += n
		}
		// A random list of fields, in random order.
		var fields []int
		for j := range rec {
			if r.Intn(2) == 0 {
				fields = append(fields, j)
			}
		}
		r.Shuffle(len(fields), func(a, b int) { fields[a], fields[b] = fields[b], fields[a] })
		sel := NewSelector(fields)
		out, err := sel.Project(enc)
		if err != nil || !out.Equal(rec.Project(fields)) {
			t.Fatalf("project %v: %v != %v (%v)", fields, out, rec.Project(fields), err)
		}
	}
}
