package expr

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"

	"dmx/internal/types"
)

// progEv registers f, which returns its first argument (NULL without one);
// a call to any other name fails.
var progEv = func() *Evaluator {
	e := NewEvaluator()
	e.Register("f", func(args []types.Value) (types.Value, error) {
		if len(args) == 0 {
			return types.Null(), nil
		}
		return args[0], nil
	})
	return e
}()

// progParams binds slots 0 and 1; slot 2 is unbound.
var progParams = []types.Value{types.Int(1), types.Str("ab")}

const progFields = 6

// randProgValue draws field values and constants from one small pool, so
// comparisons hit equality often: NULL, INT beside FLOAT of equal value,
// BOOL, strings sharing a prefix, BYTES (a box among them).
func randProgValue(r *rand.Rand) types.Value {
	switch r.Intn(7) {
	case 0:
		return types.Null()
	case 1:
		return types.Int(int64(r.Intn(5) - 2))
	case 2:
		return types.Float(float64(r.Intn(9)-4) / 2)
	case 3:
		return types.Bool(r.Intn(2) == 0)
	case 4:
		return types.Str([]string{"", "a", "ab", "abc", "b"}[r.Intn(5)])
	case 5:
		return types.Bytes([][]byte{{}, {1}, {1, 2}, {2}}[r.Intn(4)])
	default:
		return NewBox(0, 0, float64(r.Intn(3)), 2).Value()
	}
}

// randScalar is an operand: mostly fields, constants and parameter slots
// (slot 2 unbound), sometimes arithmetic or a function call.
func randScalar(r *rand.Rand, depth int) *Expr {
	switch n := r.Intn(10); {
	case n < 4:
		return Field(r.Intn(progFields))
	case n < 7:
		return Const(randProgValue(r))
	case n < 8:
		return Param(r.Intn(3))
	case depth <= 0:
		return Field(r.Intn(progFields))
	case n < 9:
		return binOp(OpAdd+Op(r.Intn(4)), randScalar(r, depth-1), randScalar(r, depth-1))
	default:
		name := "f"
		if r.Intn(4) == 0 {
			name = "missing"
		}
		return Call(name, randScalar(r, depth-1))
	}
}

// randPred is a predicate over every op: compilable conjuncts (field op
// constant or slot, IS NULL) mixed with ones that are not.
func randPred(r *rand.Rand, depth int) *Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(6) {
		case 0:
			return IsNull(randScalar(r, depth))
		case 1:
			return binOp(OpEncloses+Op(r.Intn(2)), randScalar(r, depth), randScalar(r, depth))
		case 2:
			return randScalar(r, depth)
		default:
			return binOp(OpEq+Op(r.Intn(6)), randScalar(r, depth), randScalar(r, depth))
		}
	}
	switch r.Intn(5) {
	case 0:
		return Or(randPred(r, depth-1), randPred(r, depth-1))
	case 1:
		return Not(randPred(r, depth-1))
	default:
		return And(randPred(r, depth-1), randPred(r, depth-1))
	}
}

// randProgRecord has 0 to progFields fields, so some records are shorter
// than a field the predicate reads.
func randProgRecord(r *rand.Rand) types.Record {
	rec := make(types.Record, r.Intn(progFields+1))
	for i := range rec {
		rec[i] = randProgValue(r)
	}
	return rec
}

// checkProgram holds Match, MatchRecord and the tree walker to one answer
// on rec, and Match on a truncated encoding to an error or the answer of
// the whole one: it must not read past the damage without noticing.
func checkProgram(t *testing.T, p *Program, e *Expr, rec types.Record, cut int) {
	t.Helper()
	want, wantErr := progEv.EvalBool(e, rec, progParams)
	gotR, errR := p.MatchRecord(rec)
	enc := rec.AppendEncode(nil)
	gotE, errE := p.Match(enc)
	if (errR != nil) != (wantErr != nil) || (wantErr == nil && gotR != want) {
		t.Fatalf("%s on %v: MatchRecord %v, %v; EvalBool %v, %v", e, rec, gotR, errR, want, wantErr)
	}
	if (errE != nil) != (wantErr != nil) || (wantErr == nil && gotE != want) {
		t.Fatalf("%s on %v: Match %v, %v; EvalBool %v, %v", e, rec, gotE, errE, want, wantErr)
	}
	cut %= len(enc)
	if gotT, errT := p.Match(enc[:cut]); errT == nil && (errE != nil || gotT != gotE) {
		t.Fatalf("%s on %v cut to %d bytes: Match %v without an error; whole record %v, %v", e, rec, cut, gotT, gotE, errE)
	}
}

// fastPathCases reach each exit of Match's fast path: a field of every
// kind skipped before the tested one, INT and BOOL terms taken straight
// off the bytes, an INT field against a FLOAT constant and a BOOL field
// against an INT one (kinds differ: SplitValue and a decode), and a
// record whose arity stops short of the tested field. Cut at every
// length, each also ends inside a string whose length runs past it.
var fastPathCases = []struct {
	e   *Expr
	rec types.Record
}{
	{Eq(Field(1), Const(types.Int(1))), types.Record{types.Null(), types.Int(1)}},
	{Eq(Field(1), Const(types.Int(1))), types.Record{types.Str("abc"), types.Int(1)}},
	{Lt(Field(2), Param(0)), types.Record{types.Float(1.5), types.Bytes([]byte{7}), types.Int(0)}},
	{Ge(Field(1), Const(types.Int(2))), types.Record{types.Bool(true), types.Int(1)}},
	{Eq(Field(0), Const(types.Float(1))), types.Record{types.Int(1)}},
	{Ne(Field(0), Const(types.Bool(true))), types.Record{types.Bool(false)}},
	{Eq(Field(0), Const(types.Int(1))), types.Record{types.Bool(true)}},
	{And(Eq(Field(2), Const(types.Int(1))), Eq(Field(0), Const(types.Str("abc")))),
		types.Record{types.Str("abc"), types.Null(), types.Int(1)}},
	{Eq(Field(3), Const(types.Int(1))), types.Record{types.Int(1), types.Str("abc")}},
}

// TestMatchFastPathExits: on every fast-path case, whole and cut at every
// length, Match agrees with the walker; a string whose stated length runs
// past the record fails a term on a later field.
func TestMatchFastPathExits(t *testing.T) {
	for _, c := range fastPathCases {
		p := Compile(progEv, c.e, progParams)
		for cut := range len(c.rec.AppendEncode(nil)) {
			checkProgram(t, p, c.e, c.rec, cut)
		}
	}
	enc := types.Record{types.Str("abc"), types.Int(1)}.AppendEncode(nil)
	enc[6] = 0xff // the string's length, past the record
	p := Compile(progEv, Eq(Field(1), Const(types.Int(1))), nil)
	if ok, err := p.Match(enc); err == nil {
		t.Fatalf("Match on a string longer than its record = %v, want an error", ok)
	}
}

// TestCompiledEqualsInterpreted: over random predicates and records, a
// Program agrees with EvalBool on the answer and on whether there is an
// error, on encoded and decoded records alike, while one Program is reused
// across records of different arity. The fast-path cases run first.
func TestCompiledEqualsInterpreted(t *testing.T) {
	for i, c := range fastPathCases {
		checkProgram(t, Compile(progEv, c.e, progParams), c.e, c.rec, i)
	}
	r := rand.New(rand.NewSource(26))
	terms, residuals := 0, 0
	for i := 0; i < 3000; i++ {
		e := randPred(r, 3)
		p := Compile(progEv, e, progParams)
		for _, st := range p.steps {
			if st.resid == nil {
				terms++
			} else {
				residuals++
			}
		}
		for j := 0; j < 20; j++ {
			checkProgram(t, p, e, randProgRecord(r), r.Int())
		}
	}
	if terms < 1000 || residuals < 1000 {
		t.Fatalf("generator compiled %d terms and %d residual steps: too few of one to test it", terms, residuals)
	}
}

// TestProgramSteps: the shapes that compile to terms, the slot bound at
// compile time, and residual runs kept in conjunct order.
func TestProgramSteps(t *testing.T) {
	e := And(Eq(Field(2), Const(types.Int(7))), Lt(Const(types.Str("b")), Field(1)),
		Ge(Field(0), Param(0)), IsNull(Field(3)),
		Or(Eq(Field(4), Const(types.Int(1))), IsNull(Field(4))), Not(IsNull(Field(5))),
		Ne(Field(1), Const(types.Bytes([]byte{1}))),
		Eq(Field(0), Param(2)), Eq(Field(0), Field(1)))
	p := Compile(progEv, e, progParams)
	var got []string
	for _, st := range p.steps {
		if st.resid != nil {
			got = append(got, "resid "+st.resid.String())
		} else {
			got = append(got, st.op.String()+" $"+string(rune('0'+st.field))+" "+st.val.String())
		}
	}
	want := []string{"= $2 7", `> $1 "b"`, ">= $0 1", "IS NULL $3 NULL",
		"resid ((($4 = 1) OR ($4) IS NULL) AND NOT (($5) IS NULL))",
		"<> $1 x'01'",
		"resid (($0 = ?2) AND ($0 = $1))"}
	if len(got) != len(want) {
		t.Fatalf("steps %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d is %q, want %q", i, got[i], want[i])
		}
	}
	if Compile(progEv, nil, nil) != nil {
		t.Fatal("a nil filter compiled to a Program")
	}
	var none *Program
	if ok, err := none.Match(nil); !ok || err != nil {
		t.Fatal("a nil Program rejected a record")
	}
}

// A compiled filter tests a record in place: no allocation per record,
// whether it accepts or rejects.
func TestMatchAllocatesNothing(t *testing.T) {
	p := Compile(progEv, And(Eq(Field(2), Param(0)), Ge(Field(1), Const(types.Str("ab"))),
		Gt(Field(0), Const(types.Float(0.5)))), progParams)
	hit := types.Record{types.Int(1), types.Str("abc"), types.Int(1)}.AppendEncode(nil)
	miss := types.Record{types.Int(0), types.Str("abc"), types.Int(1)}.AppendEncode(nil)
	for _, enc := range [][]byte{hit, miss} {
		var ok bool
		if n := testing.AllocsPerRun(100, func() { ok, _ = p.Match(enc) }); n != 0 {
			t.Fatalf("Match allocates %v times per record", n)
		}
		if ok != bytes.Equal(enc, hit) {
			t.Fatalf("Match = %v", ok)
		}
	}
}

// BenchmarkMatch times one compiled filter over a scan-filter-shaped row
// (four INTs and a 150-byte string): a term on field 2, which skips two
// fields first, accepting and rejecting.
func BenchmarkMatch(b *testing.B) {
	p := Compile(progEv, Eq(Field(2), Const(types.Int(7))), nil)
	pad := types.Str(string(bytes.Repeat([]byte{'p'}, 150)))
	for _, c := range []struct {
		name string
		band int64
	}{{"accept", 7}, {"reject", 8}} {
		enc := types.Record{types.Int(1), types.Int(2), types.Int(c.band), types.Int(4), pad}.AppendEncode(nil)
		b.Run(c.name, func(b *testing.B) {
			for range b.N {
				if _, err := p.Match(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzMatch holds a Program to the tree walker on any predicate and record
// that decode, and to "no panic" on any that do not. cut truncates the
// record's encoding for the truncation check.
func FuzzMatch(f *testing.F) {
	r := rand.New(rand.NewSource(261))
	for i := 0; i < 64; i++ {
		f.Add(randPred(r, 3).AppendEncode(nil), randProgRecord(r).AppendEncode(nil), uint16(r.Intn(64)))
	}
	for i, c := range fastPathCases {
		f.Add(c.e.AppendEncode(nil), c.rec.AppendEncode(nil), uint16(3*i))
	}
	f.Fuzz(func(t *testing.T, pred, enc []byte, cut uint16) {
		e, _, err := Decode(pred)
		if err != nil {
			return
		}
		p := Compile(progEv, e, progParams)
		rec, _, err := types.DecodeRecord(enc)
		if err != nil {
			_, _ = p.Match(enc)
			return
		}
		checkProgram(t, p, e, rec, int(cut))
	})
}

// checkDescriptorPredicate is the predicate stored by the check
// constraints of internal/att/formats_test.go's golden descriptor:
// $2 >= 0.
const checkDescriptorPredicate = "08020100020000000001000000000000000000"

// FuzzDecode holds Decode to "reject, never panic": what it accepts
// re-encodes to the same bytes, and evaluates and compiles without a panic.
func FuzzDecode(f *testing.F) {
	golden, err := hex.DecodeString(checkDescriptorPredicate)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	r := rand.New(rand.NewSource(262))
	for i := 0; i < 32; i++ {
		f.Add(randPred(r, 3).AppendEncode(nil))
	}
	rec := types.Record{types.Int(1), types.Str("ab"), types.Int(-1), types.Null(), NewBox(0, 0, 1, 1).Value()}
	enc := rec.AppendEncode(nil)
	f.Fuzz(func(t *testing.T, b []byte) {
		e, n, err := Decode(b)
		if err != nil {
			return
		}
		if again := e.AppendEncode(nil); !bytes.Equal(again, b[:n]) {
			t.Fatalf("Decode(%x) = %s re-encodes to %x", b[:n], e, again)
		}
		if e != nil { // a nil predicate is "no filter": EvalBool's to judge
			_, _ = progEv.Eval(e, rec, progParams)
		}
		_, _ = progEv.EvalBool(e, rec, progParams)
		p := Compile(progEv, e, progParams)
		_, _ = p.Match(enc)
		_, _ = p.MatchRecord(rec)
	})
}

// TestCheckDescriptorPredicate pins FuzzDecode's golden seed to what it
// claims to be.
func TestCheckDescriptorPredicate(t *testing.T) {
	want := Ge(Field(2), Const(types.Int(0))).AppendEncode(nil)
	if got := hex.EncodeToString(want); got != checkDescriptorPredicate {
		t.Fatalf("$2 >= 0 encodes to %s, seed is %s", got, checkDescriptorPredicate)
	}
}
