package expr

import (
	"fmt"
	"math/rand"
	"testing"

	"dmx/internal/types"
)

var ev = NewEvaluator()

func evalOn(t *testing.T, e *Expr, rec types.Record) types.Value {
	t.Helper()
	v, err := ev.Eval(e, rec, nil)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return v
}

func TestComparisons(t *testing.T) {
	rec := types.Record{types.Int(10), types.Str("bob"), types.Float(2.5)}
	for _, tc := range []struct {
		e    *Expr
		want bool
	}{
		{Eq(Field(0), Const(types.Int(10))), true},
		{Eq(Field(0), Const(types.Int(11))), false},
		{Ne(Field(0), Const(types.Int(11))), true},
		{Lt(Field(0), Const(types.Int(11))), true},
		{Le(Field(0), Const(types.Int(10))), true},
		{Gt(Field(0), Const(types.Int(9))), true},
		{Ge(Field(0), Const(types.Int(10))), true},
		{Ge(Field(0), Const(types.Int(11))), false},
		{Eq(Field(1), Const(types.Str("bob"))), true},
		{Gt(Field(2), Const(types.Int(2))), true}, // cross numeric
		{Eq(Const(types.Int(10)), Field(0)), true},
	} {
		if got := evalOn(t, tc.e, rec); got.AsBool() != tc.want {
			t.Errorf("%s = %v, want %v", tc.e, got, tc.want)
		}
	}
}

func TestBooleanLogicAndShortCircuit(t *testing.T) {
	rec := types.Record{types.Int(1)}
	tr := Eq(Field(0), Const(types.Int(1)))
	fa := Eq(Field(0), Const(types.Int(2)))
	// err would fire only if evaluated: field out of range
	boom := Eq(Field(9), Const(types.Int(1)))

	if !evalOn(t, And(tr, tr), rec).AsBool() {
		t.Error("AND true")
	}
	if evalOn(t, And(tr, fa), rec).AsBool() {
		t.Error("AND false")
	}
	if !evalOn(t, Or(fa, tr), rec).AsBool() {
		t.Error("OR true")
	}
	if !evalOn(t, Not(fa), rec).AsBool() {
		t.Error("NOT")
	}
	// Short circuit: AND with false left must not evaluate right.
	if v, err := ev.Eval(And(fa, boom), rec, nil); err != nil || v.AsBool() {
		t.Errorf("AND short-circuit: %v, %v", v, err)
	}
	if v, err := ev.Eval(Or(tr, boom), rec, nil); err != nil || !v.AsBool() {
		t.Errorf("OR short-circuit: %v, %v", v, err)
	}
}

func TestNullSemantics(t *testing.T) {
	rec := types.Record{types.Null()}
	if evalOn(t, Eq(Field(0), Const(types.Int(1))), rec).AsBool() {
		t.Error("NULL = x should be false")
	}
	if evalOn(t, Ne(Field(0), Const(types.Int(1))), rec).AsBool() {
		t.Error("NULL <> x should be false")
	}
	if !evalOn(t, IsNull(Field(0)), rec).AsBool() {
		t.Error("IS NULL false negative")
	}
	if evalOn(t, IsNull(Const(types.Int(1))), rec).AsBool() {
		t.Error("IS NULL false positive")
	}
}

func TestArithmetic(t *testing.T) {
	rec := types.Record{types.Int(7), types.Float(2)}
	for _, tc := range []struct {
		e    *Expr
		want types.Value
	}{
		{Add(Field(0), Const(types.Int(3))), types.Int(10)},
		{Sub(Field(0), Const(types.Int(3))), types.Int(4)},
		{Mul(Field(0), Const(types.Int(3))), types.Int(21)},
		{Div(Field(0), Const(types.Int(2))), types.Int(3)},
		{Add(Field(0), Field(1)), types.Float(9)},
		{Div(Field(1), Const(types.Float(0.5))), types.Float(4)},
		{Add(Field(0), Const(types.Null())), types.Null()},
	} {
		if got := evalOn(t, tc.e, rec); !types.Equal(got, tc.want) {
			t.Errorf("%s = %v, want %v", tc.e, got, tc.want)
		}
	}
	if _, err := ev.Eval(Div(Field(0), Const(types.Int(0))), rec, nil); err == nil {
		t.Error("int div by zero should error")
	}
	if _, err := ev.Eval(Div(Field(1), Const(types.Float(0))), rec, nil); err == nil {
		t.Error("float div by zero should error")
	}
	if _, err := ev.Eval(Add(Const(types.Str("x")), Const(types.Int(1))), rec, nil); err == nil {
		t.Error("string arithmetic should error")
	}
}

func TestParams(t *testing.T) {
	rec := types.Record{types.Int(5)}
	e := Eq(Field(0), Param(0))
	ok, err := ev.EvalBool(e, rec, []types.Value{types.Int(5)})
	if err != nil || !ok {
		t.Fatalf("param eval: %v %v", ok, err)
	}
	ok, err = ev.EvalBool(e, rec, []types.Value{types.Int(6)})
	if err != nil || ok {
		t.Fatalf("param eval false: %v %v", ok, err)
	}
	if _, err := ev.Eval(Param(3), rec, nil); err == nil {
		t.Error("unbound param should error")
	}
}

// TestBind: binding copies only the spine above a marker, leaves the
// expression it was given untouched, and returns a marker-free expression
// as is.
func TestBind(t *testing.T) {
	free := Gt(Field(1), Const(types.Int(3)))
	e := And(Eq(Field(0), Param(1)), free)
	params := []types.Value{types.Str("unused"), types.Int(7)}
	got := Bind(e, params)
	if got.String() != "(($0 = 7) AND ($1 > 3))" || e.String() != "(($0 = ?1) AND ($1 > 3))" {
		t.Fatalf("Bind = %s, original now %s", got, e)
	}
	if got.Args[1] != free || got.Args[0].Args[0] != e.Args[0].Args[0] {
		t.Error("Bind copied a subtree without a marker")
	}
	if Bind(free, params) != free || Bind(nil, params) != nil {
		t.Error("Bind copied a marker-free expression")
	}
	if Bind(e, params[:1]).Args[0].Args[1].Op != OpParam {
		t.Error("a marker with no value was replaced")
	}
	if NumParams(e) != 2 || NumParams(free) != 0 || NumParams(nil) != 0 {
		t.Errorf("NumParams = %d, %d", NumParams(e), NumParams(free))
	}
}

func TestFunctions(t *testing.T) {
	local := NewEvaluator()
	local.Register("abs", func(args []types.Value) (types.Value, error) {
		if len(args) != 1 {
			return types.Null(), fmt.Errorf("abs wants 1 arg")
		}
		x := args[0].AsInt()
		if x < 0 {
			x = -x
		}
		return types.Int(x), nil
	})
	rec := types.Record{types.Int(-9)}
	v, err := local.Eval(Call("ABS", Field(0)), rec, nil)
	if err != nil || v.AsInt() != 9 {
		t.Fatalf("abs: %v %v", v, err)
	}
	if _, err := local.Eval(Call("nope", Field(0)), rec, nil); err == nil {
		t.Error("unknown function should error")
	}
	if _, err := local.Eval(Call("abs"), rec, nil); err == nil {
		t.Error("arity error should propagate")
	}
}

func TestEvalBoolNil(t *testing.T) {
	ok, err := ev.EvalBool(nil, nil, nil)
	if err != nil || !ok {
		t.Fatal("nil predicate should be TRUE")
	}
}

func TestFieldOutOfRange(t *testing.T) {
	if _, err := ev.Eval(Field(2), types.Record{types.Int(1)}, nil); err == nil {
		t.Error("out-of-range field should error")
	}
}

func TestConjuncts(t *testing.T) {
	a := Eq(Field(0), Const(types.Int(1)))
	b := Gt(Field(1), Const(types.Int(2)))
	c := Lt(Field(2), Const(types.Int(3)))
	all := And(a, b, c)
	cs := Conjuncts(all)
	if len(cs) != 3 {
		t.Fatalf("Conjuncts = %d, want 3", len(cs))
	}
	if Conjuncts(nil) != nil {
		t.Error("Conjuncts(nil)")
	}
	if got := Conjuncts(a); len(got) != 1 || got[0] != a {
		t.Error("single conjunct")
	}
	if And() != nil {
		t.Error("And() should be nil")
	}
	if And(nil, a, nil) != a {
		t.Error("And with nils should collapse")
	}
}

func TestMatchFieldCompare(t *testing.T) {
	fc, ok := MatchFieldCompare(Eq(Field(2), Const(types.Int(7))))
	if !ok || fc.Field != 2 || fc.Op != OpEq || fc.Value.AsInt() != 7 {
		t.Fatalf("MatchFieldCompare = %+v, %v", fc, ok)
	}
	// Flipped operand order must flip the operator.
	fc, ok = MatchFieldCompare(Lt(Const(types.Int(7)), Field(1)))
	if !ok || fc.Field != 1 || fc.Op != OpGt {
		t.Fatalf("flipped MatchFieldCompare = %+v, %v", fc, ok)
	}
	if _, ok := MatchFieldCompare(And(Field(0), Field(1))); ok {
		t.Error("AND should not match")
	}
	if _, ok := MatchFieldCompare(Eq(Field(0), Field(1))); ok {
		t.Error("field-field should not match")
	}
	if _, ok := MatchFieldCompare(nil); ok {
		t.Error("nil should not match")
	}
}

func randExpr(r *rand.Rand, depth int) *Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(3) {
		case 0:
			return Const(types.Int(r.Int63n(100)))
		case 1:
			return Field(r.Intn(5))
		default:
			return Param(r.Intn(3))
		}
	}
	switch r.Intn(8) {
	case 0:
		return Eq(randExpr(r, depth-1), randExpr(r, depth-1))
	case 1:
		return Lt(randExpr(r, depth-1), randExpr(r, depth-1))
	case 2:
		return And(randExpr(r, depth-1), randExpr(r, depth-1))
	case 3:
		return Or(randExpr(r, depth-1), randExpr(r, depth-1))
	case 4:
		return Not(randExpr(r, depth-1))
	case 5:
		return Add(randExpr(r, depth-1), randExpr(r, depth-1))
	case 6:
		return IsNull(randExpr(r, depth-1))
	default:
		return Call("f", randExpr(r, depth-1), randExpr(r, depth-1))
	}
}

func exprEqual(a, b *Expr) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Op != b.Op || a.Field != b.Field || a.Name != b.Name || !types.Equal(a.Val, b.Val) || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !exprEqual(a.Args[i], b.Args[i]) {
			return false
		}
	}
	return true
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		e := randExpr(r, 4)
		enc := e.AppendEncode(nil)
		got, n, err := Decode(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("decode %s: %v (n=%d/%d)", e, err, n, len(enc))
		}
		if !exprEqual(e, got) {
			t.Fatalf("round trip mismatch: %s -> %s", e, got)
		}
	}
	// nil round-trips
	enc := (*Expr)(nil).AppendEncode(nil)
	got, n, err := Decode(enc)
	if err != nil || got != nil || n != 1 {
		t.Fatal("nil expr round trip")
	}
	// error cases: truncation, a bad op, wrong arity, a missing operand
	notNil := Not(Field(0)).AppendEncode(nil)
	for _, b := range [][]byte{{}, {200}, {byte(OpField), 0}, {byte(OpFunc), 0},
		{byte(OpEq), 0}, {byte(OpNot), 2, 0xFF, 0xFF}, {byte(OpIsNull), 1, 0xFF},
		append([]byte{byte(OpField), 0, 0, 0, 0, 1}, notNil...)} {
		if _, _, err := Decode(b); err == nil {
			t.Errorf("Decode(%v) should fail", b)
		}
	}
}

func TestString(t *testing.T) {
	e := And(Eq(NamedField(0, "id"), Const(types.Int(3))), Gt(Field(1), Param(0)))
	got := e.String()
	want := "((id = 3) AND ($1 > ?0))"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if (*Expr)(nil).String() != "TRUE" {
		t.Error("nil String")
	}
	if Call("f", Field(0)).String() != "f($0)" {
		t.Error("func String")
	}
	if IsNull(Field(0)).String() != "($0) IS NULL" {
		t.Error("isnull String")
	}
	if Not(Field(0)).String() != "NOT ($0)" {
		t.Error("not String")
	}
}

func TestBoxPredicates(t *testing.T) {
	big := NewBox(0, 0, 10, 10)
	small := NewBox(2, 2, 3, 3)
	off := NewBox(20, 20, 30, 30)
	touch := NewBox(10, 0, 20, 10)

	if !big.Encloses(small) || small.Encloses(big) {
		t.Error("Encloses")
	}
	if !big.Overlaps(small) || !big.Overlaps(touch) || big.Overlaps(off) {
		t.Error("Overlaps")
	}
	if big.Area() != 100 {
		t.Error("Area")
	}
	u := small.Union(off)
	if !u.Encloses(small) || !u.Encloses(off) {
		t.Error("Union")
	}
	if small.Enlargement(small) != 0 {
		t.Error("Enlargement of self should be 0")
	}
	// Corner normalisation
	n := NewBox(5, 6, 1, 2)
	if n.XMin != 1 || n.YMin != 2 || n.XMax != 5 || n.YMax != 6 {
		t.Error("NewBox normalisation")
	}
	if n.String() == "" {
		t.Error("Box String")
	}
}

func TestBoxValueRoundTrip(t *testing.T) {
	b := NewBox(1.5, -2, 3, 4.25)
	got, err := DecodeBox(b.Value())
	if err != nil || got != b {
		t.Fatalf("box round trip: %v %v", got, err)
	}
	if _, err := DecodeBox(types.Int(3)); err == nil {
		t.Error("non-bytes box should fail")
	}
	if _, err := DecodeBox(types.Bytes(make([]byte, 5))); err == nil {
		t.Error("short box should fail")
	}
}

func TestSpatialExprEval(t *testing.T) {
	rec := types.Record{NewBox(2, 2, 3, 3).Value()}
	q := NewBox(0, 0, 10, 10)
	enc := Encloses(Const(q.Value()), Field(0))
	if !evalOn(t, enc, rec).AsBool() {
		t.Error("ENCLOSES should hold")
	}
	ovl := Overlaps(Field(0), Const(NewBox(2.5, 2.5, 9, 9).Value()))
	if !evalOn(t, ovl, rec).AsBool() {
		t.Error("OVERLAPS should hold")
	}
	none := Overlaps(Field(0), Const(NewBox(8, 8, 9, 9).Value()))
	if evalOn(t, none, rec).AsBool() {
		t.Error("OVERLAPS should not hold")
	}
	// NULL operand yields false
	nullRec := types.Record{types.Null()}
	if evalOn(t, Encloses(Const(q.Value()), Field(0)), nullRec).AsBool() {
		t.Error("ENCLOSES with NULL should be false")
	}
	// Bad box errors
	badRec := types.Record{types.Str("not a box")}
	if _, err := ev.Eval(Encloses(Const(q.Value()), Field(0)), badRec, nil); err == nil {
		t.Error("bad box should error")
	}
}

func TestOpString(t *testing.T) {
	if OpEq.String() != "=" || Op(200).String() == "" {
		t.Error("Op.String")
	}
}
