// Package expr implements the common predicate-evaluation service of the
// data management extension architecture.
//
// Storage methods and access-path attachments receive filter predicates and
// evaluate them against records whose field values are still resident in
// the extension's buffer pool (early filtering): a scan compiles its filter
// once into a Program, which compares fields against constants on the
// encoded record bytes in place. Integrity-constraint attachments compile
// theirs the same way. The tree-walking Evaluator runs whatever a Program
// cannot compile, and is the reference a Program is tested against. The
// evaluator can call functions that are passed to it by name, and both
// constant and variable (parameter) data can appear as operands.
package expr

import (
	"encoding/binary"
	"fmt"
	"strings"

	"dmx/internal/types"
)

// Op identifies an expression node kind.
type Op uint8

// Expression node kinds.
const (
	OpConst Op = iota // literal value
	OpField           // record field reference by position
	OpParam           // bound variable (parameter marker) by position
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpNot
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpIsNull
	OpFunc     // user function call by name
	OpEncloses // spatial: box(arg0) encloses box(arg1)
	OpOverlaps // spatial: box(arg0) overlaps box(arg1)
)

var opNames = map[Op]string{
	OpConst: "const", OpField: "field", OpParam: "param",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR", OpNot: "NOT",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpIsNull: "IS NULL", OpFunc: "func",
	OpEncloses: "ENCLOSES", OpOverlaps: "OVERLAPS",
}

// String returns the display name of the operator.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Expr is a node of a filter-predicate or scalar expression tree. Exprs are
// immutable after construction and safe to share between transactions,
// except the copies BindMarkers makes for one owner.
type Expr struct {
	Op    Op
	Val   types.Value // OpConst
	Field int         // OpField: column index; OpParam: parameter index
	Name  string      // OpFunc: function name; OpField: optional display name
	Args  []*Expr
}

// Const returns a literal node.
func Const(v types.Value) *Expr { return &Expr{Op: OpConst, Val: v} }

// Field returns a field-reference node for column index i.
func Field(i int) *Expr { return &Expr{Op: OpField, Field: i} }

// NamedField returns a field-reference node that also carries a display name.
func NamedField(i int, name string) *Expr { return &Expr{Op: OpField, Field: i, Name: name} }

// Param returns a parameter-marker node for parameter index i.
func Param(i int) *Expr { return &Expr{Op: OpParam, Field: i} }

func binOp(op Op, a, b *Expr) *Expr { return &Expr{Op: op, Args: []*Expr{a, b}} }

// Eq builds a = b.
func Eq(a, b *Expr) *Expr { return binOp(OpEq, a, b) }

// Ne builds a <> b.
func Ne(a, b *Expr) *Expr { return binOp(OpNe, a, b) }

// Lt builds a < b.
func Lt(a, b *Expr) *Expr { return binOp(OpLt, a, b) }

// Le builds a <= b.
func Le(a, b *Expr) *Expr { return binOp(OpLe, a, b) }

// Gt builds a > b.
func Gt(a, b *Expr) *Expr { return binOp(OpGt, a, b) }

// Ge builds a >= b.
func Ge(a, b *Expr) *Expr { return binOp(OpGe, a, b) }

// And builds the conjunction of the given predicates (nil for none).
func And(es ...*Expr) *Expr {
	var out *Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = binOp(OpAnd, out, e)
		}
	}
	return out
}

// Or builds a OR b.
func Or(a, b *Expr) *Expr { return binOp(OpOr, a, b) }

// Not builds NOT a.
func Not(a *Expr) *Expr { return &Expr{Op: OpNot, Args: []*Expr{a}} }

// Add builds a + b.
func Add(a, b *Expr) *Expr { return binOp(OpAdd, a, b) }

// Sub builds a - b.
func Sub(a, b *Expr) *Expr { return binOp(OpSub, a, b) }

// Mul builds a * b.
func Mul(a, b *Expr) *Expr { return binOp(OpMul, a, b) }

// Div builds a / b.
func Div(a, b *Expr) *Expr { return binOp(OpDiv, a, b) }

// IsNull builds a IS NULL.
func IsNull(a *Expr) *Expr { return &Expr{Op: OpIsNull, Args: []*Expr{a}} }

// Call builds an invocation of the named registered function.
func Call(name string, args ...*Expr) *Expr { return &Expr{Op: OpFunc, Name: name, Args: args} }

// Encloses builds the spatial predicate box(a) ENCLOSES box(b).
func Encloses(a, b *Expr) *Expr { return binOp(OpEncloses, a, b) }

// Overlaps builds the spatial predicate box(a) OVERLAPS box(b).
func Overlaps(a, b *Expr) *Expr { return binOp(OpOverlaps, a, b) }

// Func is a user function callable from predicates.
type Func func(args []types.Value) (types.Value, error)

// Evaluator is the common-service predicate evaluator. It holds the
// function registry; the zero value (or nil) evaluates predicates that use
// no functions. Evaluators are safe for concurrent use after registration.
type Evaluator struct {
	funcs map[string]Func
}

// NewEvaluator returns an evaluator with an empty function registry.
func NewEvaluator() *Evaluator { return &Evaluator{funcs: make(map[string]Func)} }

// Register installs fn under name (case-insensitive), replacing any prior
// registration.
func (ev *Evaluator) Register(name string, fn Func) {
	ev.funcs[strings.ToLower(name)] = fn
}

// errDivZero is returned for integer or float division by zero.
var errDivZero = fmt.Errorf("expr: division by zero")

// Eval evaluates e against rec and params. Comparison of NULL with any
// value yields FALSE (use IS NULL to test for NULL). The evaluator does
// not copy rec; field references index directly into it.
func (ev *Evaluator) Eval(e *Expr, rec types.Record, params []types.Value) (types.Value, error) {
	switch e.Op {
	case OpConst:
		return e.Val, nil
	case OpField:
		if e.Field < 0 || e.Field >= len(rec) {
			return types.Null(), errFieldRange(e.Field, len(rec))
		}
		return rec[e.Field], nil
	case OpParam:
		if e.Field < 0 || e.Field >= len(params) {
			return types.Null(), fmt.Errorf("expr: parameter %d out of range (%d bound)", e.Field, len(params))
		}
		return params[e.Field], nil
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		a, err := ev.Eval(e.Args[0], rec, params)
		if err != nil {
			return types.Null(), err
		}
		b, err := ev.Eval(e.Args[1], rec, params)
		if err != nil {
			return types.Null(), err
		}
		if a.IsNull() || b.IsNull() {
			return types.Bool(false), nil
		}
		return types.Bool(holds(e.Op, types.Compare(a, b))), nil
	case OpAnd:
		a, err := ev.Eval(e.Args[0], rec, params)
		if err != nil {
			return types.Null(), err
		}
		if !a.AsBool() {
			return types.Bool(false), nil
		}
		return ev.Eval(e.Args[1], rec, params)
	case OpOr:
		a, err := ev.Eval(e.Args[0], rec, params)
		if err != nil {
			return types.Null(), err
		}
		if a.AsBool() {
			return types.Bool(true), nil
		}
		return ev.Eval(e.Args[1], rec, params)
	case OpNot:
		a, err := ev.Eval(e.Args[0], rec, params)
		if err != nil {
			return types.Null(), err
		}
		return types.Bool(!a.AsBool()), nil
	case OpAdd, OpSub, OpMul, OpDiv:
		a, err := ev.Eval(e.Args[0], rec, params)
		if err != nil {
			return types.Null(), err
		}
		b, err := ev.Eval(e.Args[1], rec, params)
		if err != nil {
			return types.Null(), err
		}
		return arith(e.Op, a, b)
	case OpIsNull:
		a, err := ev.Eval(e.Args[0], rec, params)
		if err != nil {
			return types.Null(), err
		}
		return types.Bool(a.IsNull()), nil
	case OpFunc:
		var fn Func
		if ev != nil {
			fn = ev.funcs[strings.ToLower(e.Name)]
		}
		if fn == nil {
			return types.Null(), fmt.Errorf("expr: unknown function %q", e.Name)
		}
		args := make([]types.Value, len(e.Args))
		for i, a := range e.Args {
			v, err := ev.Eval(a, rec, params)
			if err != nil {
				return types.Null(), err
			}
			args[i] = v
		}
		return fn(args)
	case OpEncloses, OpOverlaps:
		a, err := ev.Eval(e.Args[0], rec, params)
		if err != nil {
			return types.Null(), err
		}
		b, err := ev.Eval(e.Args[1], rec, params)
		if err != nil {
			return types.Null(), err
		}
		if a.IsNull() || b.IsNull() {
			return types.Bool(false), nil
		}
		ba, err := DecodeBox(a)
		if err != nil {
			return types.Null(), err
		}
		bb, err := DecodeBox(b)
		if err != nil {
			return types.Null(), err
		}
		if e.Op == OpEncloses {
			return types.Bool(ba.Encloses(bb)), nil
		}
		return types.Bool(ba.Overlaps(bb)), nil
	default:
		return types.Null(), fmt.Errorf("expr: bad op %v", e.Op)
	}
}

// EvalBool evaluates a predicate to its truth value; NULL and non-BOOL
// results are false.
func (ev *Evaluator) EvalBool(e *Expr, rec types.Record, params []types.Value) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := ev.Eval(e, rec, params)
	if err != nil {
		return false, err
	}
	return v.AsBool(), nil
}

// holds reports whether op holds for the three-way comparison result c.
func holds(op Op, c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

func arith(op Op, a, b types.Value) (types.Value, error) {
	if a.IsNull() || b.IsNull() {
		return types.Null(), nil
	}
	if a.K == types.KindFloat || b.K == types.KindFloat {
		x, y := a.AsFloat(), b.AsFloat()
		switch op {
		case OpAdd:
			return types.Float(x + y), nil
		case OpSub:
			return types.Float(x - y), nil
		case OpMul:
			return types.Float(x * y), nil
		default:
			if y == 0 {
				return types.Null(), errDivZero
			}
			return types.Float(x / y), nil
		}
	}
	if a.K != types.KindInt || b.K != types.KindInt {
		return types.Null(), fmt.Errorf("expr: arithmetic on non-numeric values %v, %v", a, b)
	}
	x, y := a.I, b.I
	switch op {
	case OpAdd:
		return types.Int(x + y), nil
	case OpSub:
		return types.Int(x - y), nil
	case OpMul:
		return types.Int(x * y), nil
	default:
		if y == 0 {
			return types.Null(), errDivZero
		}
		return types.Int(x / y), nil
	}
}

// String renders the expression in SQL-ish infix form.
func (e *Expr) String() string {
	if e == nil {
		return "TRUE"
	}
	switch e.Op {
	case OpConst:
		return e.Val.String()
	case OpField:
		if e.Name != "" {
			return e.Name
		}
		return fmt.Sprintf("$%d", e.Field)
	case OpParam:
		return fmt.Sprintf("?%d", e.Field)
	case OpNot:
		return fmt.Sprintf("NOT (%s)", e.Args[0])
	case OpIsNull:
		return fmt.Sprintf("(%s) IS NULL", e.Args[0])
	case OpFunc:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = a.String()
		}
		return fmt.Sprintf("%s(%s)", e.Name, strings.Join(parts, ", "))
	default:
		if len(e.Args) == 2 {
			return fmt.Sprintf("(%s %s %s)", e.Args[0], e.Op, e.Args[1])
		}
		return e.Op.String()
	}
}

// Conjuncts flattens the AND-tree rooted at e into its conjunct list. The
// query planner hands this list to storage methods and attachments as the
// "eligible predicates" whose relevance they judge.
func Conjuncts(e *Expr) []*Expr {
	if e == nil {
		return nil
	}
	return appendConjuncts(nil, e)
}

func appendConjuncts(out []*Expr, e *Expr) []*Expr {
	if e.Op == OpAnd {
		return appendConjuncts(appendConjuncts(out, e.Args[0]), e.Args[1])
	}
	return append(out, e)
}

// Bind returns e with every parameter marker that params covers replaced by
// a constant holding its value. Only the nodes on a path from the root to a
// marker are copied, and e itself comes back when it has none, so binding a
// parameter-free expression costs nothing.
func Bind(e *Expr, params []types.Value) *Expr {
	if e == nil {
		return nil
	}
	if e.Op == OpParam {
		if e.Field >= 0 && e.Field < len(params) {
			return Const(params[e.Field])
		}
		return e
	}
	var args []*Expr
	for i, a := range e.Args {
		if b := Bind(a, params); b != a {
			if args == nil {
				args = append([]*Expr(nil), e.Args...)
			}
			args[i] = b
		}
	}
	if args == nil {
		return e
	}
	c := *e
	c.Args = args
	return &c
}

// Marker is one parameter marker of an expression BindMarkers copied: the
// constant node that took its place and the parameter it stands for.
type Marker struct {
	Node  *Expr // OpConst
	Param int
}

// BindMarkers returns e with every parameter marker replaced by a constant
// node of its own, appending those nodes to marks. Only the nodes on a path
// from the root to a marker are copied, and e itself comes back when it
// has none. The copy is its caller's: unlike every other Expr, its
// constant nodes are written, each Node.Val set to the value of its
// parameter before each use, so one copy serves any number of bindings,
// one at a time, without allocating.
func BindMarkers(e *Expr, marks []Marker) (*Expr, []Marker) {
	if e == nil {
		return nil, marks
	}
	if e.Op == OpParam {
		c := Const(types.Value{})
		return c, append(marks, Marker{Node: c, Param: e.Field})
	}
	var args []*Expr
	for i, a := range e.Args {
		var b *Expr
		if b, marks = BindMarkers(a, marks); b != a {
			if args == nil {
				args = append([]*Expr(nil), e.Args...)
			}
			args[i] = b
		}
	}
	if args == nil {
		return e, marks
	}
	c := *e
	c.Args = args
	return &c, marks
}

// NumParams returns how many parameter values e needs bound: its highest
// parameter index plus one, 0 when it has no marker.
func NumParams(e *Expr) int {
	if e == nil {
		return 0
	}
	n := 0
	if e.Op == OpParam {
		n = e.Field + 1
	}
	for _, a := range e.Args {
		n = max(n, NumParams(a))
	}
	return n
}

// FieldCompare describes a conjunct of the form <field> <op> <constant>,
// the shape access-path cost estimators recognise as "relevant".
type FieldCompare struct {
	Field int
	Op    Op
	Value types.Value
}

// MatchFieldCompare recognises field-vs-constant comparisons (in either
// operand order, with the operator flipped as needed).
func MatchFieldCompare(e *Expr) (FieldCompare, bool) {
	if e == nil || len(e.Args) != 2 {
		return FieldCompare{}, false
	}
	switch e.Op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
	default:
		return FieldCompare{}, false
	}
	a, b := e.Args[0], e.Args[1]
	if a.Op == OpField && b.Op == OpConst {
		return FieldCompare{Field: a.Field, Op: e.Op, Value: b.Val}, true
	}
	if a.Op == OpConst && b.Op == OpField {
		return FieldCompare{Field: b.Field, Op: flip(e.Op), Value: a.Val}, true
	}
	return FieldCompare{}, false
}

func flip(op Op) Op {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return op
	}
}

// encode/decode: a compact prefix encoding used to persist predicates in
// attachment descriptors (e.g. single-record integrity constraints).

// AppendEncode appends a binary encoding of e to dst. A nil expression
// encodes as a single 0xFF byte.
func (e *Expr) AppendEncode(dst []byte) []byte {
	if e == nil {
		return append(dst, 0xFF)
	}
	dst = append(dst, byte(e.Op))
	switch e.Op {
	case OpConst:
		dst = e.Val.AppendEncode(dst)
	case OpField, OpParam:
		dst = binary.BigEndian.AppendUint16(dst, uint16(e.Field))
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(e.Name)))
		dst = append(dst, e.Name...)
	case OpFunc:
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(e.Name)))
		dst = append(dst, e.Name...)
	}
	dst = append(dst, byte(len(e.Args)))
	for _, a := range e.Args {
		dst = a.AppendEncode(dst)
	}
	return dst
}

// Decode decodes an expression encoded by AppendEncode, returning the
// expression and bytes consumed.
func Decode(b []byte) (*Expr, int, error) {
	if len(b) < 1 {
		return nil, 0, fmt.Errorf("expr: truncated expression")
	}
	if b[0] == 0xFF {
		return nil, 1, nil
	}
	e := &Expr{Op: Op(b[0])}
	if _, ok := opNames[e.Op]; !ok {
		return nil, 0, fmt.Errorf("expr: bad op byte %d", b[0])
	}
	pos := 1
	switch e.Op {
	case OpConst:
		v, n, err := types.DecodeValue(b[pos:])
		if err != nil {
			return nil, 0, err
		}
		e.Val = v
		pos += n
	case OpField, OpParam:
		if len(b) < pos+4 {
			return nil, 0, fmt.Errorf("expr: truncated field ref")
		}
		e.Field = int(binary.BigEndian.Uint16(b[pos:]))
		nameLen := int(binary.BigEndian.Uint16(b[pos+2:]))
		pos += 4
		if len(b) < pos+nameLen {
			return nil, 0, fmt.Errorf("expr: truncated field name")
		}
		e.Name = string(b[pos : pos+nameLen])
		pos += nameLen
	case OpFunc:
		if len(b) < pos+2 {
			return nil, 0, fmt.Errorf("expr: truncated func name len")
		}
		nameLen := int(binary.BigEndian.Uint16(b[pos:]))
		pos += 2
		if len(b) < pos+nameLen {
			return nil, 0, fmt.Errorf("expr: truncated func name")
		}
		e.Name = string(b[pos : pos+nameLen])
		pos += nameLen
	}
	if len(b) < pos+1 {
		return nil, 0, fmt.Errorf("expr: truncated arity")
	}
	nArgs := int(b[pos])
	pos++
	if want := arity(e.Op); want >= 0 && nArgs != want {
		return nil, 0, fmt.Errorf("expr: %v takes %d operands, not %d", e.Op, want, nArgs)
	}
	for i := 0; i < nArgs; i++ {
		a, n, err := Decode(b[pos:])
		if err != nil {
			return nil, 0, err
		}
		if a == nil {
			return nil, 0, fmt.Errorf("expr: %v operand %d is missing", e.Op, i)
		}
		e.Args = append(e.Args, a)
		pos += n
	}
	return e, pos, nil
}

// arity is the number of operands an op takes, -1 for any (a function
// call, whose function checks its own).
func arity(op Op) int {
	switch op {
	case OpConst, OpField, OpParam:
		return 0
	case OpNot, OpIsNull:
		return 1
	case OpFunc:
		return -1
	default:
		return 2
	}
}
