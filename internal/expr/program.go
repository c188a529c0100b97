package expr

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"dmx/internal/types"
)

// Program is a filter predicate compiled once for a scan, a fetch or a
// constraint. Its conjunction is flattened, and each conjunct of the form
// field op constant or field IS NULL becomes a term that Match tests on
// the field's encoded bytes in place: INT and BOOL compare as raw int64s,
// STRING and BYTES bodies byte-wise, and any other pair of kinds through
// types.Compare on the one decoded field. Match skips the fields before
// one it reads by their length alone (types.ValueLen, inlined) and tests a
// term on the one value it reads, an INT or BOOL against a constant of its
// kind inline; bytes that are malformed go through types.SplitValue, whose
// error Match reports.
// Each run of the other conjuncts stays one residual step, which the
// tree-walking Evaluator runs over the fields it reads, decoded from the
// same bytes.
//
// A term reads its constant from the filter's own constant node when it
// matches, and the compiler decides nothing on a constant's value: a
// filter whose constant nodes are rewritten between uses (a bound plan's,
// expr.BindMarkers) is compiled once and stays correct. Parameter markers
// are bound into constants before compiling; one left unbound is a
// residual the walker fails on.
//
// Steps run in the order the conjuncts were written and stop at the first
// false or failing one, as Evaluator.EvalBool does, so a Program accepts,
// rejects and fails on exactly the records the walker would. A nil Program
// (no filter) matches every record.
//
// Match reuses scratch space, so a Program serves one goroutine at a time.
type Program struct {
	ev     *Evaluator
	src    *Expr // the filter as written, for MatchRecord
	steps  []step
	fields []int        // ascending: every field a step reads
	rslots []int        // indexes into fields of those residual steps read
	off    []int        // Match scratch: where fields[i] starts in the record, -1 past its arity
	rec    types.Record // Match scratch: residual fields decoded at their own positions
}

// step is one term or one run of residual conjuncts.
type step struct {
	resid *Expr        // non-nil: a residual conjunction for the walker
	field int          // term: the field tested
	slot  int          // term: field's index in Program.fields
	op    Op           // term: a comparison, or OpIsNull
	val   *types.Value // term: the constant node's value, read when matching
}

// null is an IS NULL term's constant, which no match reads.
var null types.Value

// Compile compiles filter for evaluation through ev. It costs a few
// allocations; Match costs none per record beyond what residual steps
// decode. A nil filter compiles to a nil Program.
func Compile(ev *Evaluator, filter *Expr) *Program {
	if filter == nil {
		return nil
	}
	p := &Program{ev: ev, src: filter}
	var run *Expr
	p.add(filter, &run)
	p.flush(&run)
	var resid []int
	for i := range p.steps {
		if r := p.steps[i].resid; r != nil {
			resid = fieldsOf(r, resid)
		} else {
			p.fields = addField(p.fields, p.steps[i].field)
		}
	}
	for _, f := range resid {
		p.fields = addField(p.fields, f)
	}
	for i := range p.steps {
		p.steps[i].slot = sort.SearchInts(p.fields, p.steps[i].field)
	}
	for _, f := range resid {
		p.rslots = append(p.rslots, sort.SearchInts(p.fields, f))
	}
	p.off = make([]int, len(p.fields))
	return p
}

// add appends e's conjuncts, in order, as steps: a term, or a conjunct
// joining the residual run that the next term (or the end) flushes.
func (p *Program) add(e *Expr, run **Expr) {
	if e.Op == OpAnd && len(e.Args) == 2 {
		p.add(e.Args[0], run)
		p.add(e.Args[1], run)
		return
	}
	st, ok := term(e)
	if !ok {
		*run = And(*run, e)
		return
	}
	p.flush(run)
	p.steps = append(p.steps, st)
}

func (p *Program) flush(run **Expr) {
	if *run != nil {
		p.steps = append(p.steps, step{resid: *run})
		*run = nil
	}
}

// term compiles a conjunct Match can test in place.
func term(e *Expr) (step, bool) {
	switch e.Op {
	case OpIsNull:
		if len(e.Args) == 1 && e.Args[0].Op == OpField && e.Args[0].Field >= 0 {
			return step{field: e.Args[0].Field, op: OpIsNull, val: &null}, true
		}
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		if len(e.Args) != 2 {
			break
		}
		op, f, c := e.Op, e.Args[0], e.Args[1]
		if f.Op != OpField {
			op, f, c = flip(op), c, f
		}
		if f.Op == OpField && f.Field >= 0 && c.Op == OpConst {
			return step{field: f.Field, op: op, val: &c.Val}, true
		}
	}
	return step{}, false
}

// fieldsOf adds the fields e reads to the ascending set fs.
func fieldsOf(e *Expr, fs []int) []int {
	if e.Op == OpField && e.Field >= 0 {
		fs = addField(fs, e.Field)
	}
	for _, a := range e.Args {
		fs = fieldsOf(a, fs)
	}
	return fs
}

func addField(fs []int, f int) []int {
	i := sort.SearchInts(fs, f)
	if i < len(fs) && fs[i] == f {
		return fs
	}
	fs = append(fs, 0)
	copy(fs[i+1:], fs[i:])
	fs[i] = f
	return fs
}

// Match reports whether the record encoded in enc (Record.AppendEncode)
// satisfies the program. It walks the record's fields once, up to the last
// one a step reads, and tests each term on the bytes in place; only the
// fields residual steps read are decoded. A malformed encoding is an error
// unless the damage lies beyond every field the program reads.
func (p *Program) Match(enc []byte) (bool, error) {
	if p == nil {
		return true, nil
	}
	arity, err := p.locate(enc)
	if err != nil {
		return false, err
	}
	decoded := false
	for i := range p.steps {
		st := &p.steps[i]
		if st.resid != nil {
			if !decoded {
				if err := p.decode(enc, arity); err != nil {
					return false, err
				}
				decoded = true
			}
			if ok, err := p.ev.EvalBool(st.resid, p.rec, nil); !ok || err != nil {
				return false, err
			}
			continue
		}
		off := p.off[st.slot]
		if off < 0 {
			return false, errFieldRange(st.field, arity)
		}
		raw := enc[off:]
		n := types.ValueLen(raw)
		if n == 0 {
			return false, errField(st.field, raw)
		}
		if k, v := types.Kind(raw[0]), st.val; k == v.K && (k == types.KindInt || k == types.KindBool) {
			if !holds(st.op, cmp.Compare(int64(binary.BigEndian.Uint64(raw[1:])), v.I)) {
				return false, nil
			}
			continue
		}
		if ok, err := st.testEncoded(raw[:n]); !ok || err != nil {
			return false, err
		}
	}
	return true, nil
}

// MatchRecord reports whether an already decoded record satisfies the
// program: the walker evaluates the source filter over it.
func (p *Program) MatchRecord(rec types.Record) (bool, error) {
	if p == nil {
		return true, nil
	}
	return p.ev.EvalBool(p.src, rec, nil)
}

// locate records where each field the program reads starts in enc, and
// returns the record's arity.
func (p *Program) locate(enc []byte) (int, error) {
	if len(enc) < 2 {
		return 0, fmt.Errorf("expr: truncated record")
	}
	arity := int(binary.BigEndian.Uint16(enc))
	pos, at := 2, 0
	for i, f := range p.fields {
		if f >= arity {
			for j := i; j < len(p.fields); j++ {
				p.off[j] = -1
			}
			break
		}
		for ; at < f; at++ {
			n := types.ValueLen(enc[pos:])
			if n == 0 {
				return 0, errField(at, enc[pos:])
			}
			pos += n
		}
		p.off[i] = pos
	}
	return arity, nil
}

// decode stores the fields residual steps read at their own positions of
// the scratch record, sized to the record's arity.
func (p *Program) decode(enc []byte, arity int) error {
	if cap(p.rec) < arity {
		p.rec = make(types.Record, arity)
	}
	p.rec = p.rec[:arity]
	for _, s := range p.rslots {
		if off := p.off[s]; off >= 0 {
			v, _, err := types.DecodeValue(enc[off:])
			if err != nil {
				return fmt.Errorf("expr: record field %d: %w", p.fields[s], err)
			}
			p.rec[p.fields[s]] = v
		}
	}
	return nil
}

// test reports whether the term holds for a decoded field value. A NULL
// operand makes every comparison false.
func (st *step) test(v types.Value) bool {
	if st.op == OpIsNull {
		return v.IsNull()
	}
	return !v.IsNull() && !st.val.IsNull() && holds(st.op, types.Compare(v, *st.val))
}

// testEncoded is test on raw, one well-formed encoded value that is not
// an INT or BOOL tested against a constant of its kind (Match compares
// those inline): STRING and BYTES bodies compare byte-wise, any other
// pair of kinds through the decoded value.
func (st *step) testEncoded(raw []byte) (bool, error) {
	k, body, _, _ := types.SplitValue(raw) // no error: ValueLen measured raw
	switch v := st.val; {
	case st.op == OpIsNull:
		return k == types.KindNull, nil
	case k == types.KindNull || v.K == types.KindNull:
		return false, nil
	case k != v.K: // INT against FLOAT, or kinds ordered by their tags
		d, _, err := types.DecodeValue(raw)
		return err == nil && st.test(d), err
	case k == types.KindFloat:
		return st.test(types.Float(math.Float64frombits(binary.BigEndian.Uint64(body)))), nil
	case k == types.KindString:
		return holds(st.op, compareString(body, v.S)), nil
	default: // BYTES
		return holds(st.op, bytes.Compare(body, v.B)), nil
	}
}

// compareString orders a STRING body against s. A conversion that only
// feeds a comparison shares body's bytes, so this copies nothing.
func compareString(body []byte, s string) int {
	switch {
	case string(body) < s:
		return -1
	case string(body) > s:
		return 1
	}
	return 0
}

// errField is the error for field, whose encoded value at the start of b
// is malformed.
func errField(field int, b []byte) error {
	_, _, _, err := types.SplitValue(b)
	return fmt.Errorf("expr: record field %d: %w", field, err)
}

func errFieldRange(field, arity int) error {
	return fmt.Errorf("expr: field %d out of range (record has %d)", field, arity)
}
