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

// Program is a filter predicate compiled once for a scan or a constraint.
// Its conjunction is flattened, and each conjunct of the form field op
// constant, field op parameter (bound when compiling) or field IS NULL
// becomes a term that Match tests on the field's encoded bytes in place:
// INT and BOOL compare as raw int64s, STRING and BYTES bodies byte-wise,
// and any other pair of kinds through types.Compare on the one decoded
// field. Each run of the other conjuncts stays one residual step, which
// the tree-walking Evaluator runs over the fields it reads, decoded from
// the same bytes.
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
	params []types.Value
	steps  []step
	fields []int        // ascending: every field a step reads
	rslots []int        // indexes into fields of those residual steps read
	off    []int        // Match scratch: where fields[i] starts in the record, -1 past its arity
	rec    types.Record // Match scratch: residual fields decoded at their own positions
}

// step is one term or one run of residual conjuncts.
type step struct {
	resid *Expr       // non-nil: a residual conjunction for the walker
	field int         // term: the field tested
	slot  int         // term: field's index in Program.fields
	op    Op          // term: a comparison, or OpIsNull
	val   types.Value // term: the constant compared against
	body  []byte      // term: val's STRING or BYTES body
}

// Compile compiles filter, with its parameter markers bound to params, for
// evaluation through ev. It costs a few allocations; Match costs none per
// record beyond what residual steps decode. A nil filter compiles to a nil
// Program.
func Compile(ev *Evaluator, filter *Expr, params []types.Value) *Program {
	if filter == nil {
		return nil
	}
	p := &Program{ev: ev, src: filter, params: params}
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
	st, ok := term(e, p.params)
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
func term(e *Expr, params []types.Value) (step, bool) {
	switch e.Op {
	case OpIsNull:
		if len(e.Args) == 1 && e.Args[0].Op == OpField && e.Args[0].Field >= 0 {
			return step{field: e.Args[0].Field, op: OpIsNull}, true
		}
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		if len(e.Args) != 2 {
			break
		}
		op, f, c := e.Op, e.Args[0], e.Args[1]
		if f.Op != OpField {
			op, f, c = flip(op), c, f
		}
		if f.Op != OpField || f.Field < 0 {
			break
		}
		st := step{field: f.Field, op: op}
		switch {
		case c.Op == OpConst:
			st.val = c.Val
		case c.Op == OpParam && c.Field >= 0 && c.Field < len(params):
			st.val = params[c.Field]
		default:
			return step{}, false
		}
		switch st.val.K {
		case types.KindString:
			st.body = []byte(st.val.S)
		case types.KindBytes:
			st.body = st.val.B
		}
		return st, true
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
			if ok, err := p.ev.EvalBool(st.resid, p.rec, p.params); !ok || err != nil {
				return false, err
			}
			continue
		}
		off := p.off[st.slot]
		if off < 0 {
			return false, errFieldRange(st.field, arity)
		}
		k, body, _, err := types.SplitValue(enc[off:])
		if err != nil {
			return false, fmt.Errorf("expr: record field %d: %w", st.field, err)
		}
		if ok, err := st.testEncoded(k, body, enc[off:]); !ok || err != nil {
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
	return p.ev.EvalBool(p.src, rec, p.params)
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
			_, _, n, err := types.SplitValue(enc[pos:])
			if err != nil {
				return 0, fmt.Errorf("expr: record field %d: %w", at, err)
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
	return !v.IsNull() && !st.val.IsNull() && holds(st.op, types.Compare(v, st.val))
}

// testEncoded is test on the field encoded at raw, which SplitValue
// split into kind k and body.
func (st *step) testEncoded(k types.Kind, body, raw []byte) (bool, error) {
	switch {
	case st.op == OpIsNull:
		return k == types.KindNull, nil
	case k == types.KindNull || st.val.K == types.KindNull:
		return false, nil
	case k != st.val.K: // INT against FLOAT, or kinds ordered by their tags
		v, _, err := types.DecodeValue(raw)
		return err == nil && st.test(v), err
	case k == types.KindInt || k == types.KindBool:
		return holds(st.op, cmp.Compare(int64(binary.BigEndian.Uint64(body)), st.val.I)), nil
	case k == types.KindFloat:
		return st.test(types.Float(math.Float64frombits(binary.BigEndian.Uint64(body)))), nil
	default: // STRING, BYTES
		return holds(st.op, bytes.Compare(body, st.body)), nil
	}
}

func errFieldRange(field, arity int) error {
	return fmt.Errorf("expr: field %d out of range (record has %d)", field, arity)
}
