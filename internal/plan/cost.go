package plan

// The planner-side cost library: statistics-derived selectivities and the
// join strategy cost model. Storage methods and attachments receive the
// per-conjunct selectivities through core.CostRequest.ConjunctSel, so the
// figures the planner compares come from the extensions themselves, fed
// with honest numbers instead of textbook guesses.

import (
	"math"

	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/types"
)

// tableStatsFor returns the statistics snapshot for rd when a stats
// attachment is present (discovered structurally via TableStatsProvider).
func (p *Planner) tableStatsFor(rd *core.RelDesc) (core.TableStats, bool) {
	if !rd.HasAttachment(core.AttStats) {
		return core.TableStats{}, false
	}
	inst, err := p.env.AttachmentInstance(rd, core.AttStats)
	if err != nil {
		return core.TableStats{}, false
	}
	prov, ok := inst.(core.TableStatsProvider)
	if !ok {
		return core.TableStats{}, false
	}
	return prov.TableStats(), true
}

// conjunctSels derives a per-conjunct selectivity vector from ts, parallel
// to conjuncts, in sels' array when it has room. Entries are -1 ("no
// estimate") for conjuncts the statistics cannot judge; extensions then
// fall back to their textbook guesses for those entries only.
func conjunctSels(sels []float64, ts core.TableStats, ok bool, conjuncts []*expr.Expr) []float64 {
	if !ok || len(conjuncts) == 0 {
		return nil
	}
	sels = sels[:0]
	any := false
	for _, c := range conjuncts {
		sel := -1.0
		if fc, isCmp := expr.MatchFieldCompare(c); isCmp {
			if cs, have := ts.Cols[fc.Field]; have {
				if s := columnSelectivity(cs, fc.Op, fc.Value); s >= 0 {
					sel, any = s, true
				}
			}
		}
		sels = append(sels, sel)
	}
	if !any {
		return nil
	}
	return sels
}

// columnSelectivity estimates the fraction of rows satisfying
// `col <op> v` from one column's statistics. Returns -1 when the
// statistics cannot judge the comparison.
func columnSelectivity(cs core.ColumnStats, op expr.Op, v types.Value) float64 {
	nonNull := 1 - cs.NullFrac
	switch op {
	case expr.OpEq:
		if cs.Distinct >= 1 {
			return clampSel(nonNull / cs.Distinct)
		}
		return -1
	case expr.OpNe:
		if cs.Distinct >= 1 {
			return clampSel(nonNull * (1 - 1/cs.Distinct))
		}
		return -1
	case expr.OpLt, expr.OpLe:
		if f := histFractionBelow(cs.Hist, v); f >= 0 {
			return clampSel(nonNull * f)
		}
		return -1
	case expr.OpGt, expr.OpGe:
		if f := histFractionBelow(cs.Hist, v); f >= 0 {
			return clampSel(nonNull * (1 - f))
		}
		return -1
	default:
		return -1
	}
}

func clampSel(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// histFractionBelow estimates the fraction of values strictly below v from
// equi-depth histogram bounds (ascending, B+1 bounds for B equal buckets).
// Numeric bucket ends are interpolated within the containing bucket;
// other kinds count half the bucket. Returns -1 without a histogram.
func histFractionBelow(hist []types.Value, v types.Value) float64 {
	b := len(hist) - 1
	if b < 1 {
		return -1
	}
	if types.Compare(v, hist[0]) <= 0 {
		return 0
	}
	if types.Compare(v, hist[b]) >= 0 {
		return 1
	}
	// Find the bucket [hist[i], hist[i+1]) containing v.
	for i := 0; i < b; i++ {
		if types.Compare(v, hist[i+1]) > 0 {
			continue
		}
		frac := 0.5
		lo, hi := hist[i], hist[i+1]
		if numericValue(lo) && numericValue(hi) && numericValue(v) {
			if span := hi.AsFloat() - lo.AsFloat(); span > 0 {
				frac = (v.AsFloat() - lo.AsFloat()) / span
			}
		}
		return (float64(i) + clampSel(frac)) / float64(b)
	}
	return 1
}

// numericValue reports an INT or FLOAT value (interpolation-capable).
func numericValue(v types.Value) bool { return v.K == types.KindInt || v.K == types.KindFloat }

// scanOpenOverhead approximates the fixed cost of opening one inner access
// (lock acquisition, cursor setup) in Total() units.
const scanOpenOverhead = 8

// hashJoinOverhead is the fixed cost of standing up the hash-join build
// side (table allocation).
const hashJoinOverhead = 64

// joinCosts prices the two generic join strategies in Total() units. A
// nested loop opens the inner access once per expected outer row; a hash
// join reads the build access once, inserts each of its expected rows into
// the table, and probes the table once per outer row.
func joinCosts(outer, inner, build *access) (nl, hash float64) {
	outerRows := math.Max(1, outer.rows)
	nl = outer.estimate.Total() + outerRows*(inner.estimate.Total()+scanOpenOverhead)
	hash = outer.estimate.Total() + build.estimate.Total() + build.rows*0.5 + outerRows + hashJoinOverhead
	return nl, hash
}
