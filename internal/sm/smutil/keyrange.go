package smutil

import (
	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/types"
)

// OrderSatisfiedBy reports whether an access returning records in the
// order of keyFields satisfies an ORDER BY on orderBy (a key-prefix match;
// empty orderBy is trivially satisfied).
func OrderSatisfiedBy(keyFields, orderBy []int) bool {
	if len(orderBy) == 0 {
		return true
	}
	if len(orderBy) > len(keyFields) {
		return false
	}
	for i, f := range orderBy {
		if keyFields[i] != f {
			return false
		}
	}
	return true
}

// PrefixSuccessor returns the smallest byte string greater than every
// string having p as a prefix (nil when p is all 0xFF, meaning unbounded).
func PrefixSuccessor(p []byte) []byte {
	_, succ := appendSuccessor(nil, p)
	return succ
}

// appendSuccessor appends PrefixSuccessor(p) to dst, returning the grown
// dst and the successor as a slice of it (nil, with dst unchanged, when p
// is all 0xFF). p may be part of dst.
func appendSuccessor(dst, p []byte) ([]byte, types.Key) {
	n := len(dst)
	dst = append(dst, p...)
	for i := len(dst) - 1; i >= n; i-- {
		if dst[i] != 0xFF {
			dst[i]++
			return dst[:i+1], dst[n : i+1 : i+1]
		}
	}
	return dst[:n], nil
}

// key is b as a key bound that later appends to b's array cannot reach:
// nil when b is empty, as an unbounded side is.
func key(b []byte) types.Key {
	if len(b) == 0 {
		return nil
	}
	return b[:len(b):len(b)]
}

// rangeBounds derives the [start, end) scan bounds for one range-bounded
// key field. prefix is the equality prefix over earlier key fields;
// lowerEnc/upperEnc are the order-preserving encodings of the bound
// values appended to that prefix (nil when that side is unbounded);
// lowerStrict marks a > bound, upperInclusive a <= bound. Bounds that are
// not one of those slices are appended to buf, which comes back grown.
//
// empty reports that the strict lower bound admits no key: its encoding
// is all 0xFF, so no byte string sorts above it and the range holds
// nothing. upperHandled reports whether the returned end fully enforces
// the upper conjunct; it is false when an inclusive upper bound is all
// 0xFF — every extension of it must stay in range but no finite end
// covers them — in which case end stays at the prefix bound and the
// caller must leave the conjunct to the executor. Real value encodings
// always start with a kind-tag byte below 0xFF, so both edges are
// unreachable through types.Value today; this keeps the contract honest
// for any future raw-byte key source.
func rangeBounds(buf, prefix, lowerEnc, upperEnc []byte, lowerStrict, upperInclusive bool) (out []byte, start, end types.Key, empty, upperHandled bool) {
	start = key(prefix)
	buf, end = appendSuccessor(buf, prefix)
	if lowerEnc != nil {
		start = key(lowerEnc)
		if lowerStrict {
			if buf, start = appendSuccessor(buf, lowerEnc); start == nil {
				return buf, nil, nil, true, false
			}
		}
	}
	if upperEnc != nil {
		bound := key(upperEnc)
		if upperInclusive {
			if buf, bound = appendSuccessor(buf, upperEnc); bound == nil {
				return buf, start, end, false, false
			}
		}
		end = bound
	}
	return buf, start, end, false, true
}

// KeyRange analyses the planner's eligible predicates against an ordered
// key composed of the given record fields, deriving the tightest
// [start, end) bound on the order-preserving key encoding. It returns the
// bounds, the indexes of the conjuncts the key range handles (so the
// executor need not re-apply them), whether every key field is bound by
// equality (a point access), and how many leading key fields participate.
//
// With a scratch (core.CostRequest.Scratch) the bounds and the handled
// indexes are appended to it, so a path asked again over a reused scratch
// allocates nothing; without one they share one new array.
func KeyRange(keyFields []int, conjuncts []*expr.Expr, scratch *core.KeyScratch) (start, end types.Key, handled []int, point bool, depth int) {
	var buf []byte
	var hs []int
	if scratch != nil {
		buf, hs = scratch.Keys, scratch.Handled
	}
	p0, h0 := len(buf), len(hs)
	done := func() []int { // keeps what was appended, returns the handled indexes
		if scratch != nil {
			scratch.Keys, scratch.Handled = buf, hs
		}
		return hs[h0:len(hs):len(hs)]
	}
	eqCount := 0
	for _, kf := range keyFields {
		// Equality on this key field extends the shared prefix.
		eqIdx := -1
		var eqVal types.Value
		var lower, upper expr.FieldCompare // valid when lowerIdx, upperIdx >= 0
		lowerIdx, upperIdx := -1, -1
		for ci, c := range conjuncts {
			fc, ok := expr.MatchFieldCompare(c)
			if !ok || fc.Field != kf {
				continue
			}
			switch fc.Op {
			case expr.OpEq:
				eqIdx, eqVal = ci, fc.Value
			case expr.OpGt, expr.OpGe:
				lower, lowerIdx = fc, ci
			case expr.OpLt, expr.OpLe:
				upper, upperIdx = fc, ci
			}
		}
		if eqIdx >= 0 {
			buf = eqVal.AppendOrderedEncode(buf)
			hs = append(hs, eqIdx)
			eqCount++
			depth++
			continue
		}
		// Range bounds on the first non-equality key field terminate the
		// prefix walk.
		if lowerIdx < 0 && upperIdx < 0 {
			break
		}
		depth++
		prefix := buf[p0:len(buf):len(buf)]
		var lowerEnc, upperEnc []byte
		if lowerIdx >= 0 {
			n := len(buf)
			buf = lower.Value.AppendOrderedEncode(append(buf, prefix...))
			lowerEnc = buf[n:len(buf):len(buf)]
		}
		if upperIdx >= 0 {
			n := len(buf)
			buf = upper.Value.AppendOrderedEncode(append(buf, prefix...))
			upperEnc = buf[n:len(buf):len(buf)]
		}
		var empty, upperOK bool
		buf, start, end, empty, upperOK = rangeBounds(buf, prefix, lowerEnc, upperEnc,
			lowerIdx >= 0 && lower.Op == expr.OpGt,
			upperIdx >= 0 && upper.Op == expr.OpLe)
		if empty {
			// The strict lower bound admits no key at all. Report an
			// explicitly empty range (start == end, non-nil); a nil start
			// here would read as "scan from the beginning" while the
			// conjunct was claimed handled. The empty result trivially
			// satisfies the upper conjunct too, but only the lower one is
			// claimed.
			hs = append(hs, lowerIdx)
			return types.Key{}, types.Key{}, done(), false, depth
		}
		if lowerIdx >= 0 {
			hs = append(hs, lowerIdx)
		}
		// An upper bound the end cannot enforce leaves end at the prefix
		// bound, and the executor re-applies its conjunct.
		if upperIdx >= 0 && upperOK {
			hs = append(hs, upperIdx)
		}
		return start, end, done(), false, depth
	}
	if depth == 0 {
		return nil, nil, nil, false, 0
	}
	// Pure equality prefix.
	start = key(buf[p0:])
	buf, end = appendSuccessor(buf, start)
	return start, end, done(), eqCount == len(keyFields), depth
}
