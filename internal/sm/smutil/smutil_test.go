package smutil

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dmx/internal/btree"
	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/types"
)

func TestPrefixSuccessor(t *testing.T) {
	for _, tc := range []struct {
		in   []byte
		want []byte
	}{
		{[]byte{1, 2, 3}, []byte{1, 2, 4}},
		{[]byte{1, 0xFF}, []byte{2}},
		{[]byte{0xFF, 0xFF}, nil},
		{[]byte{}, nil},
		{[]byte{0}, []byte{1}},
	} {
		got := PrefixSuccessor(tc.in)
		if string(got) != string(tc.want) {
			t.Errorf("PrefixSuccessor(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// The successor must be > every extension of the prefix.
	p := []byte{5, 0xFF}
	succ := PrefixSuccessor(p)
	ext := append(append([]byte(nil), p...), 0xFF, 0xFF, 0xFF)
	if types.Key(succ).Compare(types.Key(ext)) <= 0 {
		t.Fatal("successor not greater than extensions")
	}
}

func eq(f int, v int64) *expr.Expr { return expr.Eq(expr.Field(f), expr.Const(types.Int(v))) }
func lt(f int, v int64) *expr.Expr { return expr.Lt(expr.Field(f), expr.Const(types.Int(v))) }
func ge(f int, v int64) *expr.Expr { return expr.Ge(expr.Field(f), expr.Const(types.Int(v))) }
func le(f int, v int64) *expr.Expr { return expr.Le(expr.Field(f), expr.Const(types.Int(v))) }

// keyIn reports whether the encoded key of vals falls within [start, end).
func keyIn(start, end types.Key, vals ...types.Value) bool {
	k := types.EncodeKeyValues(vals...)
	if start != nil && k.Compare(start) < 0 {
		return false
	}
	if end != nil && k.Compare(end) >= 0 {
		return false
	}
	return true
}

func TestKeyRangePointAccess(t *testing.T) {
	start, end, handled, point, depth := KeyRange([]int{0, 1}, []*expr.Expr{eq(0, 5), eq(1, 7)}, nil)
	if !point || depth != 2 || len(handled) != 2 {
		t.Fatalf("point=%v depth=%d handled=%v", point, depth, handled)
	}
	if !keyIn(start, end, types.Int(5), types.Int(7)) {
		t.Fatal("matching key outside range")
	}
	if keyIn(start, end, types.Int(5), types.Int(8)) || keyIn(start, end, types.Int(6), types.Int(7)) {
		t.Fatal("non-matching key inside range")
	}
}

func TestKeyRangeEqualityPrefixPlusRange(t *testing.T) {
	start, end, handled, point, depth := KeyRange([]int{0, 1},
		[]*expr.Expr{eq(0, 5), ge(1, 10), lt(1, 20)}, nil)
	if point || depth != 2 || len(handled) != 3 {
		t.Fatalf("point=%v depth=%d handled=%v", point, depth, handled)
	}
	if !keyIn(start, end, types.Int(5), types.Int(10)) || !keyIn(start, end, types.Int(5), types.Int(19)) {
		t.Fatal("in-range key excluded")
	}
	if keyIn(start, end, types.Int(5), types.Int(9)) || keyIn(start, end, types.Int(5), types.Int(20)) {
		t.Fatal("out-of-range key included")
	}
	if keyIn(start, end, types.Int(4), types.Int(15)) || keyIn(start, end, types.Int(6), types.Int(15)) {
		t.Fatal("wrong-prefix key included")
	}
}

func TestKeyRangeInclusiveBounds(t *testing.T) {
	// x > 3 excludes 3; x <= 7 includes 7.
	gt := expr.Gt(expr.Field(0), expr.Const(types.Int(3)))
	start, end, _, _, depth := KeyRange([]int{0}, []*expr.Expr{gt, le(0, 7)}, nil)
	if depth != 1 {
		t.Fatalf("depth = %d", depth)
	}
	if keyIn(start, end, types.Int(3)) {
		t.Fatal("> bound included its operand")
	}
	if !keyIn(start, end, types.Int(4)) || !keyIn(start, end, types.Int(7)) {
		t.Fatal("included values excluded")
	}
	if keyIn(start, end, types.Int(8)) {
		t.Fatal("<= bound leaked past operand")
	}
}

func TestKeyRangeNoUsablePredicate(t *testing.T) {
	// A predicate on field 1 cannot bound a key starting at field 0.
	_, _, handled, point, depth := KeyRange([]int{0, 1}, []*expr.Expr{eq(1, 7)}, nil)
	if depth != 0 || point || handled != nil {
		t.Fatalf("depth=%d point=%v handled=%v", depth, point, handled)
	}
	// Nor can a non-comparison conjunct.
	_, _, _, _, depth = KeyRange([]int{0}, []*expr.Expr{expr.IsNull(expr.Field(0))}, nil)
	if depth != 0 {
		t.Fatalf("depth = %d", depth)
	}
}

func TestKeyRangeOpenEnds(t *testing.T) {
	start, end, _, _, _ := KeyRange([]int{0}, []*expr.Expr{ge(0, 100)}, nil)
	if end != nil {
		t.Fatal("lower-bound-only range should be open above")
	}
	if keyIn(start, end, types.Int(99)) || !keyIn(start, end, types.Int(100)) {
		t.Fatal("lower bound wrong")
	}
	start, end, _, _, _ = KeyRange([]int{0}, []*expr.Expr{lt(0, 100)}, nil)
	if !keyIn(start, end, types.Int(-5)) || keyIn(start, end, types.Int(100)) {
		t.Fatal("upper bound wrong")
	}
}

// TestRangeBoundsAllFFEdges covers the two unbounded-successor edges.
// Real types.Value encodings always lead with a kind tag below 0xFF, so
// these edges are unreachable through KeyRange today; rangeBounds is
// tested directly to keep the contract honest for raw-byte key sources.
func TestRangeBoundsAllFFEdges(t *testing.T) {
	allFF := []byte{0xFF, 0xFF, 0xFF}

	// A strict lower bound whose encoding is all 0xFF admits no key: no
	// byte string sorts above it. The old behaviour returned a nil start
	// — read downstream as "scan from the beginning" — while the conjunct
	// was reported handled, silently turning an empty range into a full
	// scan with the filter dropped.
	_, _, _, empty, _ := rangeBounds(nil, nil, allFF, nil, true, false)
	if !empty {
		t.Fatal("strict lower bound at all-0xFF not reported empty")
	}

	// An inclusive upper bound at all 0xFF has no finite end key; the end
	// must stay at the prefix bound and the conjunct must be reported
	// unhandled so the executor re-applies it. (The bound encoding
	// embeds the prefix, so this edge requires the prefix itself to be
	// empty or all 0xFF.)
	_, start, end, empty, upperHandled := rangeBounds(nil, nil, nil, allFF, false, true)
	if empty || upperHandled {
		t.Fatalf("inclusive all-0xFF upper: empty=%v handled=%v", empty, upperHandled)
	}
	if len(start) != 0 || end != nil {
		t.Fatalf("bounds fell back wrong: start=%v end=%v", start, end)
	}

	// Both edges at once: the empty verdict wins.
	if _, _, _, empty, _ := rangeBounds(nil, nil, allFF, allFF, true, true); !empty {
		t.Fatal("empty strict lower not reported when upper also edges")
	}
}

func TestRangeBoundsOrdinaryBounds(t *testing.T) {
	prefix := []byte{7}
	lower := append(append([]byte(nil), prefix...), 3)
	upper := append(append([]byte(nil), prefix...), 9)

	// Strict lower: start is the successor of the bound encoding.
	_, start, end, empty, handled := rangeBounds(nil, prefix, lower, upper, true, false)
	if empty || !handled {
		t.Fatalf("empty=%v handled=%v", empty, handled)
	}
	if string(start) != string(PrefixSuccessor(lower)) || string(end) != string(upper) {
		t.Fatalf("start=%v end=%v", start, end)
	}

	// Inclusive upper: end is the successor of the bound encoding.
	_, start, end, _, handled = rangeBounds(nil, prefix, lower, upper, false, true)
	if !handled || string(start) != string(lower) || string(end) != string(PrefixSuccessor(upper)) {
		t.Fatalf("handled=%v start=%v end=%v", handled, start, end)
	}

	// No bounds: the equality prefix alone governs.
	_, start, end, _, _ = rangeBounds(nil, prefix, nil, nil, false, false)
	if string(start) != string(prefix) || string(end) != string(PrefixSuccessor(prefix)) {
		t.Fatalf("prefix-only bounds: start=%v end=%v", start, end)
	}
}

// TestKeyRangeStrictBoundContracts pins the reachable Gt/Le behaviour
// around rangeBounds: strict lower bounds exclude their operand without
// going empty, and inclusive upper bounds are fully handled, for the
// extreme representable values.
func TestKeyRangeStrictBoundContracts(t *testing.T) {
	const maxI = int64(^uint64(0) >> 1)
	gt := expr.Gt(expr.Field(0), expr.Const(types.Int(maxI)))
	start, end, handled, _, depth := KeyRange([]int{0}, []*expr.Expr{gt}, nil)
	if depth != 1 || len(handled) != 1 {
		t.Fatalf("depth=%d handled=%v", depth, handled)
	}
	if keyIn(start, end, types.Int(maxI)) {
		t.Fatal("x > MaxInt64 included MaxInt64")
	}

	leMax := le(0, maxI)
	start, end, handled, _, _ = KeyRange([]int{0}, []*expr.Expr{leMax}, nil)
	if len(handled) != 1 {
		t.Fatalf("handled=%v", handled)
	}
	if !keyIn(start, end, types.Int(maxI)) || !keyIn(start, end, types.Int(0)) {
		t.Fatal("x <= MaxInt64 excluded an in-range value")
	}
}

func TestEstimateSelectivity(t *testing.T) {
	// With no ConjunctSel, RequestSelectivity is the textbook guess.
	sel := func(conjuncts ...*expr.Expr) float64 {
		return RequestSelectivity(core.CostRequest{Conjuncts: conjuncts})
	}
	if got := sel(); got != 1.0 {
		t.Fatalf("no conjuncts = %v", got)
	}
	sEq := sel(eq(0, 1))
	sRange := sel(lt(0, 1))
	sOther := sel(expr.IsNull(expr.Field(0)))
	if !(sEq < sRange && sRange < sOther && sOther < 1.0) {
		t.Fatalf("selectivity ordering: eq=%v range=%v other=%v", sEq, sRange, sOther)
	}
	both := sel(eq(0, 1), lt(1, 2))
	if both >= sEq {
		t.Fatal("conjuncts should compound")
	}
}

func TestTreeScanSkipsCurrentPositionAfterDelete(t *testing.T) {
	var mu sync.Mutex
	tree := btree.New()
	for i := byte(1); i <= 5; i++ {
		tree.Set([]byte{i}, []byte{i})
	}
	emit := func(k, v []byte) (types.Key, types.Record, bool, error) {
		return types.Key(k).Clone(), nil, true, nil
	}
	scan := NewTreeScan(&mu, tree, nil, nil, emit)
	k1, _, ok, err := scan.Next()
	if err != nil || !ok || k1[0] != 1 {
		t.Fatalf("first = %v %v %v", k1, ok, err)
	}
	// Delete the item the scan is on: Next returns the item just after.
	tree.Delete([]byte{1})
	k2, _, ok, _ := scan.Next()
	if !ok || k2[0] != 2 {
		t.Fatalf("after delete-at-position = %v", k2)
	}
	// Insert before the current position: not revisited.
	tree.Set([]byte{0}, []byte{0})
	k3, _, ok, _ := scan.Next()
	if !ok || k3[0] != 3 {
		t.Fatalf("after insert-before = %v", k3)
	}
}

func TestTreeScanPosRestoreAndBounds(t *testing.T) {
	var mu sync.Mutex
	tree := btree.New()
	for i := byte(0); i < 10; i++ {
		tree.Set([]byte{i}, nil)
	}
	emit := func(k, v []byte) (types.Key, types.Record, bool, error) {
		return types.Key(k).Clone(), nil, true, nil
	}
	scan := NewTreeScan(&mu, tree, types.Key{2}, types.Key{7}, emit)
	pos0 := scan.Pos()
	var seen []byte
	for {
		k, _, ok, err := scan.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		seen = append(seen, k[0])
	}
	if string(seen) != string([]byte{2, 3, 4, 5, 6}) {
		t.Fatalf("bounded scan = %v", seen)
	}
	// Restore to the start and re-read the first item.
	if err := scan.Restore(pos0); err != nil {
		t.Fatal(err)
	}
	k, _, ok, _ := scan.Next()
	if !ok || k[0] != 2 {
		t.Fatalf("after restore = %v", k)
	}
	if err := scan.Restore(core_ScanPosBad()); err == nil {
		t.Fatal("bad position accepted")
	}
	if err := scan.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := scan.Next(); err == nil {
		t.Fatal("closed scan should error")
	}
}

func core_ScanPosBad() []byte { return []byte{9, 9} }

func TestTreeScanFilteredEmit(t *testing.T) {
	var mu sync.Mutex
	tree := btree.New()
	for i := byte(0); i < 10; i++ {
		tree.Set([]byte{i}, nil)
	}
	// Emit only even keys.
	emit := func(k, v []byte) (types.Key, types.Record, bool, error) {
		if k[0]%2 == 1 {
			return nil, nil, false, nil
		}
		return types.Key(k).Clone(), nil, true, nil
	}
	scan := NewTreeScan(&mu, tree, nil, nil, emit)
	n := 0
	for {
		_, _, ok, err := scan.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 5 {
		t.Fatalf("filtered scan = %d", n)
	}
}

// TestTreeScanRunsMatchOneDescentPerNext interleaves random Set, Delete,
// Pos and Restore calls with Next and checks every Next against a
// reference that descends the tree afresh for each item: serving a run of
// copied entries must never show a change to the tree late, or an entry
// twice.
func TestTreeScanRunsMatchOneDescentPerNext(t *testing.T) {
	const keySpace = 300
	key := func(i int) []byte { return []byte{byte(i >> 8), byte(i)} }
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var mu sync.Mutex
		tree := btree.New()
		for i := 0; i < keySpace; i += 1 + rng.Intn(3) {
			tree.Set(key(i), []byte{byte(rng.Intn(256))})
		}
		var start, end types.Key
		if rng.Intn(2) == 0 {
			start = key(rng.Intn(keySpace / 2))
		}
		if rng.Intn(2) == 0 {
			end = key(keySpace/2 + rng.Intn(keySpace/2))
		}
		// Odd keys whose value is odd are filtered out.
		emit := func(k, v []byte) (types.Key, types.Record, bool, error) {
			if k[1]%2 == 1 && v[0]%2 == 1 {
				return nil, nil, false, nil
			}
			return types.Key(k).Clone(), types.Record{types.Bytes(append([]byte(nil), v...))}, true, nil
		}
		scan := NewTreeScan(&mu, tree, start, end, emit)
		// The reference position, advanced the way the scan's own is.
		refStarted, refAfter := false, types.Key(nil)
		refNext := func() (types.Key, []byte, bool) {
			for {
				from := start
				if refStarted {
					from = refAfter
				}
				var k types.Key
				var v []byte
				tree.Ascend(from, func(ek, ev []byte) bool {
					if refStarted && refAfter.Equal(ek) {
						return true
					}
					if end == nil || types.Key(ek).Compare(end) < 0 {
						k, v = types.Key(ek).Clone(), append([]byte(nil), ev...)
					}
					return false
				})
				if k == nil {
					return nil, nil, false
				}
				refStarted, refAfter = true, k
				if _, _, ok, _ := emit(k, v); ok {
					return k, v, true
				}
			}
		}
		var saved []core.ScanPos
		var savedRef []types.Key
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(20); {
			case op < 2:
				tree.Set(key(rng.Intn(keySpace)), []byte{byte(rng.Intn(256))})
			case op < 4:
				tree.Delete(key(rng.Intn(keySpace)))
			case op == 4:
				saved, savedRef = append(saved, scan.Pos()), append(savedRef, refAfter)
			case op == 5 && len(saved) > 0:
				i := rng.Intn(len(saved))
				if err := scan.Restore(saved[i]); err != nil {
					t.Fatal(err)
				}
				refStarted, refAfter = savedRef[i] != nil, savedRef[i]
			default:
				k, r, ok, err := scan.Next()
				if err != nil {
					t.Fatal(err)
				}
				wk, wv, wok := refNext()
				if ok != wok || !k.Equal(wk) || ok && string(r[0].B) != string(wv) {
					t.Fatalf("seed %d step %d: Next = %v %v %v, one descent per Next gives %v %v %v",
						seed, step, k, r, ok, wk, wv, wok)
				}
			}
		}
	}
}

// TestKeyRangeScratch: KeyRange into a scratch answers exactly what it
// answers without one; answers appended to one scratch stay intact; and a
// scratch emptied between requests makes a repeated request allocate
// nothing.
func TestKeyRangeScratch(t *testing.T) {
	gt := expr.Gt(expr.Field(1), expr.Const(types.Int(3)))
	cases := [][]*expr.Expr{
		{eq(0, 5), eq(1, 7)},
		{eq(0, 5), ge(1, 10), lt(1, 20)},
		{eq(0, 5), gt, le(1, 9)},
		{lt(0, 100)},
		{ge(0, 100)},
		{eq(1, 7)},
		{expr.Gt(expr.Field(0), expr.Const(types.Int(int64(^uint64(0)>>1))))},
	}
	type answer struct {
		start, end types.Key
		handled    []int
		point      bool
		depth      int
	}
	ask := func(conj []*expr.Expr, sc *core.KeyScratch) answer {
		s, e, h, p, d := KeyRange([]int{0, 1}, conj, sc)
		return answer{s, e, h, p, d}
	}
	same := func(a, b answer) bool {
		return string(a.start) == string(b.start) && (a.start == nil) == (b.start == nil) &&
			string(a.end) == string(b.end) && (a.end == nil) == (b.end == nil) &&
			fmt.Sprint(a.handled) == fmt.Sprint(b.handled) && a.point == b.point && a.depth == b.depth
	}
	var sc core.KeyScratch
	var kept []answer
	for _, conj := range cases {
		want := ask(conj, nil)
		got := ask(conj, &sc)
		if !same(got, want) {
			t.Fatalf("%v: into a scratch %+v, without %+v", conj, got, want)
		}
		kept = append(kept, got)
	}
	for i, conj := range cases {
		if want := ask(conj, nil); !same(kept[i], want) {
			t.Fatalf("%v: answer overwritten by later ones: %+v, want %+v", conj, kept[i], want)
		}
	}
	for _, conj := range cases {
		if allocs := testing.AllocsPerRun(20, func() { sc.Reset(); ask(conj, &sc) }); allocs != 0 {
			t.Errorf("%v: %v allocations over a reused scratch", conj, allocs)
		}
	}
}
