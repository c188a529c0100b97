package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func k(i int) []byte { return []byte(fmt.Sprintf("%08d", i)) }

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Fatal("empty tree")
	}
	if _, ok := tr.Get([]byte("x")); ok {
		t.Fatal("Get on empty")
	}
	if _, ok := tr.Delete([]byte("x")); ok {
		t.Fatal("Delete on empty")
	}
	if _, _, ok := tr.Min(); ok {
		t.Fatal("Min on empty")
	}
	if _, _, ok := tr.Max(); ok {
		t.Fatal("Max on empty")
	}
	n := 0
	tr.Ascend(nil, func(_, _ []byte) bool { n++; return true })
	if n != 0 {
		t.Fatal("Ascend on empty")
	}
}

func TestSetGetReplace(t *testing.T) {
	tr := New()
	if _, replaced := tr.Set(k(1), []byte("a")); replaced {
		t.Fatal("fresh Set reported replace")
	}
	prev, replaced := tr.Set(k(1), []byte("b"))
	if !replaced || string(prev) != "a" {
		t.Fatalf("replace: %q %v", prev, replaced)
	}
	if tr.Len() != 1 {
		t.Fatal("Len after replace")
	}
	v, ok := tr.Get(k(1))
	if !ok || string(v) != "b" {
		t.Fatal("Get after replace")
	}
}

func TestSetCopiesInputs(t *testing.T) {
	tr := New()
	key := []byte("key")
	val := []byte("val")
	tr.Set(key, val)
	key[0] = 'X'
	val[0] = 'X'
	if _, ok := tr.Get([]byte("key")); !ok {
		t.Fatal("tree aliased caller's key")
	}
	v, _ := tr.Get([]byte("key"))
	if string(v) != "val" {
		t.Fatal("tree aliased caller's value")
	}
}

// Set stores a new item's key and value in one allocation, the key capped
// so that appending to it cannot overwrite the value. Over 4 000 inserts
// the only other allocations are node growth and splits, a few per
// hundred items.
func TestTreeSetAllocations(t *testing.T) {
	tr := New()
	keys := make([][]byte, 4001) // AllocsPerRun calls once more to warm up
	for i := range keys {
		keys[i] = k(i)
	}
	i := 0
	n := testing.AllocsPerRun(len(keys)-1, func() {
		tr.Set(keys[i], []byte("value"))
		i++
	})
	if n > 1.1 {
		t.Fatalf("Set allocates %v times per new item, want one and a little node growth", n)
	}
	key, val, _ := tr.Min()
	if cap(key) != len(key) {
		t.Fatalf("a stored key's capacity %d runs past its length %d", cap(key), len(key))
	}
	_ = append(key, 'X')
	if v, _ := tr.Get(k(0)); string(v) != "value" || string(val) != "value" {
		t.Fatalf("appending to a stored key changed its value to %q", v)
	}
	// A replaced value takes a new copy of the key as well.
	if n := testing.AllocsPerRun(100, func() { tr.Set(keys[7], []byte("other")) }); n != 1 {
		t.Fatalf("replacing a value allocates %v times, want 1", n)
	}
}

func TestLargeSequentialAndReverse(t *testing.T) {
	for name, order := range map[string]func(i, n int) int{
		"ascending":  func(i, n int) int { return i },
		"descending": func(i, n int) int { return n - 1 - i },
	} {
		t.Run(name, func(t *testing.T) {
			tr := New()
			const n = 5000
			for i := 0; i < n; i++ {
				tr.Set(k(order(i, n)), k(order(i, n)))
			}
			if tr.Len() != n {
				t.Fatalf("Len = %d", tr.Len())
			}
			// Full ascent must be sorted and complete.
			var prev []byte
			count := 0
			tr.Ascend(nil, func(key, val []byte) bool {
				if prev != nil && bytes.Compare(prev, key) >= 0 {
					t.Fatalf("out of order: %s then %s", prev, key)
				}
				if !bytes.Equal(key, val) {
					t.Fatal("value mismatch")
				}
				prev = append(prev[:0], key...)
				count++
				return true
			})
			if count != n {
				t.Fatalf("visited %d of %d", count, n)
			}
		})
	}
}

func TestDeleteEverySecondThenAll(t *testing.T) {
	tr := New()
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Set(k(i), k(i))
	}
	for i := 0; i < n; i += 2 {
		v, ok := tr.Delete(k(i))
		if !ok || !bytes.Equal(v, k(i)) {
			t.Fatalf("delete %d: %v", i, ok)
		}
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < n; i++ {
		_, ok := tr.Get(k(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d) = %v, want %v", i, ok, want)
		}
	}
	for i := 1; i < n; i += 2 {
		if _, ok := tr.Delete(k(i)); !ok {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Fatalf("tree not empty: len=%d height=%d", tr.Len(), tr.Height())
	}
}

func TestAscendFrom(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i += 2 { // even keys only
		tr.Set(k(i), nil)
	}
	// From an existing key: inclusive.
	var got []string
	tr.Ascend(k(10), func(key, _ []byte) bool {
		got = append(got, string(key))
		return len(got) < 3
	})
	if len(got) != 3 || got[0] != string(k(10)) || got[1] != string(k(12)) || got[2] != string(k(14)) {
		t.Fatalf("Ascend from existing = %v", got)
	}
	// From a missing key: next greater.
	got = nil
	tr.Ascend(k(11), func(key, _ []byte) bool {
		got = append(got, string(key))
		return false
	})
	if len(got) != 1 || got[0] != string(k(12)) {
		t.Fatalf("Ascend from missing = %v", got)
	}
	// From past the end: nothing.
	got = nil
	tr.Ascend(k(99), func(key, _ []byte) bool {
		got = append(got, string(key))
		return true
	})
	if len(got) != 0 {
		t.Fatalf("Ascend past end = %v", got)
	}
}

func TestAscendRange(t *testing.T) {
	tr := New()
	for i := 0; i < 50; i++ {
		tr.Set(k(i), nil)
	}
	var got []string
	tr.AscendRange(k(10), k(13), func(key, _ []byte) bool {
		got = append(got, string(key))
		return true
	})
	if len(got) != 3 || got[0] != string(k(10)) || got[2] != string(k(12)) {
		t.Fatalf("range = %v", got)
	}
	// Open bounds.
	n := 0
	tr.AscendRange(nil, nil, func(_, _ []byte) bool { n++; return true })
	if n != 50 {
		t.Fatalf("open range visited %d", n)
	}
}

func TestMinMax(t *testing.T) {
	tr := New()
	perm := rand.New(rand.NewSource(3)).Perm(500)
	for _, i := range perm {
		tr.Set(k(i), nil)
	}
	minK, _, _ := tr.Min()
	maxK, _, _ := tr.Max()
	if !bytes.Equal(minK, k(0)) || !bytes.Equal(maxK, k(499)) {
		t.Fatalf("min=%s max=%s", minK, maxK)
	}
}

// TestAgainstReferenceModel drives random operations against a map+sort
// reference, checking Get/Len after every batch and full iteration order.
func TestAgainstReferenceModel(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	tr := New()
	ref := map[string]string{}
	for step := 0; step < 20000; step++ {
		key := fmt.Sprintf("%06d", r.Intn(3000))
		switch r.Intn(3) {
		case 0, 1:
			val := fmt.Sprintf("v%d", step)
			_, replaced := tr.Set([]byte(key), []byte(val))
			_, existed := ref[key]
			if replaced != existed {
				t.Fatalf("step %d: replace=%v existed=%v", step, replaced, existed)
			}
			ref[key] = val
		case 2:
			_, ok := tr.Delete([]byte(key))
			_, existed := ref[key]
			if ok != existed {
				t.Fatalf("step %d: delete=%v existed=%v", step, ok, existed)
			}
			delete(ref, key)
		}
		if tr.Len() != len(ref) {
			t.Fatalf("step %d: len %d vs %d", step, tr.Len(), len(ref))
		}
	}
	// Final: iteration order matches sorted reference.
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	tr.Ascend(nil, func(key, val []byte) bool {
		if string(key) != keys[i] || string(val) != ref[keys[i]] {
			t.Fatalf("iteration mismatch at %d: %s vs %s", i, key, keys[i])
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("visited %d of %d", i, len(keys))
	}
	// Random range queries against the reference.
	for q := 0; q < 100; q++ {
		lo := fmt.Sprintf("%06d", r.Intn(3000))
		hi := fmt.Sprintf("%06d", r.Intn(3000))
		if lo > hi {
			lo, hi = hi, lo
		}
		want := 0
		for _, key := range keys {
			if key >= lo && key < hi {
				want++
			}
		}
		got := 0
		tr.AscendRange([]byte(lo), []byte(hi), func(_, _ []byte) bool { got++; return true })
		if got != want {
			t.Fatalf("range [%s,%s): got %d want %d", lo, hi, got, want)
		}
	}
}

func TestHeightGrowth(t *testing.T) {
	tr := New()
	if tr.Height() != 0 {
		t.Fatal("empty height")
	}
	tr.Set(k(0), nil)
	if tr.Height() != 1 {
		t.Fatal("single height")
	}
	for i := 1; i < 10000; i++ {
		tr.Set(k(i), nil)
	}
	if h := tr.Height(); h < 2 || h > 4 {
		t.Fatalf("height of 10k = %d, want 2..4 for degree 32", h)
	}
}

func BenchmarkSet(b *testing.B) {
	tr := New()
	for i := 0; b.Loop(); i++ {
		tr.Set(k(i), nil)
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New()
	for i := 0; i < 100000; i++ {
		tr.Set(k(i), nil)
	}
	b.ResetTimer()
	for i := 0; b.Loop(); i++ {
		tr.Get(k(i % 100000))
	}
}

// TestQuickSetGetInvariant drives testing/quick over arbitrary key sets:
// after inserting all keys, every key must be retrievable and iteration
// must be sorted and duplicate-free.
func TestQuickSetGetInvariant(t *testing.T) {
	f := func(keys [][]byte) bool {
		tr := New()
		unique := map[string]bool{}
		for _, k := range keys {
			tr.Set(k, k)
			unique[string(k)] = true
		}
		if tr.Len() != len(unique) {
			return false
		}
		for k := range unique {
			v, ok := tr.Get([]byte(k))
			if !ok || string(v) != k {
				return false
			}
		}
		var prev []byte
		first := true
		sorted := true
		tr.Ascend(nil, func(k, _ []byte) bool {
			if !first && bytes.Compare(prev, k) >= 0 {
				sorted = false
				return false
			}
			prev = append(prev[:0], k...)
			first = false
			return true
		})
		return sorted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickDeleteInvariant checks Len/Get consistency under interleaved
// deletes of an arbitrary subset.
func TestQuickDeleteInvariant(t *testing.T) {
	f := func(keys [][]byte, drop []bool) bool {
		tr := New()
		live := map[string]bool{}
		for _, k := range keys {
			tr.Set(k, nil)
			live[string(k)] = true
		}
		for i, k := range keys {
			if i < len(drop) && drop[i] {
				_, ok := tr.Delete(k)
				if ok != live[string(k)] {
					return false
				}
				delete(live, string(k))
			}
		}
		if tr.Len() != len(live) {
			return false
		}
		for _, k := range keys {
			if _, ok := tr.Get(k); ok != live[string(k)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
