// Package btree implements an in-memory B-tree keyed by byte slices.
//
// It is the ordered-container substrate shared by the main-memory and
// B-tree-organised storage methods and by the index attachments. Keys are
// unique and compared byte-wise; non-unique index semantics are obtained
// by composing entry keys as indexKey‖recordKey, which preserves ordering
// under the order-preserving field encoding. The tree is not safe for
// concurrent use; callers serialise with their own latch.
package btree

import "bytes"

// degree is the minimum branching factor: nodes hold between degree-1 and
// 2*degree-1 keys (except the root).
const degree = 32

type item struct {
	key []byte
	val []byte
}

type node struct {
	items    []item
	children []*node // nil for leaves
}

func (n *node) leaf() bool { return n.children == nil }

// find returns the position of key in n.items and whether it is present.
func (n *node) find(key []byte) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.items[mid].key, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.items) && bytes.Equal(n.items[lo].key, key) {
		return lo, true
	}
	return lo, false
}

// Tree is a B-tree map from byte-slice keys to byte-slice values.
// The zero value is an empty tree ready to use.
type Tree struct {
	root *node
	size int
	mods uint64
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// Mods returns the modification count: every Set and every Delete that
// removes an entry advances it, so a reader that copied entries out can
// tell whether they still hold by comparing two counts.
func (t *Tree) Mods() uint64 { return t.mods }

// Get returns the value stored under key.
func (t *Tree) Get(key []byte) ([]byte, bool) {
	n := t.root
	for n != nil {
		i, ok := n.find(key)
		if ok {
			return n.items[i].val, true
		}
		if n.leaf() {
			return nil, false
		}
		n = n.children[i]
	}
	return nil, false
}

// Set stores val under key, returning the previous value and whether one
// was replaced. Both are copied into one allocation; the key's capacity
// ends at its length, so appending to a key handed out cannot reach the
// value. A replaced entry takes the new copy of its key too, so the old
// allocation is released with the old value.
func (t *Tree) Set(key, val []byte) ([]byte, bool) {
	buf := make([]byte, len(key)+len(val))
	n := copy(buf, key)
	copy(buf[n:], val)
	k := buf[:n:n]
	var v []byte
	if len(val) > 0 {
		v = buf[n:]
	}
	t.mods++
	if t.root == nil {
		t.root = &node{items: []item{{k, v}}}
		t.size = 1
		return nil, false
	}
	if len(t.root.items) == 2*degree-1 {
		old := t.root
		t.root = &node{children: []*node{old}}
		t.root.splitChild(0)
	}
	prev, replaced := t.root.insert(k, v)
	if !replaced {
		t.size++
	}
	return prev, replaced
}

// splitChild splits the full child at index i of n.
func (n *node) splitChild(i int) {
	child := n.children[i]
	mid := degree - 1
	up := child.items[mid]
	right := &node{items: append([]item(nil), child.items[mid+1:]...)}
	if !child.leaf() {
		right.children = append([]*node(nil), child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	child.items = child.items[:mid]
	n.items = append(n.items, item{})
	copy(n.items[i+1:], n.items[i:])
	n.items[i] = up
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// insert inserts into a non-full subtree.
func (n *node) insert(key, val []byte) ([]byte, bool) {
	i, ok := n.find(key)
	if ok {
		prev := n.items[i].val
		n.items[i] = item{key, val}
		return prev, true
	}
	if n.leaf() {
		n.items = append(n.items, item{})
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = item{key, val}
		return nil, false
	}
	if len(n.children[i].items) == 2*degree-1 {
		n.splitChild(i)
		if c := bytes.Compare(key, n.items[i].key); c > 0 {
			i++
		} else if c == 0 {
			prev := n.items[i].val
			n.items[i] = item{key, val}
			return prev, true
		}
	}
	return n.children[i].insert(key, val)
}

// Delete removes key, returning its value and whether it was present.
func (t *Tree) Delete(key []byte) ([]byte, bool) {
	if t.root == nil {
		return nil, false
	}
	val, ok := t.root.delete(key)
	if len(t.root.items) == 0 {
		if t.root.leaf() {
			t.root = nil
		} else {
			t.root = t.root.children[0]
		}
	}
	if ok {
		t.size--
		t.mods++
	}
	return val, ok
}

func (n *node) delete(key []byte) ([]byte, bool) {
	i, found := n.find(key)
	if n.leaf() {
		if !found {
			return nil, false
		}
		val := n.items[i].val
		n.items = append(n.items[:i], n.items[i+1:]...)
		return val, true
	}
	if found {
		val := n.items[i].val
		// Replace with predecessor (grown child), then delete it there.
		if len(n.children[i].items) >= degree {
			pred := n.children[i].max()
			n.items[i] = pred
			n.children[i].delete(pred.key)
			return val, true
		}
		if len(n.children[i+1].items) >= degree {
			succ := n.children[i+1].min()
			n.items[i] = succ
			n.children[i+1].delete(succ.key)
			return val, true
		}
		n.merge(i)
		return n.children[i].delete(key)
	}
	// Descend, growing the child first if minimal.
	if len(n.children[i].items) < degree {
		i = n.grow(i)
	}
	return n.children[i].delete(key)
}

func (n *node) min() item {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.items[0]
}

func (n *node) max() item {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1]
}

// grow ensures child i has at least degree items, borrowing from a sibling
// or merging; returns the (possibly shifted) child index to descend into.
func (n *node) grow(i int) int {
	if i > 0 && len(n.children[i-1].items) >= degree {
		// Borrow from left sibling through the separator.
		child, left := n.children[i], n.children[i-1]
		child.items = append(child.items, item{})
		copy(child.items[1:], child.items)
		child.items[0] = n.items[i-1]
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		if !child.leaf() {
			child.children = append(child.children, nil)
			copy(child.children[1:], child.children)
			child.children[0] = left.children[len(left.children)-1]
			left.children = left.children[:len(left.children)-1]
		}
		return i
	}
	if i < len(n.children)-1 && len(n.children[i+1].items) >= degree {
		// Borrow from right sibling.
		child, right := n.children[i], n.children[i+1]
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = append(right.items[:0], right.items[1:]...)
		if !child.leaf() {
			child.children = append(child.children, right.children[0])
			right.children = append(right.children[:0], right.children[1:]...)
		}
		return i
	}
	if i == len(n.children)-1 {
		i--
	}
	n.merge(i)
	return i
}

// merge folds child i+1 and the separator into child i.
func (n *node) merge(i int) {
	child, right := n.children[i], n.children[i+1]
	child.items = append(child.items, n.items[i])
	child.items = append(child.items, right.items...)
	if !child.leaf() {
		child.children = append(child.children, right.children...)
	}
	n.items = append(n.items[:i], n.items[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// Ascend visits entries with key >= from (nil = minimum) in ascending
// order until fn returns false.
func (t *Tree) Ascend(from []byte, fn func(key, val []byte) bool) {
	if t.root != nil {
		t.root.ascend(from, fn)
	}
}

func (n *node) ascend(from []byte, fn func(k, v []byte) bool) bool {
	i := 0
	if from != nil {
		i, _ = n.find(from)
	}
	for ; i < len(n.items); i++ {
		if !n.leaf() && !n.children[i].ascend(from, fn) {
			return false
		}
		if from != nil && bytes.Compare(n.items[i].key, from) < 0 {
			continue
		}
		if !fn(n.items[i].key, n.items[i].val) {
			return false
		}
		from = nil // descendants right of here are all >= from
	}
	if !n.leaf() {
		return n.children[len(n.items)].ascend(from, fn)
	}
	return true
}

// AscendRange visits entries with ge <= key < lt (nil bounds are open)
// in ascending order until fn returns false.
func (t *Tree) AscendRange(ge, lt []byte, fn func(key, val []byte) bool) {
	t.Ascend(ge, func(k, v []byte) bool {
		if lt != nil && bytes.Compare(k, lt) >= 0 {
			return false
		}
		return fn(k, v)
	})
}

// Min returns the smallest key and its value.
func (t *Tree) Min() ([]byte, []byte, bool) {
	if t.root == nil || t.size == 0 {
		return nil, nil, false
	}
	it := t.root.min()
	return it.key, it.val, true
}

// Max returns the largest key and its value.
func (t *Tree) Max() ([]byte, []byte, bool) {
	if t.root == nil || t.size == 0 {
		return nil, nil, false
	}
	it := t.root.max()
	return it.key, it.val, true
}

// Height returns the tree height (0 for empty); for tests and cost models.
func (t *Tree) Height() int {
	h, n := 0, t.root
	for n != nil {
		h++
		if n.leaf() {
			break
		}
		n = n.children[0]
	}
	return h
}
