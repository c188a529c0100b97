// Package smutil holds helpers shared by the tree-backed storage method
// and access path extensions: a key-sequential scan over a btree.Tree with
// the architecture's position semantics, and small codec utilities.
package smutil

import (
	"encoding/binary"
	"fmt"
	"sync"

	"dmx/internal/btree"
	"dmx/internal/core"
	"dmx/internal/types"
)

// EmitFunc converts a tree entry into scan output. key and val are the
// scan's own buffers, reused for the next entry, so what it returns must
// not alias them. Returning ok=false skips the entry (filter rejection);
// err aborts the scan.
type EmitFunc func(key, val []byte) (types.Key, types.Record, bool, error)

// runLen is how many entries one latch hold copies out of the tree, and
// runBytes the run buffer's first capacity: 64 short index entries fit.
const (
	runLen   = 64
	runBytes = 2048
)

// TreeScan is a key-sequential access over a btree.Tree implementing the
// architecture's scan-position semantics: the scan is "on" the last item
// returned; deleting that item leaves the scan just after it; Next always
// returns the next item after the current position. Positions are
// save/restorable for partial-rollback support.
//
// One descent copies a run of up to runLen entries after the position into
// the scan's own buffer, tagged with the tree's modification count. Next
// serves the run while the count is unchanged, since the tree then still
// holds exactly those entries after the position; any Set or removing
// Delete since makes it re-seek strictly after the position instead.
type TreeScan struct {
	mu    *sync.Mutex // latch shared with the owning instance
	tree  *btree.Tree
	start types.Key
	end   types.Key // exclusive; nil = unbounded
	emit  EmitFunc

	// The run: each entry's key, then its value, each behind its uvarint
	// length. The buffer is reused by the next fill.
	run  []byte
	n    int    // entries in the run
	next int    // entries served
	rd   int    // offset of the next entry in run
	mods uint64 // tree.Mods() when the run was copied

	Position
}

// NewTreeScan starts a scan over tree bounded by [start, end) whose
// entries are rendered through emit. mu is the latch protecting tree.
func NewTreeScan(mu *sync.Mutex, tree *btree.Tree, start, end types.Key, emit EmitFunc) *TreeScan {
	return &TreeScan{mu: mu, tree: tree, start: start, end: end, emit: emit}
}

// fill copies the run after the position. Caller holds the latch.
func (s *TreeScan) fill() {
	from := s.start
	if s.Started {
		from = s.After // resume strictly after the item the scan is on
	}
	if s.run == nil {
		s.run = make([]byte, 0, runBytes)
	}
	s.run, s.n, s.next, s.rd = s.run[:0], 0, 0, 0
	s.mods = s.tree.Mods()
	s.tree.Ascend(from, func(k, v []byte) bool {
		if s.Started && s.After.Equal(k) {
			return true
		}
		if s.end != nil && types.Key(k).Compare(s.end) >= 0 {
			return false
		}
		s.run = append(binary.AppendUvarint(s.run, uint64(len(k))), k...)
		s.run = append(binary.AppendUvarint(s.run, uint64(len(v))), v...)
		s.n++
		return s.n < runLen
	})
}

// field returns the run's next length-prefixed byte string.
func (s *TreeScan) field() []byte {
	l, size := binary.Uvarint(s.run[s.rd:])
	s.rd += size + int(l)
	return s.run[s.rd-int(l) : s.rd]
}

// Next implements core.Scan. emit runs on the scan's copy of the entry
// after the latch is released, so a rejected entry costs a copy but no
// allocation.
func (s *TreeScan) Next() (types.Key, types.Record, bool, error) {
	if s.Closed {
		return nil, nil, false, fmt.Errorf("smutil: scan is closed")
	}
	for {
		s.mu.Lock()
		if s.next == s.n || s.mods != s.tree.Mods() {
			s.fill()
		}
		s.mu.Unlock()
		if s.next == s.n {
			return nil, nil, false, nil
		}
		k, v := s.field(), s.field()
		s.next++
		s.Started, s.After = true, append(s.After[:0], k...)
		outK, outR, ok, err := s.emit(k, v)
		if err != nil {
			return nil, nil, false, err
		}
		if ok {
			return outK, outR, true, nil
		}
		// Entry filtered out: advance past it.
	}
}

// Restore implements core.Scan: the run belongs to the old position, so
// it is dropped.
func (s *TreeScan) Restore(pos core.ScanPos) error {
	s.n, s.next = 0, 0
	return s.Position.Restore(pos)
}

var _ core.Scan = (*TreeScan)(nil)
