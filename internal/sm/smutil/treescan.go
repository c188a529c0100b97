// Package smutil holds helpers shared by the tree-backed storage method
// and access path extensions: a key-sequential scan over a btree.Tree with
// the architecture's position semantics, and small codec utilities.
package smutil

import (
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

// TreeScan is a key-sequential access over a btree.Tree implementing the
// architecture's scan-position semantics: the scan is "on" the last item
// returned; deleting that item leaves the scan just after it; Next always
// returns the next item after the current position. Positions are
// save/restorable for partial-rollback support.
type TreeScan struct {
	mu    *sync.Mutex // latch shared with the owning instance
	tree  *btree.Tree
	start types.Key
	end   types.Key // exclusive; nil = unbounded
	emit  EmitFunc

	kbuf, vbuf []byte // the candidate, copied out under the latch

	Position
}

// NewTreeScan starts a scan over tree bounded by [start, end) whose
// entries are rendered through emit. mu is the latch protecting tree.
func NewTreeScan(mu *sync.Mutex, tree *btree.Tree, start, end types.Key, emit EmitFunc) *TreeScan {
	return &TreeScan{mu: mu, tree: tree, start: start, end: end, emit: emit}
}

// Next implements core.Scan. One candidate is copied into the scan's
// buffers per latch hold, and emit runs on the copy after the latch is
// released, so a rejected entry costs a copy but no allocation.
func (s *TreeScan) Next() (types.Key, types.Record, bool, error) {
	if s.Closed {
		return nil, nil, false, fmt.Errorf("smutil: scan is closed")
	}
	for {
		s.mu.Lock()
		from := s.start
		if s.Started {
			from = s.After // resume strictly after the item the scan is on
		}
		found := false
		s.tree.Ascend(from, func(k, v []byte) bool {
			if s.Started && s.After.Equal(k) {
				return true
			}
			if s.end != nil && types.Key(k).Compare(s.end) >= 0 {
				return false
			}
			s.kbuf = append(s.kbuf[:0], k...)
			s.vbuf = append(s.vbuf[:0], v...)
			found = true
			return false
		})
		s.mu.Unlock()
		if !found {
			return nil, nil, false, nil
		}
		s.Started, s.After = true, append(s.After[:0], s.kbuf...)
		outK, outR, ok, err := s.emit(s.kbuf, s.vbuf)
		if err != nil {
			return nil, nil, false, err
		}
		if ok {
			return outK, outR, true, nil
		}
		// Entry filtered out: advance past it.
	}
}

var _ core.Scan = (*TreeScan)(nil)
