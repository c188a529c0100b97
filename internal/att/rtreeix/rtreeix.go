// Package rtreeix implements the R-tree spatial access path attachment.
// It recognises the ENCLOSES and OVERLAPS spatial predicates in the query
// planner's eligible-predicate list and reports a low cost for them, as
// the paper describes ("the R-tree access path will recognize the
// ENCLOSES predicate and report a low cost").
//
// Access-path keys are 32-byte box encodings; LookupByKey and OpenScan
// interpret ScanOptions.Start as the query box and ScanOptions.End as a
// one-byte search mode.
package rtreeix

import (
	"fmt"
	"math"

	"dmx/internal/att/attutil"
	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/rtree"
	"dmx/internal/sm/smutil"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// Name is the DDL name of the attachment type.
const Name = "rtree"

// ModeKey encodes a search mode as the scan End key.
func ModeKey(m rtree.Mode) types.Key { return types.Key{byte(m)} }

type def = attutil.Def[*rtree.Tree]

// Each instance's state is its tree; an entry's key is the record's box
// encoding, and a record whose box is NULL has no entry.
var entries = attutil.EntryType[*rtree.Tree]{
	KeyOf: func(d *def, rec types.Record, _ types.Key) (types.Key, bool, error) {
		v := rec[d.Fields[0]]
		if v.IsNull() {
			return nil, false, nil
		}
		box, err := expr.DecodeBox(v)
		if err != nil {
			return nil, false, err
		}
		return types.Key(box.Value().B), true, nil
	},
	Add: func(d *def, boxKey, recKey types.Key) error {
		box, err := expr.DecodeBox(types.Bytes(boxKey))
		if err != nil {
			return err
		}
		d.X.Insert(box, recKey)
		return nil
	},
	Remove: func(d *def, boxKey, recKey types.Key) error {
		box, err := expr.DecodeBox(types.Bytes(boxKey))
		if err != nil {
			return err
		}
		d.X.Delete(box, recKey)
		return nil
	},
}

func init() {
	core.RegisterAttachment(attutil.Ops(attutil.Type[*rtree.Tree, *Instance]{
		ID:    core.AttRTree,
		Name:  Name,
		Attrs: []string{"on"},
		Parse: func(env *core.Env, rd *core.RelDesc, attrs core.AttrList) (attutil.IndexDef, error) {
			d, err := attutil.ParseOn(env, rd, attrs)
			if err == nil && (len(d.Fields) != 1 || rd.Schema.Cols[d.Fields[0]].Kind != types.KindBytes) {
				err = fmt.Errorf("rtreeix: exactly one BYTES (box) column is required")
			}
			return d, err
		},
		Decode: func(*core.Env, *core.RelDesc, attutil.IndexDef) (*rtree.Tree, error) {
			return rtree.New(), nil
		},
		Open: func(defs *attutil.Defs[*rtree.Tree]) *Instance {
			return &Instance{attutil.NewEntries(defs, &entries)}
		},
		BuildRow: (*Instance).BuildRow,
	}))
}

// Instance services every R-tree instance on one relation.
type Instance struct {
	attutil.Entries[*rtree.Tree]
}

func (ix *Instance) search(instance int, key types.Key, mode rtree.Mode) ([]rtree.Entry, error) {
	d, err := ix.At(instance)
	if err != nil {
		return nil, err
	}
	query, err := expr.DecodeBox(types.Bytes(key))
	if err != nil {
		return nil, err
	}
	ix.Mu.Lock()
	defer ix.Mu.Unlock()
	var out []rtree.Entry
	d.X.Search(query, mode, func(e rtree.Entry) bool {
		out = append(out, e)
		return true
	})
	return out, nil
}

// LookupByKey implements core.AccessPath: the key is a 32-byte query box;
// the search mode defaults to Overlaps.
func (ix *Instance) LookupByKey(tx *txn.Txn, instance int, key types.Key) ([]types.Key, error) {
	entries, err := ix.search(instance, key, rtree.Overlaps)
	if err != nil {
		return nil, err
	}
	out := make([]types.Key, len(entries))
	for i, e := range entries {
		out[i] = types.Key(e.Payload).Clone()
	}
	return out, nil
}

// OpenScan implements core.AccessPath: Start carries the query box, End
// the one-byte mode (from ModeKey). Results are snapshotted at open;
// positions are indexes into the snapshot.
func (ix *Instance) OpenScan(tx *txn.Txn, instance int, opts core.ScanOptions) (core.Scan, error) {
	if len(opts.Start) != 32 {
		return nil, fmt.Errorf("rtreeix: scan Start must be a 32-byte query box")
	}
	mode := rtree.Overlaps
	if len(opts.End) == 1 && opts.End[0] >= 1 && opts.End[0] <= 3 {
		mode = rtree.Mode(opts.End[0])
	}
	entries, err := ix.search(instance, opts.Start, mode)
	if err != nil {
		return nil, err
	}
	return &spatialScan{entries: entries}, nil
}

// EstimateCost implements core.AccessPath: recognises spatial conjuncts.
func (ix *Instance) EstimateCost(req core.CostRequest) core.CostEstimate {
	best := core.CostEstimate{Usable: false, IO: math.Inf(1), CPU: math.Inf(1)}
	for i, d := range ix.All() {
		for ci, c := range req.Conjuncts {
			query, mode, ok := MatchSpatialConjunct(c, d.Fields[0])
			if !ok {
				continue
			}
			ix.Mu.Lock()
			tree := d.X
			n := float64(tree.Len())
			height := float64(tree.Height())
			sel := 0.1
			if bounds, okb := tree.Bounds(); okb && bounds.Area() > 0 {
				sel = math.Min(1, query.Area()/bounds.Area())
			}
			ix.Mu.Unlock()
			est := core.CostEstimate{
				Usable: true, Instance: i, Handled: []int{ci},
				CPU: height + n*sel, IO: n * sel * 0.05,
				Selectivity: sel * smutil.ResidualSelectivity(req, []int{ci}),
				Start:       types.Key(query.Value().B),
				End:         ModeKey(mode),
			}
			if est.Total() < best.Total() || !best.Usable {
				best = est
			}
		}
	}
	return best
}

// MatchSpatialConjunct recognises ENCLOSES/OVERLAPS conjuncts over the
// given box field with a constant query box, returning the query and mode.
func MatchSpatialConjunct(c *expr.Expr, boxField int) (expr.Box, rtree.Mode, bool) {
	if c == nil || len(c.Args) != 2 {
		return expr.Box{}, 0, false
	}
	a, b := c.Args[0], c.Args[1]
	decode := func(e *expr.Expr) (expr.Box, bool) {
		if e.Op != expr.OpConst {
			return expr.Box{}, false
		}
		box, err := expr.DecodeBox(e.Val)
		return box, err == nil
	}
	switch c.Op {
	case expr.OpOverlaps:
		if a.Op == expr.OpField && a.Field == boxField {
			if q, ok := decode(b); ok {
				return q, rtree.Overlaps, true
			}
		}
		if b.Op == expr.OpField && b.Field == boxField {
			if q, ok := decode(a); ok {
				return q, rtree.Overlaps, true
			}
		}
	case expr.OpEncloses:
		// ENCLOSES(query, field): entries within the query box.
		if b.Op == expr.OpField && b.Field == boxField {
			if q, ok := decode(a); ok {
				return q, rtree.Within, true
			}
		}
		// ENCLOSES(field, query): entries containing the query box.
		if a.Op == expr.OpField && a.Field == boxField {
			if q, ok := decode(b); ok {
				return q, rtree.Contains, true
			}
		}
	}
	return expr.Box{}, 0, false
}

var (
	_ core.AttachmentInstance = (*Instance)(nil)
	_ core.AccessPath         = (*Instance)(nil)
)

// spatialScan iterates a snapshot of search results.
type spatialScan struct {
	entries []rtree.Entry
	next    int
	closed  bool
}

// Next implements core.Scan: returns the record key and a one-field
// record holding the entry's box.
func (s *spatialScan) Next() (types.Key, types.Record, bool, error) {
	if s.closed {
		return nil, nil, false, fmt.Errorf("rtreeix: scan is closed")
	}
	if s.next >= len(s.entries) {
		return nil, nil, false, nil
	}
	e := s.entries[s.next]
	s.next++
	return types.Key(e.Payload).Clone(), types.Record{e.Box.Value()}, true, nil
}

// Pos implements core.Scan.
func (s *spatialScan) Pos() core.ScanPos {
	return core.ScanPos{byte(s.next >> 24), byte(s.next >> 16), byte(s.next >> 8), byte(s.next)}
}

// Restore implements core.Scan. A closed scan stays closed, and a position
// is an index into this scan's snapshot.
func (s *spatialScan) Restore(pos core.ScanPos) error {
	if s.closed {
		return fmt.Errorf("rtreeix: scan is closed")
	}
	if len(pos) != 4 {
		return fmt.Errorf("rtreeix: bad scan position")
	}
	next := int(pos[0])<<24 | int(pos[1])<<16 | int(pos[2])<<8 | int(pos[3])
	if next > len(s.entries) {
		return fmt.Errorf("rtreeix: scan position %d is beyond the %d entries of the scan", next, len(s.entries))
	}
	s.next = next
	return nil
}

// Close implements core.Scan.
func (s *spatialScan) Close() error {
	s.closed = true
	return nil
}
