// Package btreeix implements the B-tree index attachment — the paper's
// worked example of a procedurally attached access path.
//
// After a record is inserted into a relation with B-tree indexes, the
// attached insert procedure forms an index key by projecting fields from
// the record and inserts (index key, record key) into each index. On
// update, the old record and key determine the entry to delete and the
// new ones the entry to insert — unless no indexed field changed, which
// the procedure detects and skips. Entries are stored as composite
// indexKey‖recordKey tree keys, giving non-unique index semantics;
// unique indexes veto duplicate-key modifications.
package btreeix

import (
	"bytes"
	"fmt"
	"math"

	"dmx/internal/att/attutil"
	"dmx/internal/btree"
	"dmx/internal/core"
	"dmx/internal/sm/smutil"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// Name is the DDL name of the attachment type.
const Name = "btree"

// ErrUniqueViolation is the veto reason for duplicate keys in a unique index.
var ErrUniqueViolation = fmt.Errorf("btreeix: unique index violation")

type def = attutil.Def[*btree.Tree]

// Each instance's state is its tree of composite indexKey‖recordKey
// entries, each holding the record key.
var entries = attutil.EntryType[*btree.Tree]{
	KeyOf: func(d *def, rec types.Record, recKey types.Key) (types.Key, bool, error) {
		key := make(types.Key, 0, types.KeyFieldsLen(rec, d.Fields)+len(recKey))
		return append(types.AppendKeyFields(key, rec, d.Fields), recKey...), true, nil
	},
	Add: func(d *def, entryKey, recKey types.Key) error {
		d.X.Set(entryKey, recKey)
		return nil
	},
	Remove: func(d *def, entryKey, _ types.Key) error {
		d.X.Delete(entryKey)
		return nil
	},
	Taken: func(d *def, indexKey types.Key) bool {
		taken := false
		d.X.Ascend(indexKey, func(k, v []byte) bool {
			taken = bytes.HasPrefix(k, indexKey)
			return false
		})
		return taken
	},
	Violation: ErrUniqueViolation,
}

func init() {
	core.RegisterAttachment(attutil.Ops(attutil.Type[*btree.Tree, *Instance]{
		ID:    core.AttBTree,
		Name:  Name,
		Attrs: []string{"on", "unique"},
		Parse: func(env *core.Env, rd *core.RelDesc, attrs core.AttrList) (attutil.IndexDef, error) {
			d, err := attutil.ParseOn(env, rd, attrs)
			uniq, _ := attrs.Get("unique")
			d.Unique = uniq == "true"
			return d, err
		},
		Decode: func(*core.Env, *core.RelDesc, attutil.IndexDef) (*btree.Tree, error) {
			return btree.New(), nil
		},
		Open: func(defs *attutil.Defs[*btree.Tree]) *Instance {
			return &Instance{attutil.NewEntries(defs, &entries)}
		},
		// Entries are logged, so an aborted CREATE INDEX unwinds them;
		// building a unique index over duplicates vetoes the DDL.
		BuildRow: (*Instance).BuildRow,
	}))
}

// Instance services every B-tree index instance on one relation.
type Instance struct {
	attutil.Entries[*btree.Tree]
}

// LookupByKey implements core.AccessPath: record keys whose index key has
// the given (possibly partial) key as prefix, read from key up to the
// first entry without it. The keys are the tree items' values, which the
// tree never writes again (btree.Tree).
func (ix *Instance) LookupByKey(tx *txn.Txn, instance int, key types.Key, dst ...types.Key) ([]types.Key, error) {
	d, err := ix.At(instance)
	if err != nil {
		return dst, err
	}
	ix.Mu.Lock()
	defer ix.Mu.Unlock()
	d.X.Ascend(key, func(k, v []byte) bool {
		if !bytes.HasPrefix(k, key) {
			return false
		}
		dst = append(dst, v)
		return true
	})
	return dst, nil
}

// OpenScan implements core.AccessPath: key-sequential access in index-key
// order returning record keys plus the stored index key fields, or a nil
// record when opts.Fields asks for no fields (non-nil and empty).
func (ix *Instance) OpenScan(tx *txn.Txn, instance int, opts core.ScanOptions) (core.Scan, error) {
	d, err := ix.At(instance)
	if err != nil {
		return nil, err
	}
	keysOnly := opts.Fields != nil && len(opts.Fields) == 0
	var keys types.Slab[byte] // the record keys the scan returns
	emit := func(k, v []byte) (types.Key, types.Record, bool, error) {
		if keysOnly {
			return keys.Copy(v), nil, true, nil
		}
		keyVals, err := types.DecodeKeyValues(types.Key(k[:len(k)-len(v)]))
		if err != nil {
			return nil, nil, false, err
		}
		return keys.Copy(v), types.Record(keyVals), true, nil
	}
	return smutil.NewTreeScan(&ix.Mu, d.X, opts.Start, opts.End, emit), nil
}

// EstimateCost implements core.AccessPath: the best instance for the
// planner's eligible predicates ("a B-tree access path will return a low
// cost if there is a predicate on the key of the B-tree").
func (ix *Instance) EstimateCost(req core.CostRequest) core.CostEstimate {
	best := core.CostEstimate{Usable: false, IO: math.Inf(1), CPU: math.Inf(1)}
	for i, d := range ix.All() {
		start, end, handled, point, depth := smutil.KeyRange(d.Fields, req.Conjuncts, req.Scratch)
		ordered := len(req.OrderBy) > 0 && smutil.OrderSatisfiedBy(d.Fields, req.OrderBy)
		if depth == 0 && !ordered {
			continue
		}
		ix.Mu.Lock()
		n := float64(d.X.Len())
		height := float64(d.X.Height())
		ix.Mu.Unlock()
		if depth == 0 {
			// No usable predicate: a full key-sequential pass through the
			// index, valuable only because it delivers the order. Every
			// entry costs a direct record fetch, so the pass is several
			// times a plain scan — worthwhile only when the caller stops
			// early (the planner scales by the row limit).
			est := core.CostEstimate{
				Usable: true, Instance: i, Ordered: true,
				CPU: n * 3, IO: n * 0.1, Selectivity: 1,
			}
			if est.Total() < best.Total() || !best.Usable {
				best = est
			}
			continue
		}
		est := core.CostEstimate{
			Usable: true, Instance: i, Handled: handled, Start: start, End: end,
			Ordered: ordered, Point: point,
		}
		if point && d.Unique {
			est.CPU = height + 1
			est.Selectivity = 1 / math.Max(n, 1)
		} else {
			frac := smutil.HandledSelectivity(req, handled)
			est.CPU = height + n*frac
			est.Selectivity = frac
		}
		// Each qualifying entry costs a direct record fetch.
		est.IO = est.Selectivity * math.Max(n, 1) * 0.1
		if est.Total() < best.Total() || !best.Usable {
			best = est
		}
	}
	return best
}

// EntryCount returns the number of entries in the dense-numbered instance
// (for tests and the experiment harness).
func (ix *Instance) EntryCount(instance int) int {
	d, err := ix.At(instance)
	if err != nil {
		return -1
	}
	ix.Mu.Lock()
	defer ix.Mu.Unlock()
	return d.X.Len()
}

var (
	_ core.AttachmentInstance = (*Instance)(nil)
	_ core.AccessPath         = (*Instance)(nil)
)
