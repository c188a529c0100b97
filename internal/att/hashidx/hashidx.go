// Package hashidx implements the hash-table access path attachment: a
// constant-time direct-by-key mapping from index key to record keys.
//
// Hash indexes answer only equality predicates; the cost estimator
// reports itself unusable otherwise. They maintain no useful ordering, so
// key-sequential access is not offered (the generic interface allows an
// access path to support direct-by-key access only).
package hashidx

import (
	"fmt"
	"math"

	"dmx/internal/att/attutil"
	"dmx/internal/core"
	"dmx/internal/sm/smutil"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// Name is the DDL name of the attachment type.
const Name = "hash"

// Each instance's state is its bucket table: index key -> record keys.
var entries = attutil.EntryType[attutil.Multimap]{
	KeyOf: func(d *attutil.Def[attutil.Multimap], rec types.Record, _ types.Key) (types.Key, bool, error) {
		return types.EncodeKeyFields(rec, d.Fields), true, nil
	},
	Add: func(d *attutil.Def[attutil.Multimap], indexKey, recKey types.Key) error {
		d.X.Add(indexKey, recKey)
		return nil
	},
	Remove: func(d *attutil.Def[attutil.Multimap], indexKey, recKey types.Key) error {
		d.X.Remove(indexKey, recKey)
		return nil
	},
}

func init() {
	core.RegisterAttachment(attutil.Ops(attutil.Type[attutil.Multimap, *Instance]{
		ID:    core.AttHash,
		Name:  Name,
		Attrs: []string{"on"},
		Parse: attutil.ParseOn,
		Decode: func(*core.Env, *core.RelDesc, attutil.IndexDef) (attutil.Multimap, error) {
			return attutil.Multimap{}, nil
		},
		Open: func(defs *attutil.Defs[attutil.Multimap]) *Instance {
			return &Instance{attutil.NewEntries(defs, &entries)}
		},
		BuildRow: (*Instance).BuildRow,
	}))
}

// Instance services every hash index instance on one relation.
type Instance struct {
	attutil.Entries[attutil.Multimap]
}

// LookupByKey implements core.AccessPath: constant-time bucket probe.
func (ix *Instance) LookupByKey(tx *txn.Txn, instance int, key types.Key) ([]types.Key, error) {
	d, err := ix.At(instance)
	if err != nil {
		return nil, err
	}
	ix.Mu.Lock()
	defer ix.Mu.Unlock()
	return d.X.Get(key), nil
}

// OpenScan implements core.AccessPath: hash tables keep no useful order.
func (ix *Instance) OpenScan(tx *txn.Txn, instance int, opts core.ScanOptions) (core.Scan, error) {
	return nil, fmt.Errorf("hashidx: hash indexes support direct-by-key access only")
}

// EstimateCost implements core.AccessPath: usable only when every index
// field is bound by an equality conjunct.
func (ix *Instance) EstimateCost(req core.CostRequest) core.CostEstimate {
	best := core.CostEstimate{Usable: false, IO: math.Inf(1), CPU: math.Inf(1)}
	for i, d := range ix.All() {
		key, _, handled, point, _ := smutil.KeyRange(d.Fields, req.Conjuncts)
		if !point {
			continue
		}
		ix.Mu.Lock()
		n := float64(len(d.X))
		ix.Mu.Unlock()
		est := core.CostEstimate{
			Usable: true, Instance: i, Handled: handled,
			CPU: 1, IO: 0.1, Selectivity: 1 / math.Max(n, 1),
			// Direct-by-key only: the probe key travels in Start.
			Start: key, End: key, Point: true,
		}
		if est.Total() < best.Total() || !best.Usable {
			best = est
		}
	}
	return best
}

var (
	_ core.AttachmentInstance = (*Instance)(nil)
	_ core.AccessPath         = (*Instance)(nil)
	_ core.Reconfigurer       = (*Instance)(nil)
)
