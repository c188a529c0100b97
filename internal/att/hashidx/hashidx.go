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
	"sync"

	"dmx/internal/att/attutil"
	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// Name is the DDL name of the attachment type.
const Name = "hash"

func init() {
	core.RegisterAttachment(&core.AttachmentOps{
		ID:   core.AttHash,
		Name: Name,
		ValidateAttrs: func(env *core.Env, rd *core.RelDesc, attrs core.AttrList) error {
			if err := attrs.CheckAllowed(Name, "name", "on"); err != nil {
				return err
			}
			_, err := attutil.ParseColumns(rd.Schema, attrs)
			return err
		},
		Create: func(env *core.Env, tx *txn.Txn, rd *core.RelDesc, prior []byte, attrs core.AttrList) ([]byte, error) {
			fields, err := attutil.ParseColumns(rd.Schema, attrs)
			if err != nil {
				return nil, err
			}
			return attutil.AddDef(prior, attutil.IndexDef{
				Name:   attutil.InstanceName(attrs, prior),
				Fields: fields,
			})
		},
		Drop: func(env *core.Env, tx *txn.Txn, rd *core.RelDesc, prior []byte, attrs core.AttrList) ([]byte, error) {
			name, ok := attrs.Get("name")
			if !ok {
				return nil, nil
			}
			return attutil.RemoveDef(prior, name)
		},
		Open: func(env *core.Env, rd *core.RelDesc) (core.AttachmentInstance, error) {
			inst := &Instance{env: env, rd: rd, tables: make(map[uint32]map[string][]types.Key)}
			if err := inst.Reconfigure(rd); err != nil {
				return nil, err
			}
			return inst, nil
		},
		Build: func(env *core.Env, tx *txn.Txn, rd *core.RelDesc, newOnly bool) error {
			instAny, err := env.AttachmentInstance(rd, core.AttHash)
			if err != nil {
				return err
			}
			inst := instAny.(*Instance)
			inst.mu.Lock()
			defs := inst.defs
			inst.mu.Unlock()
			if newOnly && len(defs) > 0 {
				defs = defs[len(defs)-1:] // Create appends, so the new def is last
			}
			return core.BuildScan(env, tx, rd, func(key types.Key, rec types.Record) error {
				for _, d := range defs {
					if err := inst.apply(tx, d, core.ModInsert, rec, key); err != nil {
						return err
					}
				}
				return nil
			})
		},
	})
}

// Instance services every hash index instance on one relation.
type Instance struct {
	env *core.Env
	rd  *core.RelDesc

	mu     sync.Mutex
	defs   []attutil.IndexDef
	tables map[uint32]map[string][]types.Key // by Seq: index key -> record keys
}

// Reconfigure implements core.Reconfigurer.
func (ix *Instance) Reconfigure(rd *core.RelDesc) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	field := rd.AttDesc[core.AttHash]
	if field == nil {
		ix.defs = nil
		return nil
	}
	_, defs, err := attutil.DecodeDefs(field)
	if err != nil {
		return err
	}
	ix.defs = defs
	for _, d := range defs {
		if ix.tables[d.Seq] == nil {
			ix.tables[d.Seq] = make(map[string][]types.Key)
		}
	}
	return nil
}

func (ix *Instance) apply(tx *txn.Txn, d attutil.IndexDef, op core.ModOp, rec types.Record, recKey types.Key) error {
	ik := types.EncodeKeyFields(rec, d.Fields)
	if err := core.LogAttachment(tx, ix.rd, core.AttHash, core.EntryPayload{
		Op: op, Instance: int(d.Seq), EntryKey: ik, RecKey: recKey,
	}); err != nil {
		return err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.applyLocked(d.Seq, op, ik, recKey)
	return nil
}

func (ix *Instance) applyLocked(seq uint32, op core.ModOp, ik types.Key, recKey types.Key) {
	table := ix.tables[seq]
	if table == nil {
		table = make(map[string][]types.Key)
		ix.tables[seq] = table
	}
	bucket := table[string(ik)]
	if op == core.ModInsert {
		table[string(ik)] = append(bucket, recKey.Clone())
		return
	}
	for i, k := range bucket {
		if k.Equal(recKey) {
			bucket = append(bucket[:i], bucket[i+1:]...)
			break
		}
	}
	if len(bucket) == 0 {
		delete(table, string(ik))
	} else {
		table[string(ik)] = bucket
	}
}

// OnInsert implements core.AttachmentInstance.
func (ix *Instance) OnInsert(tx *txn.Txn, key types.Key, rec types.Record) error {
	ix.mu.Lock()
	defs := ix.defs
	ix.mu.Unlock()
	for _, d := range defs {
		if err := ix.apply(tx, d, core.ModInsert, rec, key); err != nil {
			return err
		}
	}
	return nil
}

// OnUpdate implements core.AttachmentInstance.
func (ix *Instance) OnUpdate(tx *txn.Txn, oldKey, newKey types.Key, oldRec, newRec types.Record) error {
	ix.mu.Lock()
	defs := ix.defs
	ix.mu.Unlock()
	keyMoved := !oldKey.Equal(newKey)
	for _, d := range defs {
		if !keyMoved && !attutil.FieldsChanged(d.Fields, oldRec, newRec) {
			continue
		}
		if err := ix.apply(tx, d, core.ModDelete, oldRec, oldKey); err != nil {
			return err
		}
		if err := ix.apply(tx, d, core.ModInsert, newRec, newKey); err != nil {
			return err
		}
	}
	return nil
}

// OnDelete implements core.AttachmentInstance.
func (ix *Instance) OnDelete(tx *txn.Txn, key types.Key, oldRec types.Record) error {
	ix.mu.Lock()
	defs := ix.defs
	ix.mu.Unlock()
	for _, d := range defs {
		if err := ix.apply(tx, d, core.ModDelete, oldRec, key); err != nil {
			return err
		}
	}
	return nil
}

// ApplyLogged implements core.AttachmentInstance.
func (ix *Instance) ApplyLogged(payload []byte, undo bool) error {
	p, err := core.DecodeEntry(payload)
	if err != nil {
		return err
	}
	op := p.Op
	if undo {
		if op == core.ModInsert {
			op = core.ModDelete
		} else {
			op = core.ModInsert
		}
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.applyLocked(uint32(p.Instance), op, p.EntryKey, p.RecKey)
	return nil
}

func (ix *Instance) defAt(instance int) (attutil.IndexDef, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if instance < 0 || instance >= len(ix.defs) {
		return attutil.IndexDef{}, fmt.Errorf("hashidx: %w: instance %d of %d", core.ErrNotFound, instance, len(ix.defs))
	}
	return ix.defs[instance], nil
}

// LookupByKey implements core.AccessPath: constant-time bucket probe.
func (ix *Instance) LookupByKey(tx *txn.Txn, instance int, key types.Key) ([]types.Key, error) {
	d, err := ix.defAt(instance)
	if err != nil {
		return nil, err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	bucket := ix.tables[d.Seq][string(key)]
	out := make([]types.Key, len(bucket))
	for i, k := range bucket {
		out[i] = k.Clone()
	}
	return out, nil
}

// OpenScan implements core.AccessPath: hash tables keep no useful order.
func (ix *Instance) OpenScan(tx *txn.Txn, instance int, opts core.ScanOptions) (core.Scan, error) {
	return nil, fmt.Errorf("hashidx: hash indexes support direct-by-key access only")
}

// EstimateCost implements core.AccessPath: usable only when every index
// field is bound by an equality conjunct.
func (ix *Instance) EstimateCost(req core.CostRequest) core.CostEstimate {
	ix.mu.Lock()
	defs := ix.defs
	ix.mu.Unlock()
	best := core.CostEstimate{Usable: false, IO: math.Inf(1), CPU: math.Inf(1)}
	for i, d := range defs {
		handled := make([]int, 0, len(d.Fields))
		var key types.Key
		for _, f := range d.Fields {
			found := -1
			for ci, c := range req.Conjuncts {
				if fc, ok := expr.MatchFieldCompare(c); ok && fc.Field == f && fc.Op == expr.OpEq {
					found = ci
					key = fc.Value.AppendOrderedEncode(key)
					break
				}
			}
			if found < 0 {
				handled = nil
				break
			}
			handled = append(handled, found)
		}
		if handled == nil {
			continue
		}
		ix.mu.Lock()
		n := float64(len(ix.tables[d.Seq]))
		ix.mu.Unlock()
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

// InstanceCount implements core.AccessPath.
func (ix *Instance) InstanceCount() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.defs)
}

var (
	_ core.AttachmentInstance = (*Instance)(nil)
	_ core.AccessPath         = (*Instance)(nil)
	_ core.Reconfigurer       = (*Instance)(nil)
)
