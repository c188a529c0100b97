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
	"fmt"
	"math"
	"sync"

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

func init() {
	core.RegisterAttachment(&core.AttachmentOps{
		ID:   core.AttBTree,
		Name: Name,
		ValidateAttrs: func(env *core.Env, rd *core.RelDesc, attrs core.AttrList) error {
			if err := attrs.CheckAllowed(Name, "name", "on", "unique"); err != nil {
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
			uniq, _ := attrs.Get("unique")
			return attutil.AddDef(prior, attutil.IndexDef{
				Name:   attutil.InstanceName(attrs, prior),
				Fields: fields,
				Unique: uniq == "true",
			})
		},
		Drop: func(env *core.Env, tx *txn.Txn, rd *core.RelDesc, prior []byte, attrs core.AttrList) ([]byte, error) {
			name, ok := attrs.Get("name")
			if !ok {
				return nil, nil // drop all instances
			}
			return attutil.RemoveDef(prior, name)
		},
		Open: func(env *core.Env, rd *core.RelDesc) (core.AttachmentInstance, error) {
			inst := &Instance{env: env, rd: rd, trees: make(map[uint32]*btree.Tree)}
			if err := inst.Reconfigure(rd); err != nil {
				return nil, err
			}
			return inst, nil
		},
		Build: func(env *core.Env, tx *txn.Txn, rd *core.RelDesc, newOnly bool) error {
			return buildFromRelation(env, tx, rd, newOnly)
		},
	})
}

// buildFromRelation populates indexes from the relation's existing records
// (entries are logged, so an aborted CREATE INDEX unwinds them).
func buildFromRelation(env *core.Env, tx *txn.Txn, rd *core.RelDesc, newOnly bool) error {
	instAny, err := env.AttachmentInstance(rd, core.AttBTree)
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
			// Creating a unique index over duplicate-carrying contents
			// vetoes the DDL.
			if err := inst.checkUnique(d, rec, key); err != nil {
				return err
			}
			if err := inst.apply(tx, d, core.ModInsert, rec, key); err != nil {
				return err
			}
		}
		return nil
	})
}

// Instance services every B-tree index instance on one relation.
type Instance struct {
	env *core.Env
	rd  *core.RelDesc

	mu    sync.Mutex
	defs  []attutil.IndexDef
	trees map[uint32]*btree.Tree // by Seq; retained across reconfigure
}

// Reconfigure implements core.Reconfigurer.
func (ix *Instance) Reconfigure(rd *core.RelDesc) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	field := rd.AttDesc[core.AttBTree]
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
		if ix.trees[d.Seq] == nil {
			ix.trees[d.Seq] = btree.New()
		}
	}
	return nil
}

// entryKey composes the stored composite key for a record in one index.
func entryKey(d attutil.IndexDef, rec types.Record, recKey types.Key) types.Key {
	ik := types.EncodeKeyFields(rec, d.Fields)
	return append(ik, recKey...)
}

// indexKey is the index key alone (the composite's prefix).
func indexKey(d attutil.IndexDef, rec types.Record) types.Key {
	return types.EncodeKeyFields(rec, d.Fields)
}

func (ix *Instance) apply(tx *txn.Txn, d attutil.IndexDef, op core.ModOp, rec types.Record, recKey types.Key) error {
	ek := entryKey(d, rec, recKey)
	if err := core.LogAttachment(tx, ix.rd, core.AttBTree, core.EntryPayload{
		Op: op, Instance: int(d.Seq), EntryKey: ek, RecKey: recKey,
	}); err != nil {
		return err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	tree := ix.trees[d.Seq]
	if op == core.ModInsert {
		tree.Set(ek, recKey)
	} else {
		tree.Delete(ek)
	}
	return nil
}

// checkUnique vetoes when the index key already maps to a different record.
func (ix *Instance) checkUnique(d attutil.IndexDef, rec types.Record, recKey types.Key) error {
	if !d.Unique {
		return nil
	}
	ik := indexKey(d, rec)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	violated := false
	ix.trees[d.Seq].AscendRange(ik, smutil.PrefixSuccessor(ik), func(k, v []byte) bool {
		if !types.Key(v).Equal(recKey) {
			violated = true
		}
		return !violated
	})
	if violated {
		return fmt.Errorf("%w: index %q key %v", ErrUniqueViolation, d.Name, rec.Project(d.Fields))
	}
	return nil
}

// OnInsert implements core.AttachmentInstance.
func (ix *Instance) OnInsert(tx *txn.Txn, key types.Key, rec types.Record) error {
	ix.mu.Lock()
	defs := ix.defs
	ix.mu.Unlock()
	for _, d := range defs {
		if err := ix.checkUnique(d, rec, key); err != nil {
			return err
		}
		if err := ix.apply(tx, d, core.ModInsert, rec, key); err != nil {
			return err
		}
	}
	return nil
}

// OnUpdate implements core.AttachmentInstance, skipping indexes none of
// whose fields changed (when the record key is also unchanged).
func (ix *Instance) OnUpdate(tx *txn.Txn, oldKey, newKey types.Key, oldRec, newRec types.Record) error {
	ix.mu.Lock()
	defs := ix.defs
	ix.mu.Unlock()
	keyMoved := !oldKey.Equal(newKey)
	for _, d := range defs {
		if !keyMoved && !attutil.FieldsChanged(d.Fields, oldRec, newRec) {
			continue
		}
		if err := ix.checkUnique(d, newRec, oldKey); err != nil {
			return err
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
	tree := ix.trees[uint32(p.Instance)]
	if tree == nil {
		tree = btree.New()
		ix.trees[uint32(p.Instance)] = tree
	}
	if op == core.ModInsert {
		tree.Set(p.EntryKey, p.RecKey)
	} else {
		tree.Delete(p.EntryKey)
	}
	return nil
}

// defAt returns the dense-numbered instance definition.
func (ix *Instance) defAt(instance int) (attutil.IndexDef, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if instance < 0 || instance >= len(ix.defs) {
		return attutil.IndexDef{}, fmt.Errorf("btreeix: %w: instance %d of %d", core.ErrNotFound, instance, len(ix.defs))
	}
	return ix.defs[instance], nil
}

// LookupByKey implements core.AccessPath: record keys whose index key has
// the given (possibly partial) key as prefix.
func (ix *Instance) LookupByKey(tx *txn.Txn, instance int, key types.Key) ([]types.Key, error) {
	d, err := ix.defAt(instance)
	if err != nil {
		return nil, err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var out []types.Key
	ix.trees[d.Seq].AscendRange(key, smutil.PrefixSuccessor(key), func(k, v []byte) bool {
		out = append(out, types.Key(v).Clone())
		return true
	})
	return out, nil
}

// OpenScan implements core.AccessPath: key-sequential access in index-key
// order returning record keys plus the stored index key fields.
func (ix *Instance) OpenScan(tx *txn.Txn, instance int, opts core.ScanOptions) (core.Scan, error) {
	d, err := ix.defAt(instance)
	if err != nil {
		return nil, err
	}
	emit := func(k, v []byte) (types.Key, types.Record, bool, error) {
		keyVals, err := types.DecodeKeyValues(types.Key(k[:len(k)-len(v)]))
		if err != nil {
			return nil, nil, false, err
		}
		return types.Key(v).Clone(), types.Record(keyVals), true, nil
	}
	ix.mu.Lock()
	tree := ix.trees[d.Seq]
	ix.mu.Unlock()
	return smutil.NewTreeScan(&ix.mu, tree, opts.Start, opts.End, emit), nil
}

// EstimateCost implements core.AccessPath: the best instance for the
// planner's eligible predicates ("a B-tree access path will return a low
// cost if there is a predicate on the key of the B-tree").
func (ix *Instance) EstimateCost(req core.CostRequest) core.CostEstimate {
	ix.mu.Lock()
	defs := ix.defs
	ix.mu.Unlock()
	best := core.CostEstimate{Usable: false, IO: math.Inf(1), CPU: math.Inf(1)}
	for i, d := range defs {
		start, end, handled, point, depth := smutil.KeyRange(d.Fields, req.Conjuncts)
		ordered := len(req.OrderBy) > 0 && smutil.OrderSatisfiedBy(d.Fields, req.OrderBy)
		if depth == 0 && !ordered {
			continue
		}
		ix.mu.Lock()
		n := float64(ix.trees[d.Seq].Len())
		height := float64(ix.trees[d.Seq].Height())
		ix.mu.Unlock()
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

// InstanceCount implements core.AccessPath.
func (ix *Instance) InstanceCount() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.defs)
}

// EntryCount returns the number of entries in the dense-numbered instance
// (for tests and the experiment harness).
func (ix *Instance) EntryCount(instance int) int {
	d, err := ix.defAt(instance)
	if err != nil {
		return -1
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.trees[d.Seq].Len()
}

var (
	_ core.AttachmentInstance = (*Instance)(nil)
	_ core.AccessPath         = (*Instance)(nil)
	_ core.Reconfigurer       = (*Instance)(nil)
)
