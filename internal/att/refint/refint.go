// Package refint implements the referential-integrity attachment.
//
// Instances come in two roles, matching the paper's description. A
// *child*-role instance checks, on insert or update, that a matching
// parent record exists (immediately, or — via the deferred action queue —
// just before the transaction enters the prepared state, for constraints
// that cannot hold mid-transaction). A *parent*-role instance reacts to
// parent deletes: with action=cascade it performs record delete
// operations on the child relation — which may themselves cascade when
// the child also carries a parent-role instance — and with
// action=restrict it vetoes the delete while children exist.
package refint

import (
	"encoding/binary"
	"fmt"

	"dmx/internal/att/attutil"
	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// Name is the DDL name of the attachment type.
const Name = "refint"

// Veto reasons.
var (
	ErrNoParent    = fmt.Errorf("refint: no matching parent record")
	ErrHasChildren = fmt.Errorf("refint: children exist (action=restrict)")
)

type role uint8

const (
	roleChild role = iota + 1
	roleParent
)

type action uint8

const (
	actionRestrict action = iota + 1
	actionCascade
)

type timing uint8

const (
	timingImmediate timing = iota + 1
	timingDeferred
)

func init() {
	core.RegisterAttachment(attutil.Ops(attutil.Type[*defCfg, *Instance]{
		ID:    core.AttRefInt,
		Name:  Name,
		Attrs: []string{"role", "on", "peer", "peerkey", "action", "timing"},
		Parse: func(env *core.Env, rd *core.RelDesc, attrs core.AttrList) (attutil.IndexDef, error) {
			cfg, err := parseDef(env, rd, attrs)
			if err != nil {
				return attutil.IndexDef{}, err
			}
			return attutil.IndexDef{Fields: cfg.ownFields, Extra: cfg.encodeExtra()}, nil
		},
		Decode: func(_ *core.Env, _ *core.RelDesc, d attutil.IndexDef) (*defCfg, error) {
			return decodeExtra(d.Name, d.Fields, d.Extra)
		},
		Open: func(defs *attutil.Defs[*defCfg]) *Instance { return &Instance{defs} },
	}))
}

type defCfg struct {
	name       string
	role       role
	act        action
	tim        timing
	ownFields  []int
	peerRel    string
	peerFields []int
}

func parseDef(env *core.Env, rd *core.RelDesc, attrs core.AttrList) (*defCfg, error) {
	cfg := &defCfg{act: actionRestrict, tim: timingImmediate}
	switch r, _ := attrs.Get("role"); r {
	case "child":
		cfg.role = roleChild
	case "parent":
		cfg.role = roleParent
	default:
		return nil, fmt.Errorf("refint: role must be child or parent, got %q", r)
	}
	var err error
	cfg.ownFields, err = attutil.ParseColumns(rd.Schema, attrs)
	if err != nil {
		return nil, err
	}
	peer, ok := attrs.Get("peer")
	if !ok {
		return nil, fmt.Errorf("refint: a peer=<relation> attribute is required")
	}
	cfg.peerRel = peer
	peerRD, ok := env.Cat.ByName(peer)
	if !ok {
		return nil, fmt.Errorf("refint: %w: peer relation %q", core.ErrNotFound, peer)
	}
	spec, ok := attrs.Get("peerkey")
	if !ok {
		return nil, fmt.Errorf("refint: a peerkey=<cols> attribute is required")
	}
	peerAttrs := core.AttrList{"on": spec}
	cfg.peerFields, err = attutil.ParseColumns(peerRD.Schema, peerAttrs)
	if err != nil {
		return nil, err
	}
	if len(cfg.peerFields) != len(cfg.ownFields) {
		return nil, fmt.Errorf("refint: on and peerkey column counts differ (%d vs %d)", len(cfg.ownFields), len(cfg.peerFields))
	}
	if a, ok := attrs.Get("action"); ok {
		switch a {
		case "cascade":
			cfg.act = actionCascade
		case "restrict":
			cfg.act = actionRestrict
		default:
			return nil, fmt.Errorf("refint: action must be cascade or restrict, got %q", a)
		}
	}
	if tm, ok := attrs.Get("timing"); ok {
		switch tm {
		case "deferred":
			cfg.tim = timingDeferred
		case "immediate":
			cfg.tim = timingImmediate
		default:
			return nil, fmt.Errorf("refint: timing must be immediate or deferred, got %q", tm)
		}
	}
	return cfg, nil
}

func (c *defCfg) encodeExtra() []byte {
	out := []byte{byte(c.role), byte(c.act), byte(c.tim), byte(len(c.peerFields))}
	for _, f := range c.peerFields {
		out = binary.BigEndian.AppendUint16(out, uint16(f))
	}
	return append(out, c.peerRel...)
}

func decodeExtra(name string, fields []int, b []byte) (*defCfg, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("refint: corrupt descriptor for %q", name)
	}
	cfg := &defCfg{name: name, role: role(b[0]), act: action(b[1]), tim: timing(b[2]), ownFields: fields}
	n := int(b[3])
	if len(b) < 4+2*n {
		return nil, fmt.Errorf("refint: corrupt peer fields for %q", name)
	}
	for i := 0; i < n; i++ {
		cfg.peerFields = append(cfg.peerFields, int(binary.BigEndian.Uint16(b[4+2*i:])))
	}
	cfg.peerRel = string(b[4+2*n:])
	return cfg, nil
}

// Instance services every referential-integrity instance on one relation.
type Instance struct {
	*attutil.Defs[*defCfg]
}

// matchFilter builds the equality predicate binding peer fields to the
// given values.
func matchFilter(fields []int, vals []types.Value) *expr.Expr {
	var conj []*expr.Expr
	for i, f := range fields {
		conj = append(conj, expr.Eq(expr.Field(f), expr.Const(vals[i])))
	}
	return expr.And(conj...)
}

// peerMatches returns the keys of peer records matching vals on fields.
func (in *Instance) peerMatches(tx *txn.Txn, cfg *defCfg, vals []types.Value, limit int) ([]types.Key, error) {
	peer, err := in.Env().OpenRelationByName(cfg.peerRel)
	if err != nil {
		return nil, err
	}
	scan, err := peer.OpenScan(tx, core.ScanOptions{Filter: matchFilter(cfg.peerFields, vals), Fields: []int{}})
	if err != nil {
		return nil, err
	}
	defer scan.Close()
	var keys []types.Key
	for limit <= 0 || len(keys) < limit {
		k, _, ok, err := scan.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		keys = append(keys, k)
	}
	return keys, nil
}

// fkValues extracts the constrained field values; nil if any is NULL (a
// NULL foreign key is not checked, per SQL convention).
func fkValues(fields []int, rec types.Record) []types.Value {
	vals := make([]types.Value, len(fields))
	for i, f := range fields {
		if rec[f].IsNull() {
			return nil
		}
		vals[i] = rec[f]
	}
	return vals
}

// checkParentExists is the child-side test.
func (in *Instance) checkParentExists(tx *txn.Txn, cfg *defCfg, vals []types.Value) error {
	keys, err := in.peerMatches(tx, cfg, vals, 1)
	if err != nil {
		return err
	}
	if len(keys) == 0 {
		return fmt.Errorf("%w: %q values %v in %q", ErrNoParent, cfg.name, vals, cfg.peerRel)
	}
	return nil
}

// deferCheck queues the parent-existence test on the deferred action
// queue for the before-prepare event, deduplicating by constraint+values.
func (in *Instance) deferCheck(tx *txn.Txn, cfg *defCfg, vals []types.Value) error {
	stashKey := fmt.Sprintf("refint:%d:%s:%v", in.RelID(), cfg.name, vals)
	if _, dup := tx.Stash()[stashKey]; dup {
		return nil
	}
	tx.Stash()[stashKey] = true
	return tx.Defer(txn.EventBeforePrepare, func(tx *txn.Txn, _ string) error {
		// The queued closure survives savepoint rollbacks and deletes of
		// the row that enqueued it, so re-check at commit that some child
		// row still carries these values before demanding a parent.
		ok, err := in.selfMatches(tx, cfg, vals)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		return in.checkParentExists(tx, cfg, vals)
	})
}

// selfMatches reports whether the constrained relation still holds at
// least one record with the given foreign-key values.
func (in *Instance) selfMatches(tx *txn.Txn, cfg *defCfg, vals []types.Value) (bool, error) {
	self, err := in.Env().OpenRelationByName(in.Desc().Name)
	if err != nil {
		return false, err
	}
	scan, err := self.OpenScan(tx, core.ScanOptions{Filter: matchFilter(cfg.ownFields, vals), Fields: []int{}})
	if err != nil {
		return false, err
	}
	defer scan.Close()
	_, _, ok, err := scan.Next()
	return ok, err
}

func (in *Instance) childCheck(tx *txn.Txn, cfg *defCfg, rec types.Record) error {
	vals := fkValues(cfg.ownFields, rec)
	if vals == nil {
		return nil
	}
	if cfg.tim == timingDeferred {
		return in.deferCheck(tx, cfg, vals)
	}
	return in.checkParentExists(tx, cfg, vals)
}

// parentDeleteOrShrink handles removal of a parent key (delete, or update
// changing the key): cascade deletes the children or restrict vetoes.
func (in *Instance) parentKeyRemoved(tx *txn.Txn, cfg *defCfg, oldRec types.Record) error {
	vals := fkValues(cfg.ownFields, oldRec)
	if vals == nil {
		return nil
	}
	childRel, err := in.Env().OpenRelationByName(cfg.peerRel)
	if err != nil {
		return err
	}
	// Enumerate matching children via the child relation's fields.
	keys, err := in.peerMatches(tx, cfg, vals, 0)
	if err != nil {
		return err
	}
	if len(keys) == 0 {
		return nil
	}
	if cfg.act == actionRestrict {
		return fmt.Errorf("%w: %q has %d child record(s) in %q", ErrHasChildren, cfg.name, len(keys), cfg.peerRel)
	}
	// Cascade: delete each child through the generic interfaces, so the
	// children's own attachments fire and deletes cascade further.
	for _, k := range keys {
		if err := childRel.Delete(tx, k); err != nil {
			return err
		}
	}
	return nil
}

// OnInsert implements core.AttachmentInstance.
func (in *Instance) OnInsert(tx *txn.Txn, key types.Key, rec types.Record) error {
	for _, d := range in.All() {
		cfg := d.X
		if cfg.role != roleChild {
			continue
		}
		if err := in.childCheck(tx, cfg, rec); err != nil {
			return err
		}
	}
	return nil
}

// OnUpdate implements core.AttachmentInstance.
func (in *Instance) OnUpdate(tx *txn.Txn, oldKey, newKey types.Key, oldRec, newRec types.Record) error {
	for _, d := range in.All() {
		cfg := d.X
		if !attutil.FieldsChanged(cfg.ownFields, oldRec, newRec) {
			continue
		}
		switch cfg.role {
		case roleChild:
			if err := in.childCheck(tx, cfg, newRec); err != nil {
				return err
			}
		case roleParent:
			if err := in.parentKeyRemoved(tx, cfg, oldRec); err != nil {
				return err
			}
		}
	}
	return nil
}

// OnDelete implements core.AttachmentInstance.
func (in *Instance) OnDelete(tx *txn.Txn, key types.Key, oldRec types.Record) error {
	for _, d := range in.All() {
		cfg := d.X
		if cfg.role != roleParent {
			continue
		}
		if err := in.parentKeyRemoved(tx, cfg, oldRec); err != nil {
			return err
		}
	}
	return nil
}

// ApplyLogged implements core.AttachmentInstance: the constraint has no
// associated storage; cascaded deletes are logged by the relations they
// modify and unwind with the transaction.
func (in *Instance) ApplyLogged(payload []byte, undo bool) error { return nil }

var _ core.AttachmentInstance = (*Instance)(nil)
