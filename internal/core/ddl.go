package core

import (
	"bytes"
	"fmt"
	"strings"

	"dmx/internal/lock"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// CreateRelation executes the extended data definition operation: the
// storage method is selected by name, its ValidateAttrs generic operation
// checks the extension-specific attribute/value list, its Create operation
// initialises storage and produces the storage-method descriptor, and the
// composite relation descriptor is installed in the catalog under
// transaction control.
func (env *Env) CreateRelation(tx *txn.Txn, name string, schema *types.Schema, smName string, attrs AttrList) (*RelDesc, error) {
	if strings.HasPrefix(strings.ToLower(name), "sys.") {
		return nil, fmt.Errorf("core: the sys. namespace is reserved for system relations")
	}
	if len(name) > 0xFFFF {
		return nil, fmt.Errorf("core: relation name is %d bytes, at most %d allowed", len(name), 0xFFFF)
	}
	ops := env.Reg.StorageMethodByName(smName)
	if ops == nil {
		return nil, fmt.Errorf("core: unknown storage method %q (registered: %v)",
			smName, env.Reg.StorageMethodNames())
	}
	if ops.ValidateAttrs != nil {
		if err := ops.ValidateAttrs(schema, attrs); err != nil {
			return nil, err
		}
	}
	rd := &RelDesc{
		RelID:  env.Cat.AllocateRelID(),
		Name:   name,
		Schema: schema,
		SM:     ops.ID,
	}
	if err := tx.Lock(lock.RelResource(rd.RelID), lock.ModeX); err != nil {
		return nil, err
	}
	smDesc, err := ops.Create(env, tx, rd, attrs)
	if err != nil {
		return nil, err
	}
	rd.SMDesc = smDesc
	if err := env.Cat.CreateRelation(tx, rd); err != nil {
		return nil, err
	}
	// The creator administers the relation (uniform authorization).
	if user := tx.User(); user != "" {
		env.Authz.Grant(user, rd.RelID, PrivAdmin)
	}
	return rd, nil
}

// CreateAttachment executes the extended data definition operation adding
// an attachment instance to a relation: the attachment type is selected by
// name, validates the attribute/value list, merges the new instance into
// its descriptor field, and (optionally) builds the instance from the
// relation's existing records. The descriptor update is transactional.
func (env *Env) CreateAttachment(tx *txn.Txn, relName, attName string, attrs AttrList) (*RelDesc, error) {
	ops := env.Reg.AttachmentByName(attName)
	if ops == nil {
		return nil, fmt.Errorf("core: unknown attachment type %q (registered: %v)",
			attName, env.Reg.AttachmentNames())
	}
	rd, err := env.lockForDDL(tx, relName)
	if err != nil {
		return nil, err
	}
	if ops.ValidateAttrs != nil {
		if err := ops.ValidateAttrs(env, rd, attrs); err != nil {
			return nil, err
		}
	}
	newRD := rd.Clone()
	field, err := ops.Create(env, tx, newRD, rd.AttDesc[ops.ID], attrs)
	if err != nil {
		return nil, err
	}
	newRD.AttDesc[ops.ID] = field
	newRD.Version++
	if err := env.Cat.UpdateDesc(tx, rd, newRD); err != nil {
		return nil, err
	}
	// A no-op Create (e.g. re-creating a singleton instance) leaves the
	// descriptor field unchanged; building again would double-apply.
	if ops.Build != nil && !bytes.Equal(field, rd.AttDesc[ops.ID]) {
		if err := ops.Build(env, tx, newRD, true); err != nil {
			return nil, err
		}
	}
	return newRD, nil
}

// BuildScan drives an attachment Build operation over rd's current
// contents, calling fn once per stored record. No-op when the relation is
// empty.
func BuildScan(env *Env, tx *txn.Txn, rd *RelDesc, fn func(key types.Key, rec types.Record) error) error {
	sm, err := env.StorageInstance(rd)
	if err != nil {
		return err
	}
	if sm.RecordCount() == 0 {
		return nil
	}
	scan, err := sm.OpenScan(tx, ScanOptions{})
	if err != nil {
		return err
	}
	defer scan.Close()
	for {
		key, rec, ok, err := scan.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := fn(key, rec); err != nil {
			return err
		}
	}
}

// DropAttachment removes attachment instance(s) selected by attrs from the
// relation. The descriptor update is undoable; any in-memory state of the
// removed instances is released lazily (the architecture defers the actual
// release of dropped state until commit so the drop can be undone without
// logging the state).
func (env *Env) DropAttachment(tx *txn.Txn, relName, attName string, attrs AttrList) (*RelDesc, error) {
	ops := env.Reg.AttachmentByName(attName)
	if ops == nil {
		return nil, fmt.Errorf("core: unknown attachment type %q", attName)
	}
	rd, err := env.lockForDDL(tx, relName)
	if err != nil {
		return nil, err
	}
	if !rd.HasAttachment(ops.ID) {
		return nil, fmt.Errorf("%w: relation %q has no %s attachment", ErrNotFound, relName, attName)
	}
	newRD := rd.Clone()
	if ops.Drop != nil {
		field, err := ops.Drop(env, tx, newRD, rd.AttDesc[ops.ID], attrs)
		if err != nil {
			return nil, err
		}
		newRD.AttDesc[ops.ID] = field
	} else {
		newRD.AttDesc[ops.ID] = nil
	}
	newRD.Version++
	if err := env.Cat.UpdateDesc(tx, rd, newRD); err != nil {
		return nil, err
	}
	return newRD, nil
}

// DropRelation removes the relation; the descriptor removal is undoable
// and the storage release is deferred to commit.
func (env *Env) DropRelation(tx *txn.Txn, relName string) error {
	rd, err := env.lockForDDL(tx, relName)
	if err != nil {
		return err
	}
	return env.Cat.DropRelation(tx, rd)
}

// lockForDDL resolves relName, checks the caller administers it, and locks
// it exclusively. It returns the descriptor read under the lock: a
// concurrent DDL may have moved its version, or dropped it, meanwhile.
// System relations are process state, beyond DDL.
func (env *Env) lockForDDL(tx *txn.Txn, relName string) (*RelDesc, error) {
	rd, ok := env.Cat.ByName(relName)
	if !ok {
		return nil, fmt.Errorf("%w: relation %q", ErrNotFound, relName)
	}
	if IsSystemRelID(rd.RelID) {
		return nil, fmt.Errorf("core: relation %q is a system relation: no DDL applies to it", relName)
	}
	if err := env.Authz.Check(tx, rd, PrivAdmin); err != nil {
		return nil, err
	}
	if err := tx.Lock(lock.RelResource(rd.RelID), lock.ModeX); err != nil {
		return nil, err
	}
	if rd, ok = env.Cat.Get(rd.RelID); !ok {
		return nil, fmt.Errorf("%w: relation %q was dropped", ErrNotFound, relName)
	}
	return rd, nil
}
