// Package btreesm implements the B-tree-organised relation storage method:
// the records of the relation are stored in the leaves of a B-tree, as the
// paper suggests for alternative recoverable storage methods.
//
// The record key is composed from a subset of the record's fields, chosen
// by the DDL attribute list (key=col1,col2,...), using the
// order-preserving field encoding — so direct-by-key accesses and
// key-sequential range scans over the key columns are cheap, which the
// cost estimator reports to the query planner. All of that is the keyed
// mode of smutil.TreeStore; this package is the registration.
package btreesm

import (
	"dmx/internal/core"
	"dmx/internal/sm/smutil"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// Name is the DDL name of the storage method.
const Name = "btree"

// ErrDuplicateKey is returned when inserting a record whose key fields
// collide with a stored record.
var ErrDuplicateKey = smutil.ErrDuplicateKey

func init() {
	core.RegisterStorageMethod(&core.StorageOps{
		ID:       core.SMBTree,
		Name:     Name,
		Snapshot: smutil.SnapshotTreeStore,
		ValidateAttrs: func(schema *types.Schema, attrs core.AttrList) error {
			if err := attrs.CheckAllowed(Name, "key"); err != nil {
				return err
			}
			_, err := smutil.ParseKeyColumns(Name, schema, attrs)
			return err
		},
		Create: func(env *core.Env, tx *txn.Txn, rd *core.RelDesc, attrs core.AttrList) ([]byte, error) {
			fields, err := smutil.ParseKeyColumns(Name, rd.Schema, attrs)
			if err != nil {
				return nil, err
			}
			return smutil.AppendKeyColumns(nil, fields), nil
		},
		Open: func(env *core.Env, rd *core.RelDesc) (core.StorageInstance, error) {
			fields, _, err := smutil.DecodeKeyColumns(rd.SMDesc)
			if err != nil {
				return nil, err
			}
			return smutil.NewTreeStore(env, rd, true, fields), nil
		},
	})
}
