// Package tempsm implements the temporary-relation storage method.
//
// The base database system supports temporary relations through the same
// generic storage interface as permanent ones; per the paper, the
// temporary storage method is assigned internal identifier 1. Temporary
// relations are memory-resident and unlogged: their contents do not
// survive restart and are not rolled back on abort (the usual contract for
// scratch relations produced by query processing).
package tempsm

import (
	"dmx/internal/core"
	"dmx/internal/sm/smutil"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// Name is the DDL name of the storage method.
const Name = "temp"

func init() {
	core.RegisterStorageMethod(&core.StorageOps{
		ID:   core.SMTemp,
		Name: Name,
		ValidateAttrs: func(schema *types.Schema, attrs core.AttrList) error {
			return attrs.CheckAllowed(Name)
		},
		Create: func(env *core.Env, tx *txn.Txn, rd *core.RelDesc, attrs core.AttrList) ([]byte, error) {
			return nil, nil
		},
		Open: func(env *core.Env, rd *core.RelDesc) (core.StorageInstance, error) {
			return smutil.NewTreeStore(env, rd, false, nil), nil
		},
	})
}
