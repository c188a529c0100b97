// Package memsm implements the main-memory relation storage method.
//
// The paper motivates "main memory data storage methods for selected big
// traffic relations": records live entirely in memory (an in-memory
// B-tree keyed by insertion sequence), modifications are logged through
// the common recovery log (so the relation is transactional and survives
// restart via log replay), and scans cost no I/O — which the cost
// estimator reports to the query planner.
package memsm

import (
	"dmx/internal/core"
	"dmx/internal/sm/smutil"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// Name is the DDL name of the storage method.
const Name = "memory"

func init() {
	core.RegisterStorageMethod(&core.StorageOps{
		ID:               core.SMMemory,
		Name:             Name,
		SnapshotContents: true,
		ValidateAttrs: func(schema *types.Schema, attrs core.AttrList) error {
			return attrs.CheckAllowed(Name)
		},
		Create: func(env *core.Env, tx *txn.Txn, rd *core.RelDesc, attrs core.AttrList) ([]byte, error) {
			return nil, nil // no descriptor state: everything lives in memory
		},
		Open: func(env *core.Env, rd *core.RelDesc) (core.StorageInstance, error) {
			return smutil.NewTreeStore(env, rd, true, nil), nil
		},
	})
}
