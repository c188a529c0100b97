// System relations: virtual relations that materialize live engine state
// through the ordinary storage-method procedure vector. They are genuine
// catalog entries — scans, predicates, cost estimates, and the plan layer
// treat them like any stored relation — but their "storage" is the
// running engine itself, so they are process state: installed at every
// Env construction, never logged, checkpointed, recovered, or dropped.
package core

import (
	"fmt"
	"strings"

	"dmx/internal/types"
)

// SysRelBase is the start of the reserved relation-ID range for system
// relations. Keeping them in a disjoint high range means user RelID
// allocation is identical whether or not the system storage method is
// linked in, and log records can never name a system relation.
const SysRelBase uint32 = 0xF0000000

// IsSystemRelID reports whether relID is in the reserved system range.
func IsSystemRelID(relID uint32) bool { return relID >= SysRelBase }

// SystemRelation declares one virtual relation to install at Env
// construction. The storage method (typically SMSys) interprets Name to
// decide which engine state the instance materializes.
type SystemRelation struct {
	Name   string // catalogued name, e.g. "sys.stat_activity"
	SM     SMID
	Schema *types.Schema
}

var systemRelations []SystemRelation

// RegisterSystemRelation adds a virtual relation to the set installed by
// every NewEnv, in registration order (RelIDs are SysRelBase + position,
// so the order must be deterministic — register from init functions).
// Panics on duplicate names, like the procedure-vector registries.
func RegisterSystemRelation(sr SystemRelation) {
	for _, have := range systemRelations {
		if strings.EqualFold(have.Name, sr.Name) {
			panic(fmt.Sprintf("core: duplicate system relation %q", sr.Name))
		}
	}
	if sr.Schema == nil {
		panic(fmt.Sprintf("core: system relation %q has no schema", sr.Name))
	}
	systemRelations = append(systemRelations, sr)
}

// installSystemRelations places every registered system relation in the
// catalog (RegisterSystemRelation has rejected duplicate names). Called
// from NewEnv after the catalog exists.
func (env *Env) installSystemRelations() {
	for i, sr := range systemRelations {
		env.Cat.install(&RelDesc{RelID: SysRelBase + uint32(i), Name: sr.Name, Schema: sr.Schema, SM: sr.SM})
	}
}
