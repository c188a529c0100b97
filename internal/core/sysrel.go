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

// LSMRunInfo describes one resident component of an LSM storage instance:
// the mutable memtable (Memtable true) or one immutable sorted run. The
// tags name its sys.stat_lsm columns.
type LSMRunInfo struct {
	Memtable  bool   `json:"memtable"`
	Pos       int    `json:"run"`  // position among runs, newest first (-1 for the memtable)
	Tier      int    `json:"tier"` // size tier (-1 for the memtable)
	Entries   int    `json:"entries"`
	Bytes     int    `json:"bytes"`
	BloomBits int    `json:"bloom_bits"` // filter size in bits (0 for the memtable)
	MinSeq    uint64 `json:"min_seq"`
	MaxSeq    uint64 `json:"max_seq"`
}

// LSMIntrospector is implemented by storage instances that expose their
// run structure; sys.stat_lsm materializes it.
type LSMIntrospector interface {
	RunInfos() []LSMRunInfo
}

// ShardInfo describes one shard of a partitioned storage instance; the tags
// name its sys.stat_shards columns. Messages is the owning server's total
// message counter (server-wide, not per-table: one server may host several
// shards or relations).
type ShardInfo struct {
	Shard    int    `json:"shard"`
	Server   string `json:"server"`
	Table    string `json:"table_name"`
	Records  int    `json:"records"`
	InDoubt  int    `json:"in_doubt"` // prepared transactions on the shard awaiting a decision
	Messages int64  `json:"messages"`
}

// ShardIntrospector is implemented by storage instances that spread a
// relation across shards; sys.stat_shards materializes it.
type ShardIntrospector interface {
	ShardInfos() []ShardInfo
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
// catalog. Called from NewEnv after the catalog exists.
func (env *Env) installSystemRelations() {
	for i, sr := range systemRelations {
		rd := &RelDesc{
			RelID:  SysRelBase + uint32(i),
			Name:   sr.Name,
			Schema: sr.Schema,
			SM:     sr.SM,
		}
		if err := env.Cat.InstallSystem(rd); err != nil {
			// Registration is validated at RegisterSystemRelation time;
			// failure here means a programming error in the registry.
			panic(err)
		}
	}
}
