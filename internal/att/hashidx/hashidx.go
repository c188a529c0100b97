// Package hashidx implements the hash-table access path attachment: a
// constant-time direct-by-key mapping from index key to record keys.
//
// Hash indexes answer only equality predicates; the cost estimator
// reports itself unusable otherwise. They maintain no useful ordering, so
// key-sequential access is not offered (the generic interface allows an
// access path to support direct-by-key access only). attutil.Buckets is
// the access path; this package says how a record's index key is formed.
package hashidx

import (
	"dmx/internal/att/attutil"
	"dmx/internal/core"
	"dmx/internal/types"
)

// Name is the DDL name of the attachment type.
const Name = "hash"

// Each instance's state is its bucket table: index key -> record keys.
var entries = attutil.BucketType(func(d *attutil.Def[attutil.Multimap], rec types.Record, _ types.Key) (types.Key, bool, error) {
	return types.EncodeKeyFields(rec, d.Fields), true, nil
})

func init() {
	core.RegisterAttachment(attutil.Ops(attutil.Type[attutil.Multimap, *Instance]{
		ID:     core.AttHash,
		Name:   Name,
		Attrs:  []string{"on"},
		Parse:  attutil.ParseOn,
		Decode: attutil.NewMultimap,
		Open: func(defs *attutil.Defs[attutil.Multimap]) *Instance {
			return &Instance{attutil.Buckets{Entries: attutil.NewEntries(defs, entries)}}
		},
		BuildRow: (*Instance).BuildRow,
	}))
}

// Instance services every hash index instance on one relation.
type Instance struct {
	attutil.Buckets
}

var (
	_ core.AttachmentInstance = (*Instance)(nil)
	_ core.AccessPath         = (*Instance)(nil)
)
