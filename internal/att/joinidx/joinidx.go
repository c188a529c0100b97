// Package joinidx implements the join-index attachment (Valduriez 1985) —
// the paper's example that "access paths need not be limited to a single
// table". A join index over relations A and B on an equi-join column is
// one instance on each relation, of the same name and naming the other as
// its peer; each maps a join value to the record keys of its own relation
// that carry it.
//
// Each side is a direct-by-key access path (attutil.Buckets), so a join
// through the index is the planner's one nested loop: each outer record's
// join value probes the inner relation's side (plan.JoinSpec.ForcePath, or
// SQL USING JOININDEX, pins that inner path). It differs from a hash index
// only in that a record with a NULL join value has no entry.
package joinidx

import (
	"fmt"

	"dmx/internal/att/attutil"
	"dmx/internal/core"
	"dmx/internal/types"
)

// Name is the DDL name of the attachment type.
const Name = "joinindex"

// NULL never equi-joins, so a record with a NULL join value has no entry.
var entries = attutil.BucketType(func(d *attutil.Def[attutil.Multimap], rec types.Record, _ types.Key) (types.Key, bool, error) {
	for _, f := range d.Fields {
		if rec[f].IsNull() {
			return nil, false, nil
		}
	}
	return types.EncodeKeyFields(rec, d.Fields), true, nil
})

func init() {
	core.RegisterAttachment(attutil.Ops(attutil.Type[attutil.Multimap, *Instance]{
		ID:    core.AttJoin,
		Name:  Name,
		Attrs: []string{"on", "peer"},
		Parse: func(env *core.Env, rd *core.RelDesc, attrs core.AttrList) (attutil.IndexDef, error) {
			name, ok := attrs.Get("name")
			if !ok {
				return attutil.IndexDef{}, fmt.Errorf("joinidx: a name=<join index> attribute is required (shared by both sides)")
			}
			peer, ok := attrs.Get("peer")
			if !ok {
				return attutil.IndexDef{}, fmt.Errorf("joinidx: a peer=<relation> attribute is required")
			}
			d, err := attutil.ParseOn(env, rd, attrs)
			d.Name, d.Extra = name, []byte(peer)
			return d, err
		},
		Decode: attutil.NewMultimap,
		Open: func(defs *attutil.Defs[attutil.Multimap]) *Instance {
			return &Instance{attutil.Buckets{Entries: attutil.NewEntries(defs, entries)}}
		},
		BuildRow: (*Instance).BuildRow,
	}))
}

// Instance services every join-index side on one relation.
type Instance struct {
	attutil.Buckets
}

var (
	_ core.AttachmentInstance = (*Instance)(nil)
	_ core.AccessPath         = (*Instance)(nil)
)
