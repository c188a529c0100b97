// Package unique implements the uniqueness-constraint attachment: an
// integrity constraint with associated storage (a hash set of key values)
// that vetoes modifications introducing duplicate values in the
// constrained columns.
package unique

import (
	"fmt"

	"dmx/internal/att/attutil"
	"dmx/internal/core"
	"dmx/internal/types"
)

// Name is the DDL name of the attachment type.
const Name = "unique"

// ErrViolation is the veto reason for duplicate values.
var ErrViolation = fmt.Errorf("unique: uniqueness constraint violated")

// set is one constraint's state: key value -> count. Values are counted so
// a same-transaction delete+insert of one value replays correctly in
// either undo direction.
type set = map[string]int

type def = attutil.Def[set]

var entries = attutil.EntryType[set]{
	// NULL values do not participate in uniqueness (SQL convention).
	KeyOf: func(d *def, rec types.Record, _ types.Key) (types.Key, bool, error) {
		for _, f := range d.Fields {
			if rec[f].IsNull() {
				return nil, false, nil
			}
		}
		return types.EncodeKeyFields(rec, d.Fields), true, nil
	},
	KeyOnly: true,
	Add: func(d *def, value, _ types.Key) error {
		d.X[string(value)]++
		return nil
	},
	Remove: func(d *def, value, _ types.Key) error {
		if d.X[string(value)] <= 1 {
			delete(d.X, string(value))
		} else {
			d.X[string(value)]--
		}
		return nil
	},
	Taken:     func(d *def, value types.Key) bool { return d.X[string(value)] > 0 },
	Violation: ErrViolation,
}

func init() {
	core.RegisterAttachment(attutil.Ops(attutil.Type[set, *Instance]{
		ID:    core.AttUnique,
		Name:  Name,
		Attrs: []string{"on"},
		Parse: func(env *core.Env, rd *core.RelDesc, attrs core.AttrList) (attutil.IndexDef, error) {
			d, err := attutil.ParseOn(env, rd, attrs)
			d.Unique = true
			return d, err
		},
		Decode: func(*core.Env, *core.RelDesc, attutil.IndexDef) (set, error) { return set{}, nil },
		Open: func(defs *attutil.Defs[set]) *Instance {
			return &Instance{attutil.NewEntries(defs, &entries)}
		},
		// Building over contents that already violate the new constraint
		// vetoes the DDL.
		BuildRow: (*Instance).BuildRow,
	}))
}

// Instance services every uniqueness constraint on one relation.
type Instance struct {
	attutil.Entries[set]
}

var _ core.AttachmentInstance = (*Instance)(nil)
