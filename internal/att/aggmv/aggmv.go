// Package aggmv implements the precomputed-aggregate attachment: an
// attachment with associated storage maintaining "precomputed function
// values for data stored in relations" — grouped SUM and COUNT over a
// value column, kept exact under inserts, updates, deletes, vetoes, and
// rollback via logged deltas.
package aggmv

import (
	"encoding/binary"
	"fmt"
	"math"

	"dmx/internal/att/attutil"
	"dmx/internal/core"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// Name is the DDL name of the attachment type.
const Name = "aggregate"

func init() {
	core.RegisterAttachment(attutil.Ops(attutil.Type[*aggDef, *Instance]{
		ID:    core.AttAggMV,
		Name:  Name,
		Attrs: []string{"group", "value"},
		Parse: func(_ *core.Env, rd *core.RelDesc, attrs core.AttrList) (attutil.IndexDef, error) {
			groupField, valueField, err := parseAttrs(rd, attrs)
			if err != nil {
				return attutil.IndexDef{}, err
			}
			extra := binary.BigEndian.AppendUint16(nil, uint16(groupField+1)) // +1: 0 means global
			extra = binary.BigEndian.AppendUint16(extra, uint16(valueField))
			return attutil.IndexDef{Extra: extra}, nil
		},
		Decode: func(_ *core.Env, _ *core.RelDesc, d attutil.IndexDef) (*aggDef, error) {
			if len(d.Extra) < 4 {
				return nil, fmt.Errorf("aggmv: corrupt descriptor for %q", d.Name)
			}
			return &aggDef{
				groupField: int(binary.BigEndian.Uint16(d.Extra)) - 1,
				valueField: int(binary.BigEndian.Uint16(d.Extra[2:])),
				groups:     make(map[string]*agg),
			}, nil
		},
		Open: func(defs *attutil.Defs[*aggDef]) *Instance { return &Instance{defs} },
		BuildRow: func(a *Instance, tx *txn.Txn, d *def, _ types.Key, rec types.Record) error {
			return a.applyDelta(tx, d, d.X.groupKey(rec), rec[d.X.valueField].AsFloat(), 1)
		},
	}))
}

func parseAttrs(rd *core.RelDesc, attrs core.AttrList) (groupField, valueField int, err error) {
	groupField = -1
	if g, ok := attrs.Get("group"); ok && g != "" {
		groupField = rd.Schema.ColIndex(g)
		if groupField < 0 {
			return 0, 0, fmt.Errorf("aggmv: group column %q not in schema", g)
		}
	}
	v, ok := attrs.Get("value")
	if !ok {
		return 0, 0, fmt.Errorf("aggmv: a value=<column> attribute is required")
	}
	valueField = rd.Schema.ColIndex(v)
	if valueField < 0 {
		return 0, 0, fmt.Errorf("aggmv: value column %q not in schema", v)
	}
	k := rd.Schema.Cols[valueField].Kind
	if k != types.KindInt && k != types.KindFloat {
		return 0, 0, fmt.Errorf("aggmv: value column %q is not numeric", v)
	}
	return groupField, valueField, nil
}

// aggDef is one aggregate instance: its columns and its groups.
type aggDef struct {
	groupField int // -1 = global aggregate
	valueField int
	groups     map[string]*agg // group key -> aggregate
}

type def = attutil.Def[*aggDef]

type agg struct {
	sum   float64
	count int64
}

// Instance services every aggregate instance on one relation.
type Instance struct {
	*attutil.Defs[*aggDef]
}

func (d *aggDef) groupKey(rec types.Record) types.Key {
	if d.groupField < 0 {
		return types.Key{}
	}
	return types.EncodeKeyValues(rec[d.groupField])
}

// delta payload: EntryKey = group key, RecKey = 8-byte sum delta bits +
// 8-byte count delta.
func encodeDelta(sum float64, count int64) types.Key {
	out := make(types.Key, 16)
	binary.BigEndian.PutUint64(out, math.Float64bits(sum))
	binary.BigEndian.PutUint64(out[8:], uint64(count))
	return out
}

func decodeDelta(b types.Key) (float64, int64, error) {
	if len(b) != 16 {
		return 0, 0, fmt.Errorf("aggmv: bad delta payload length %d", len(b))
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b)),
		int64(binary.BigEndian.Uint64(b[8:])), nil
}

func (a *Instance) applyDelta(tx *txn.Txn, d *def, group types.Key, sum float64, count int64) error {
	if err := a.Log(tx, core.EntryPayload{
		Op: core.ModUpdate, Instance: int(d.Seq), EntryKey: group, RecKey: encodeDelta(sum, count),
	}); err != nil {
		return err
	}
	a.apply(d, group, sum, count)
	return nil
}

func (a *Instance) apply(d *def, group types.Key, sum float64, count int64) {
	a.Mu.Lock()
	defer a.Mu.Unlock()
	g := d.X.groups[string(group)]
	if g == nil {
		g = &agg{}
		d.X.groups[string(group)] = g
	}
	g.sum += sum
	g.count += count
	// A group exists while it has members. Float sums do not cancel
	// exactly, so the sum is no test for emptiness.
	if g.count == 0 {
		delete(d.X.groups, string(group))
	}
}

// OnInsert implements core.AttachmentInstance.
func (a *Instance) OnInsert(tx *txn.Txn, key types.Key, rec types.Record) error {
	for _, d := range a.All() {
		if err := a.applyDelta(tx, d, d.X.groupKey(rec), rec[d.X.valueField].AsFloat(), 1); err != nil {
			return err
		}
	}
	return nil
}

// OnUpdate implements core.AttachmentInstance.
func (a *Instance) OnUpdate(tx *txn.Txn, oldKey, newKey types.Key, oldRec, newRec types.Record) error {
	for _, d := range a.All() {
		oldGroup, newGroup := d.X.groupKey(oldRec), d.X.groupKey(newRec)
		oldVal, newVal := oldRec[d.X.valueField].AsFloat(), newRec[d.X.valueField].AsFloat()
		if oldGroup.Equal(newGroup) {
			if oldVal == newVal {
				continue
			}
			if err := a.applyDelta(tx, d, newGroup, newVal-oldVal, 0); err != nil {
				return err
			}
			continue
		}
		if err := a.applyDelta(tx, d, oldGroup, -oldVal, -1); err != nil {
			return err
		}
		if err := a.applyDelta(tx, d, newGroup, newVal, 1); err != nil {
			return err
		}
	}
	return nil
}

// OnDelete implements core.AttachmentInstance.
func (a *Instance) OnDelete(tx *txn.Txn, key types.Key, oldRec types.Record) error {
	for _, d := range a.All() {
		if err := a.applyDelta(tx, d, d.X.groupKey(oldRec), -oldRec[d.X.valueField].AsFloat(), -1); err != nil {
			return err
		}
	}
	return nil
}

// ApplyLogged implements core.AttachmentInstance.
func (a *Instance) ApplyLogged(payload []byte, undo bool) error {
	p, err := core.DecodeEntry(payload)
	if err != nil {
		return err
	}
	sum, count, err := decodeDelta(p.RecKey)
	if err != nil {
		return err
	}
	d, err := a.BySeq(uint32(p.Instance))
	if err != nil {
		return err
	}
	if undo {
		sum, count = -sum, -count
	}
	a.apply(d, p.EntryKey, sum, count)
	return nil
}

// Lookup returns the precomputed SUM and COUNT for the named instance and
// group value (pass types.Null() for a global aggregate).
func (a *Instance) Lookup(name string, group types.Value) (sum float64, count int64, err error) {
	d, err := a.Named(name)
	if err != nil {
		return 0, 0, err
	}
	key := types.Key{}
	if d.X.groupField >= 0 {
		key = types.EncodeKeyValues(group)
	}
	a.Mu.Lock()
	defer a.Mu.Unlock()
	if g := d.X.groups[string(key)]; g != nil {
		return g.sum, g.count, nil
	}
	return 0, 0, nil
}

var _ core.AttachmentInstance = (*Instance)(nil)
