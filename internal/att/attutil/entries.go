package attutil

import (
	"encoding/binary"
	"fmt"
	"math"

	"dmx/internal/core"
	"dmx/internal/lock"
	"dmx/internal/sm/smutil"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// EntryType is what differs between the attachment types that keep
// (entry key → record key) state: how a record's entry key is formed and
// what structure the entries live in.
type EntryType[D any] struct {
	// KeyOf returns the key under which rec, stored at recKey, is filed in
	// d; ok is false for a record that has no entry there.
	KeyOf func(d *Def[D], rec types.Record, recKey types.Key) (entryKey types.Key, ok bool, err error)
	// Add and Remove file and unfile one entry in d's state. They run with
	// the def list's latch held, from the attached procedures and from
	// log-driven undo and redo alike.
	Add    func(d *Def[D], entryKey, recKey types.Key) error
	Remove func(d *Def[D], entryKey, recKey types.Key) error
	// KeyOnly marks state that is a set of entry keys: no record key is
	// filed or logged.
	KeyOnly bool
	// Taken and Violation make a def with Unique set a constraint: Taken
	// reports (latch held) whether some entry of d already carries the
	// encoded field values, Violation is the veto reason when one does.
	Taken     func(d *Def[D], value types.Key) bool
	Violation error
}

// Entries is the logged entry maintainer. Embedded in an instance it
// supplies the attached procedures and ApplyLogged: it alone decides which
// instances an update touches, orders delete-old before insert-new, writes
// the log record ahead of the state change, inverts a record for undo, and
// holds unique defs unique.
type Entries[D any] struct {
	*Defs[D]
	t *EntryType[D]
}

// NewEntries returns the maintainer of t's entries over defs.
func NewEntries[D any](defs *Defs[D], t *EntryType[D]) Entries[D] {
	return Entries[D]{Defs: defs, t: t}
}

// OnInsert implements core.AttachmentInstance.
func (m Entries[D]) OnInsert(tx *txn.Txn, key types.Key, rec types.Record) error {
	for _, d := range m.All() {
		if err := m.change(tx, d, core.ModInsert, key, rec, true); err != nil {
			return err
		}
	}
	return nil
}

// OnUpdate implements core.AttachmentInstance. An instance none of whose
// fields changed is skipped, unless the record moved to another key.
func (m Entries[D]) OnUpdate(tx *txn.Txn, oldKey, newKey types.Key, oldRec, newRec types.Record) error {
	keyMoved := !oldKey.Equal(newKey)
	for _, d := range m.All() {
		if !keyMoved && !FieldsChanged(d.Fields, oldRec, newRec) {
			continue
		}
		if err := m.change(tx, d, core.ModDelete, oldKey, oldRec, true); err != nil {
			return err
		}
		if err := m.change(tx, d, core.ModInsert, newKey, newRec, true); err != nil {
			return err
		}
	}
	return nil
}

// OnDelete implements core.AttachmentInstance.
func (m Entries[D]) OnDelete(tx *txn.Txn, key types.Key, oldRec types.Record) error {
	for _, d := range m.All() {
		if err := m.change(tx, d, core.ModDelete, key, oldRec, true); err != nil {
			return err
		}
	}
	return nil
}

// BuildRow files an existing record in d (Type.BuildRow of the entry
// types). It takes no value locks: a build runs under the relation's X
// lock or during restart, so no other writer's uncommitted entries exist.
func (m Entries[D]) BuildRow(tx *txn.Txn, d *Def[D], key types.Key, rec types.Record) error {
	return m.change(tx, d, core.ModInsert, key, rec, false)
}

func (m Entries[D]) change(tx *txn.Txn, d *Def[D], op core.ModOp, recKey types.Key, rec types.Record, lockValue bool) error {
	entryKey, ok, err := m.t.KeyOf(d, rec, recKey)
	if err != nil || !ok {
		return err
	}
	if d.Unique {
		if err := m.claim(tx, d, op, rec, lockValue); err != nil {
			return err
		}
	}
	if m.t.KeyOnly {
		recKey = nil
	}
	if err := m.Log(tx, core.EntryPayload{Op: op, Instance: int(d.Seq), EntryKey: entryKey, RecKey: recKey}); err != nil {
		return err
	}
	return m.apply(d, op, entryKey, recKey)
}

// claim is the uniqueness rule. The transaction first takes an X lock, held
// to its end, on the field values within this instance, so testing for the
// value and installing it cannot interleave with another writer and an
// uncommitted insert or delete of a value makes the next writer of that
// value wait for the outcome. Values containing NULL are not constrained.
func (m Entries[D]) claim(tx *txn.Txn, d *Def[D], op core.ModOp, rec types.Record, lockValue bool) error {
	for _, f := range d.Fields {
		if rec[f].IsNull() {
			return nil
		}
	}
	value := types.EncodeKeyFields(rec, d.Fields)
	if lockValue {
		var seq [4]byte
		binary.BigEndian.PutUint32(seq[:], d.Seq)
		if err := tx.Lock(lock.ExtResource(m.RelID(), uint8(m.id), seq[:], value), lock.ModeX); err != nil {
			return err
		}
	}
	if op != core.ModInsert {
		return nil
	}
	m.Mu.Lock()
	taken := m.t.Taken(d, value)
	m.Mu.Unlock()
	if taken {
		return fmt.Errorf("%w: %q value %v", m.t.Violation, d.Name, rec.Project(d.Fields))
	}
	return nil
}

func (m Entries[D]) apply(d *Def[D], op core.ModOp, entryKey, recKey types.Key) error {
	m.Mu.Lock()
	defer m.Mu.Unlock()
	if op == core.ModInsert {
		return m.t.Add(d, entryKey, recKey)
	}
	return m.t.Remove(d, entryKey, recKey)
}

// ApplyLogged implements core.AttachmentInstance: redo repeats the logged
// change, undo applies its inverse. It takes no locks.
func (m Entries[D]) ApplyLogged(payload []byte, undo bool) error {
	p, err := core.DecodeEntry(payload)
	if err != nil {
		return err
	}
	d, err := m.BySeq(uint32(p.Instance))
	if err != nil {
		return err
	}
	op := p.Op
	if undo {
		if op == core.ModInsert {
			op = core.ModDelete
		} else {
			op = core.ModInsert
		}
	}
	return m.apply(d, op, p.EntryKey, p.RecKey)
}

// Buckets is the direct-by-key access path of the types whose instances
// are each one Multimap: the hash index and the join index. Embedded in an
// instance it supplies the entry maintenance and core.AccessPath, so such
// a type says only how a record's entry key is formed (BucketType).
type Buckets struct {
	Entries[Multimap]
}

// BucketType returns the entry type that files each record under keyOf's
// entry key in its instance's Multimap.
func BucketType(keyOf func(d *Def[Multimap], rec types.Record, recKey types.Key) (types.Key, bool, error)) *EntryType[Multimap] {
	return &EntryType[Multimap]{
		KeyOf: keyOf,
		Add: func(d *Def[Multimap], entryKey, recKey types.Key) error {
			d.X.Add(entryKey, recKey)
			return nil
		},
		Remove: func(d *Def[Multimap], entryKey, recKey types.Key) error {
			d.X.Remove(entryKey, recKey)
			return nil
		},
	}
}

// NewMultimap is the Decode of the bucket types: an instance starts empty.
func NewMultimap(*core.Env, *core.RelDesc, IndexDef) (Multimap, error) {
	return Multimap{}, nil
}

// LookupByKey implements core.AccessPath: constant-time bucket probe.
func (b Buckets) LookupByKey(tx *txn.Txn, instance int, key types.Key) ([]types.Key, error) {
	d, err := b.At(instance)
	if err != nil {
		return nil, err
	}
	b.Mu.Lock()
	defer b.Mu.Unlock()
	return d.X.Get(key), nil
}

// OpenScan implements core.AccessPath: bucket tables keep no useful order.
func (b Buckets) OpenScan(tx *txn.Txn, instance int, opts core.ScanOptions) (core.Scan, error) {
	return nil, fmt.Errorf("attutil: a bucket table supports direct-by-key access only")
}

// EstimateCost implements core.AccessPath: usable only when every field of
// an instance is bound by an equality conjunct.
func (b Buckets) EstimateCost(req core.CostRequest) core.CostEstimate {
	best := core.CostEstimate{Usable: false, IO: math.Inf(1), CPU: math.Inf(1)}
	for i, d := range b.All() {
		key, _, handled, point, _ := smutil.KeyRange(d.Fields, req.Conjuncts, req.Scratch)
		if !point {
			continue
		}
		b.Mu.Lock()
		n := float64(len(d.X))
		b.Mu.Unlock()
		est := core.CostEstimate{
			Usable: true, Instance: i, Handled: handled,
			CPU: 1, IO: 0.1, Selectivity: 1 / math.Max(n, 1),
			// Direct-by-key only: the probe key travels in Start.
			Start: key, End: key, Point: true,
		}
		if est.Total() < best.Total() || !best.Usable {
			best = est
		}
	}
	return best
}

// Multimap files record keys under entry keys, duplicates allowed: the
// bucket table of a hash index or a join index. The owner synchronises
// access.
type Multimap map[string][]types.Key

// Add files recKey under entryKey.
func (m Multimap) Add(entryKey, recKey types.Key) {
	m[string(entryKey)] = append(m[string(entryKey)], recKey.Clone())
}

// Remove unfiles one occurrence of recKey under entryKey.
func (m Multimap) Remove(entryKey, recKey types.Key) {
	bucket := m[string(entryKey)]
	for i, k := range bucket {
		if k.Equal(recKey) {
			bucket = append(bucket[:i], bucket[i+1:]...)
			break
		}
	}
	if len(bucket) == 0 {
		delete(m, string(entryKey))
	} else {
		m[string(entryKey)] = bucket
	}
}

// Get returns copies of the record keys filed under entryKey.
func (m Multimap) Get(entryKey types.Key) []types.Key {
	bucket := m[string(entryKey)]
	out := make([]types.Key, len(bucket))
	for i, k := range bucket {
		out[i] = k.Clone()
	}
	return out
}
