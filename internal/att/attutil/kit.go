package attutil

import (
	"fmt"
	"sync"

	"dmx/internal/core"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// Def is one instance of an attachment type as the type works with it: the
// stored definition plus X, what the type decoded from it or keeps for it
// (an index tree, a bucket table, a parsed predicate).
type Def[D any] struct {
	IndexDef
	X D
}

// Defs is the def list of one attachment type on one relation. Attachment
// instances embed it: it follows the relation descriptor (Reconfigure),
// numbers the current instances densely for the planner (At,
// InstanceCount) and keeps every Def it has ever decoded by Seq, so the
// state of a dropped instance is still there when the drop is undone.
type Defs[D any] struct {
	env    *core.Env
	id     core.AttID
	opened *core.RelDesc // the descriptor at Open: the relation's identity
	decode func(env *core.Env, rd *core.RelDesc, d IndexDef) (D, error)

	// Mu guards the list and is the latch for whatever state the type keeps
	// in its Defs' X.
	Mu    sync.Mutex
	rd    *core.RelDesc
	list  []*Def[D] // descriptor order; replaced whole, never edited
	bySeq map[uint32]*Def[D]
}

// Env returns the environment the list was opened in.
func (l *Defs[D]) Env() *core.Env { return l.env }

// Desc returns the relation descriptor the list currently reflects.
func (l *Defs[D]) Desc() *core.RelDesc {
	l.Mu.Lock()
	defer l.Mu.Unlock()
	return l.rd
}

// RelID returns the relation's identifier.
func (l *Defs[D]) RelID() uint32 { return l.opened.RelID }

// Log writes an attachment-owned log record for the relation.
func (l *Defs[D]) Log(tx *txn.Txn, p core.EntryPayload) error {
	return core.LogAttachment(tx, l.opened, l.id, p)
}

// Reconfigure implements core.AttachmentInstance. A definition is decoded
// once and then kept by Seq, state and all: a dropped Seq is never
// assigned again. Only a create that was rolled back gives its Seq up, and
// the next create may put another definition there; its state starts
// empty, as undo left the old one.
func (l *Defs[D]) Reconfigure(rd *core.RelDesc) error {
	var stored []IndexDef
	if field := rd.AttDesc[l.id]; field != nil {
		var err error
		if _, stored, err = DecodeDefs(field); err != nil {
			return err
		}
	}
	l.Mu.Lock()
	defer l.Mu.Unlock()
	list := make([]*Def[D], 0, len(stored))
	for _, s := range stored {
		d := l.bySeq[s.Seq]
		if d == nil || !d.IndexDef.equal(s) {
			x, err := l.decode(l.env, rd, s)
			if err != nil {
				return err
			}
			d = &Def[D]{IndexDef: s, X: x}
			l.bySeq[s.Seq] = d
		}
		list = append(list, d)
	}
	l.rd, l.list = rd, list
	return nil
}

// All returns the current instances; the slice is not modified after
// it is returned.
func (l *Defs[D]) All() []*Def[D] {
	l.Mu.Lock()
	defer l.Mu.Unlock()
	return l.list
}

// InstanceCount implements core.AccessPath.
func (l *Defs[D]) InstanceCount() int { return len(l.All()) }

// At returns the instance with dense number i.
func (l *Defs[D]) At(i int) (*Def[D], error) {
	list := l.All()
	if i < 0 || i >= len(list) {
		return nil, fmt.Errorf("attutil: %w: instance %d of %d", core.ErrNotFound, i, len(list))
	}
	return list[i], nil
}

// Named returns the current instance called name.
func (l *Defs[D]) Named(name string) (*Def[D], error) {
	for _, d := range l.All() {
		if d.Name == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("attutil: %w: instance %q", core.ErrNotFound, name)
}

// BySeq returns the instance a log record names, current or dropped.
func (l *Defs[D]) BySeq(seq uint32) (*Def[D], error) {
	l.Mu.Lock()
	defer l.Mu.Unlock()
	if d := l.bySeq[seq]; d != nil {
		return d, nil
	}
	return nil, fmt.Errorf("attutil: log record for unknown instance %d", seq)
}

// Instance is what the kit needs of an attachment instance: the attached
// procedures and the embedded def list.
type Instance[D any] interface {
	core.AttachmentInstance
	All() []*Def[D]
}

// Type is what an attachment type supplies; Ops derives its procedure
// vector entries from it.
type Type[D any, I Instance[D]] struct {
	ID   core.AttID
	Name string
	// Attrs lists the DDL attributes accepted besides "name".
	Attrs []string
	// Parse checks an attribute list against the relation and returns the
	// definition to store. Seq is assigned on creation, and so is Name
	// when Parse leaves it empty.
	Parse func(env *core.Env, rd *core.RelDesc, attrs core.AttrList) (IndexDef, error)
	// Decode returns the type's working form of a stored definition (see
	// Defs.Reconfigure for when it runs). Nil leaves X zero.
	Decode func(env *core.Env, rd *core.RelDesc, d IndexDef) (D, error)
	// Single marks a type with at most one instance per relation:
	// creating it again changes nothing.
	Single bool
	// Open wraps the relation's def list in the type's instance.
	Open func(defs *Defs[D]) I
	// BuildRow applies one existing record to instance d: what populates a
	// new instance over a loaded relation, and every instance at restart.
	// Nil for types with nothing to build.
	BuildRow func(inst I, tx *txn.Txn, d *Def[D], key types.Key, rec types.Record) error
}

// Ops returns the generic operations of t.
func Ops[D any, I Instance[D]](t Type[D, I]) *core.AttachmentOps {
	allowed := append([]string{"name"}, t.Attrs...)
	decode := t.Decode
	if decode == nil {
		decode = func(*core.Env, *core.RelDesc, IndexDef) (x D, err error) { return x, nil }
	}
	ops := &core.AttachmentOps{
		ID:   t.ID,
		Name: t.Name,
		ValidateAttrs: func(env *core.Env, rd *core.RelDesc, attrs core.AttrList) error {
			if err := attrs.CheckAllowed(t.Name, allowed...); err != nil {
				return err
			}
			_, err := t.Parse(env, rd, attrs)
			return err
		},
		Create: func(env *core.Env, tx *txn.Txn, rd *core.RelDesc, prior []byte, attrs core.AttrList) ([]byte, error) {
			d, err := t.Parse(env, rd, attrs)
			if err != nil {
				return nil, err
			}
			if t.Single && prior != nil {
				if _, defs, err := DecodeDefs(prior); err != nil || len(defs) > 0 {
					return prior, err
				}
			}
			if d.Name == "" {
				d.Name = InstanceName(attrs, prior)
			}
			return AddDef(prior, d)
		},
		Drop: func(env *core.Env, tx *txn.Txn, rd *core.RelDesc, prior []byte, attrs core.AttrList) ([]byte, error) {
			if name, ok := attrs.Get("name"); ok {
				return RemoveDef(prior, name)
			}
			// Every instance goes; the Seq counter stays (see RemoveDef).
			nextSeq, _, err := DecodeDefs(prior)
			return EncodeDefs(nextSeq, nil), err
		},
		Open: func(env *core.Env, rd *core.RelDesc) (core.AttachmentInstance, error) {
			defs := &Defs[D]{env: env, id: t.ID, opened: rd, decode: decode, bySeq: make(map[uint32]*Def[D])}
			if err := defs.Reconfigure(rd); err != nil {
				return nil, err
			}
			return t.Open(defs), nil
		},
	}
	if t.BuildRow != nil {
		ops.Build = func(env *core.Env, tx *txn.Txn, rd *core.RelDesc, newOnly bool) error {
			instAny, err := env.AttachmentInstance(rd, t.ID)
			if err != nil {
				return err
			}
			inst := instAny.(I)
			defs := inst.All()
			if len(defs) == 0 {
				return nil
			}
			if newOnly {
				defs = defs[len(defs)-1:] // Create appends, so the new def is last
			}
			return core.BuildScan(env, tx, rd, func(key types.Key, rec types.Record) error {
				for _, d := range defs {
					if err := t.BuildRow(inst, tx, d, key, rec); err != nil {
						return err
					}
				}
				return nil
			})
		}
	}
	return ops
}

// ParseOn is the Parse of an attachment defined by its on=col,... list.
func ParseOn(_ *core.Env, rd *core.RelDesc, attrs core.AttrList) (IndexDef, error) {
	fields, err := ParseColumns(rd.Schema, attrs)
	return IndexDef{Fields: fields}, err
}
