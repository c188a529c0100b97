// Package trigger implements the trigger attachment: attached procedures
// that fire as side effects of relation modifications and may take
// arbitrary actions inside the database (cascading modifications through
// the same generic interfaces) or outside it, and may veto the
// modification by returning an error.
//
// Trigger bodies are Go functions registered per environment under a
// name; the attachment descriptor stores the name and the event mask.
// (The 1987 system would link trigger procedures in "at the factory";
// registration at startup is the Go equivalent.)
package trigger

import (
	"fmt"
	"strings"
	"sync"

	"dmx/internal/att/attutil"
	"dmx/internal/core"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// Name is the DDL name of the attachment type.
const Name = "trigger"

// Event says which modification fired the trigger.
type Event uint8

// Trigger events.
const (
	OnInsert Event = 1 << iota
	OnUpdate
	OnDelete
)

// Func is a trigger body. key/oldRec/newRec follow the attached-procedure
// convention (old on update+delete, new on update+insert). Returning an
// error vetoes the triggering modification.
type Func func(env *core.Env, tx *txn.Txn, ev Event, rel *core.RelDesc, key types.Key, oldRec, newRec types.Record) error

const registryKey = "trigger.registry"

type registry struct {
	mu    sync.Mutex
	funcs map[string]Func
}

func funcs(env *core.Env) *registry {
	if v, ok := env.ExtState(registryKey); ok {
		return v.(*registry)
	}
	r := &registry{funcs: make(map[string]Func)}
	env.SetExtState(registryKey, r)
	return r
}

// Register installs a trigger body under name in env.
func Register(env *core.Env, name string, fn Func) {
	r := funcs(env)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[strings.ToLower(name)] = fn
}

func lookup(env *core.Env, name string) (Func, error) {
	r := funcs(env)
	r.mu.Lock()
	defer r.mu.Unlock()
	fn, ok := r.funcs[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("trigger: no registered function %q", name)
	}
	return fn, nil
}

func parseEvents(attrs core.AttrList) (Event, error) {
	spec, ok := attrs.Get("events")
	if !ok || spec == "" {
		return OnInsert | OnUpdate | OnDelete, nil
	}
	var mask Event
	for _, e := range strings.Split(spec, ",") {
		switch strings.ToLower(strings.TrimSpace(e)) {
		case "insert":
			mask |= OnInsert
		case "update":
			mask |= OnUpdate
		case "delete":
			mask |= OnDelete
		default:
			return 0, fmt.Errorf("trigger: unknown event %q", e)
		}
	}
	return mask, nil
}

// call is one trigger instance: which events fire which function.
type call struct {
	mask Event
	fn   string
}

func init() {
	core.RegisterAttachment(attutil.Ops(attutil.Type[call, *Instance]{
		ID:    core.AttTrigger,
		Name:  Name,
		Attrs: []string{"call", "events"},
		Parse: func(env *core.Env, _ *core.RelDesc, attrs core.AttrList) (attutil.IndexDef, error) {
			fn, ok := attrs.Get("call")
			if !ok {
				return attutil.IndexDef{}, fmt.Errorf("trigger: a call=<function> attribute is required")
			}
			if _, err := lookup(env, fn); err != nil {
				return attutil.IndexDef{}, err
			}
			mask, err := parseEvents(attrs)
			return attutil.IndexDef{Extra: append([]byte{byte(mask)}, fn...)}, err
		},
		Decode: func(_ *core.Env, _ *core.RelDesc, d attutil.IndexDef) (call, error) {
			if len(d.Extra) < 1 {
				return call{}, fmt.Errorf("trigger: corrupt descriptor for %q", d.Name)
			}
			return call{mask: Event(d.Extra[0]), fn: string(d.Extra[1:])}, nil
		},
		Open: func(defs *attutil.Defs[call]) *Instance { return &Instance{defs} },
	}))
}

// Instance services every trigger instance on one relation.
type Instance struct {
	*attutil.Defs[call]
}

func (in *Instance) fire(tx *txn.Txn, ev Event, key types.Key, oldRec, newRec types.Record) error {
	for _, d := range in.All() {
		if d.X.mask&ev == 0 {
			continue
		}
		fn, err := lookup(in.Env(), d.X.fn)
		if err != nil {
			return err
		}
		if err := fn(in.Env(), tx, ev, in.Desc(), key, oldRec, newRec); err != nil {
			return fmt.Errorf("trigger %q: %w", d.Name, err)
		}
	}
	return nil
}

// OnInsert implements core.AttachmentInstance.
func (in *Instance) OnInsert(tx *txn.Txn, key types.Key, rec types.Record) error {
	return in.fire(tx, OnInsert, key, nil, rec)
}

// OnUpdate implements core.AttachmentInstance.
func (in *Instance) OnUpdate(tx *txn.Txn, oldKey, newKey types.Key, oldRec, newRec types.Record) error {
	return in.fire(tx, OnUpdate, newKey, oldRec, newRec)
}

// OnDelete implements core.AttachmentInstance.
func (in *Instance) OnDelete(tx *txn.Txn, key types.Key, oldRec types.Record) error {
	return in.fire(tx, OnDelete, key, oldRec, nil)
}

// ApplyLogged implements core.AttachmentInstance: triggers have no
// associated storage (their database actions are logged by the relations
// they modify, so cascaded effects unwind with the transaction).
func (in *Instance) ApplyLogged(payload []byte, undo bool) error { return nil }

var _ core.AttachmentInstance = (*Instance)(nil)
