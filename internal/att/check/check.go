// Package check implements the single-record integrity constraint
// attachment: a common-service-encoded predicate, stored in the
// attachment descriptor, that is tested whenever records of the relation
// are inserted or updated. A record failing any constraint instance
// vetoes the modification, which the common recovery log then undoes.
package check

import (
	"fmt"
	"sync"

	"dmx/internal/att/attutil"
	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// Name is the DDL name of the attachment type.
const Name = "check"

// ErrViolation is the veto reason for failed constraints.
var ErrViolation = fmt.Errorf("check: integrity constraint violated")

func init() {
	core.RegisterAttachment(attutil.Ops(attutil.Type[*expr.Expr, *Instance]{
		ID:    core.AttCheck,
		Name:  Name,
		Attrs: []string{"predicate"},
		Parse: func(env *core.Env, _ *core.RelDesc, attrs core.AttrList) (attutil.IndexDef, error) {
			pred, err := PredicateFromAttrs(env, attrs)
			if err != nil {
				return attutil.IndexDef{}, err
			}
			return attutil.IndexDef{Extra: pred.AppendEncode(nil)}, nil
		},
		Decode: func(_ *core.Env, _ *core.RelDesc, d attutil.IndexDef) (*expr.Expr, error) {
			pred, _, err := expr.Decode(d.Extra)
			if err != nil {
				return nil, fmt.Errorf("check: constraint %q: %w", d.Name, err)
			}
			return pred, nil
		},
		Open: func(defs *attutil.Defs[*expr.Expr]) *Instance { return &Instance{defs} },
		// Adding a constraint to a populated relation validates the
		// existing records; a violation vetoes the DDL.
		BuildRow: func(c *Instance, _ *txn.Txn, d *attutil.Def[*expr.Expr], _ types.Key, rec types.Record) error {
			return c.test(d, rec)
		},
	}))
}

// attrPredicates carries pre-parsed predicates from the DDL layer (which
// parses the textual predicate) to Create through the attribute list.
var attrPredicates sync.Map // key string -> *expr.Expr

// RegisterPredicate stashes a parsed predicate under a token that can be
// passed as the predicate= attribute value. The DDL front end uses this to
// hand structured predicates through the string-valued attribute list.
func RegisterPredicate(token string, e *expr.Expr) {
	attrPredicates.Store(token, e)
}

// PredicateFromAttrs resolves the predicate= attribute: either a token
// registered via RegisterPredicate or a hex-encoded predicate.
func PredicateFromAttrs(env *core.Env, attrs core.AttrList) (*expr.Expr, error) {
	tok, ok := attrs.Get("predicate")
	if !ok || tok == "" {
		return nil, fmt.Errorf("check: a predicate= attribute is required")
	}
	if v, ok := attrPredicates.Load(tok); ok {
		return v.(*expr.Expr), nil
	}
	return nil, fmt.Errorf("check: unknown predicate token %q (register it first)", tok)
}

// Instance services every check constraint on one relation; a
// constraint's working form is its decoded predicate.
type Instance struct {
	*attutil.Defs[*expr.Expr]
}

func (c *Instance) test(d *attutil.Def[*expr.Expr], rec types.Record) error {
	ok, err := c.Env().Eval.EvalBool(d.X, rec, nil)
	if err != nil {
		return fmt.Errorf("check: constraint %q: %w", d.Name, err)
	}
	if !ok {
		return fmt.Errorf("%w: %q fails for %v", ErrViolation, d.Name, rec)
	}
	return nil
}

func (c *Instance) testAll(rec types.Record) error {
	for _, d := range c.All() {
		if err := c.test(d, rec); err != nil {
			return err
		}
	}
	return nil
}

// OnInsert implements core.AttachmentInstance.
func (c *Instance) OnInsert(tx *txn.Txn, key types.Key, rec types.Record) error {
	return c.testAll(rec)
}

// OnUpdate implements core.AttachmentInstance.
func (c *Instance) OnUpdate(tx *txn.Txn, oldKey, newKey types.Key, oldRec, newRec types.Record) error {
	return c.testAll(newRec)
}

// OnDelete implements core.AttachmentInstance: deletes cannot violate a
// single-record constraint.
func (c *Instance) OnDelete(tx *txn.Txn, key types.Key, oldRec types.Record) error {
	return nil
}

// ApplyLogged implements core.AttachmentInstance: constraints have no
// associated storage.
func (c *Instance) ApplyLogged(payload []byte, undo bool) error { return nil }

var _ core.AttachmentInstance = (*Instance)(nil)
