package hashidx_test

import (
	"testing"

	"dmx/internal/core"
	"dmx/internal/expr"
	_ "dmx/internal/sm/memsm"
	"dmx/internal/types"
)

func schema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "email", Kind: types.KindString},
	)
}

func setup(t *testing.T, env *core.Env) *core.Relation {
	t.Helper()
	tx := env.Begin()
	if _, err := env.CreateRelation(tx, "users", schema(), "memory", nil); err != nil {
		t.Fatal(err)
	}
	rd, err := env.CreateAttachment(tx, "users", "hash", core.AttrList{"name": "bymail", "on": "email"})
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	r, _ := env.OpenRelation(rd)
	return r
}

func rec(id int64, email string) types.Record {
	return types.Record{types.Int(id), types.Str(email)}
}

func TestProbeMaintainedOnModifications(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := setup(t, env)
	tx := env.Begin()
	k1, _ := r.Insert(tx, rec(1, "a@x"))
	r.Insert(tx, rec(2, "a@x")) // duplicates allowed
	r.Insert(tx, rec(3, "b@x"))

	probe := func(email string) int {
		keys, err := r.LookupAccess(tx, core.AttHash, 0, types.EncodeKeyValues(types.Str(email)))
		if err != nil {
			t.Fatal(err)
		}
		return len(keys)
	}
	if probe("a@x") != 2 || probe("b@x") != 1 || probe("ghost") != 0 {
		t.Fatal("probe counts wrong")
	}
	r.Update(tx, k1, rec(1, "c@x"))
	if probe("a@x") != 1 || probe("c@x") != 1 {
		t.Fatal("probe after update wrong")
	}
	r.Delete(tx, k1)
	if probe("c@x") != 0 {
		t.Fatal("probe after delete wrong")
	}
	tx.Commit()
}

func TestCostOnlyForEquality(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := setup(t, env)
	tx := env.Begin()
	for i := 0; i < 100; i++ {
		r.Insert(tx, rec(int64(i), "x"))
	}
	tx.Commit()
	instAny, _ := env.AttachmentInstance(r.Desc(), core.AttHash)
	ap := instAny.(core.AccessPath)
	eq := ap.EstimateCost(core.CostRequest{Conjuncts: []*expr.Expr{
		expr.Eq(expr.Field(1), expr.Const(types.Str("x"))),
	}})
	if !eq.Usable || eq.CPU != 1 || !eq.Point {
		t.Fatalf("equality estimate = %+v, want a usable point probe", eq)
	}
	rng := ap.EstimateCost(core.CostRequest{Conjuncts: []*expr.Expr{
		expr.Gt(expr.Field(1), expr.Const(types.Str("a"))),
	}})
	if rng.Usable {
		t.Fatal("range predicate should be unusable for hash")
	}
}
