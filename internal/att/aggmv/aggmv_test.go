package aggmv_test

import (
	"testing"

	"dmx/internal/att/aggmv"
	"dmx/internal/core"
	_ "dmx/internal/sm/memsm"
	"dmx/internal/types"
)

func schema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "dept", Kind: types.KindString, NotNull: true},
		types.Column{Name: "salary", Kind: types.KindFloat},
	)
}

func rec(dept string, salary float64) types.Record {
	return types.Record{types.Str(dept), types.Float(salary)}
}

func setup(t *testing.T, env *core.Env) *core.Relation {
	t.Helper()
	tx := env.Begin()
	env.CreateRelation(tx, "emp", schema(), "memory", nil)
	if _, err := env.CreateAttachment(tx, "emp", "aggregate",
		core.AttrList{"name": "paybydept", "group": "dept", "value": "salary"}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	r, _ := env.OpenRelationByName("emp")
	return r
}

func lookup(t *testing.T, r *core.Relation, name string, group types.Value) (float64, int64) {
	t.Helper()
	instAny, err := r.Env().AttachmentInstance(r.Desc(), core.AttAggMV)
	if err != nil {
		t.Fatal(err)
	}
	sum, count, err := instAny.(*aggmv.Instance).Lookup(name, group)
	if err != nil {
		t.Fatal(err)
	}
	return sum, count
}

func TestGroupedSumCountMaintained(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := setup(t, env)
	tx := env.Begin()
	k1, _ := r.Insert(tx, rec("eng", 100))
	r.Insert(tx, rec("eng", 200))
	r.Insert(tx, rec("ops", 50))

	if sum, count := lookup(t, r, "paybydept", types.Str("eng")); sum != 300 || count != 2 {
		t.Fatalf("eng = %v/%v", sum, count)
	}
	if sum, count := lookup(t, r, "paybydept", types.Str("ops")); sum != 50 || count != 1 {
		t.Fatalf("ops = %v/%v", sum, count)
	}
	// Value update adjusts the sum.
	r.Update(tx, k1, rec("eng", 150))
	if sum, _ := lookup(t, r, "paybydept", types.Str("eng")); sum != 350 {
		t.Fatalf("eng after raise = %v", sum)
	}
	// Group move shifts between groups.
	r.Update(tx, k1, rec("ops", 150))
	if sum, count := lookup(t, r, "paybydept", types.Str("eng")); sum != 200 || count != 1 {
		t.Fatalf("eng after move = %v/%v", sum, count)
	}
	if sum, count := lookup(t, r, "paybydept", types.Str("ops")); sum != 200 || count != 2 {
		t.Fatalf("ops after move = %v/%v", sum, count)
	}
	// Delete removes the contribution.
	r.Delete(tx, k1)
	if sum, count := lookup(t, r, "paybydept", types.Str("ops")); sum != 50 || count != 1 {
		t.Fatalf("ops after delete = %v/%v", sum, count)
	}
	// Unknown group reads as zero.
	if sum, count := lookup(t, r, "paybydept", types.Str("ghost")); sum != 0 || count != 0 {
		t.Fatal("ghost group nonzero")
	}
	tx.Commit()
}

func TestGlobalAggregate(t *testing.T) {
	env := core.NewEnv(core.Config{})
	tx := env.Begin()
	env.CreateRelation(tx, "emp", schema(), "memory", nil)
	if _, err := env.CreateAttachment(tx, "emp", "aggregate",
		core.AttrList{"name": "total", "value": "salary"}); err != nil {
		t.Fatal(err)
	}
	r, _ := env.OpenRelationByName("emp")
	r.Insert(tx, rec("a", 1))
	r.Insert(tx, rec("b", 2))
	tx.Commit()
	if sum, count := lookup(t, r, "total", types.Null()); sum != 3 || count != 2 {
		t.Fatalf("global = %v/%v", sum, count)
	}
}

func TestValidation(t *testing.T) {
	env := core.NewEnv(core.Config{})
	tx := env.Begin()
	env.CreateRelation(tx, "emp", schema(), "memory", nil)
	if _, err := env.CreateAttachment(tx, "emp", "aggregate", nil); err == nil {
		t.Fatal("missing value accepted")
	}
	if _, err := env.CreateAttachment(tx, "emp", "aggregate",
		core.AttrList{"value": "dept"}); err == nil {
		t.Fatal("non-numeric value column accepted")
	}
	if _, err := env.CreateAttachment(tx, "emp", "aggregate",
		core.AttrList{"value": "salary", "group": "zzz"}); err == nil {
		t.Fatal("unknown group column accepted")
	}
	tx.Commit()
}

// A group lasts while it has members. Float sums do not cancel
// (0.1 + 0.2 - 0.1 - 0.2 = 2.8e-17), so an emptied group must go by its
// count; undoing the delete that emptied it brings it back.
func TestEmptiedGroupIsDropped(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := setup(t, env)
	tx := env.Begin()
	k1, _ := r.Insert(tx, rec("eng", 0.1))
	k2, _ := r.Insert(tx, rec("eng", 0.2))
	if err := r.Delete(tx, k1); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Savepoint("one-left"); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(tx, k2); err != nil {
		t.Fatal(err)
	}
	if sum, count := lookup(t, r, "paybydept", types.Str("eng")); sum != 0 || count != 0 {
		t.Fatalf("emptied group reads %v/%v, want 0/0", sum, count)
	}
	if err := tx.RollbackTo("one-left"); err != nil {
		t.Fatal(err)
	}
	if sum, count := lookup(t, r, "paybydept", types.Str("eng")); sum != 0.2 || count != 1 {
		t.Fatalf("after undoing the last delete the group reads %v/%v, want 0.2/1", sum, count)
	}
	tx.Commit()
}
