package hashidx_test

import (
	"testing"

	"dmx/internal/core"
	"dmx/internal/expr"
	_ "dmx/internal/sm/memsm"
	"dmx/internal/types"
	"dmx/internal/wal"
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

func TestNoOrderedScan(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := setup(t, env)
	tx := env.Begin()
	if _, err := r.OpenAccessScan(tx, core.AttHash, 0, core.ScanOptions{}); err == nil {
		t.Fatal("hash index offered a key-sequential access")
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

func TestBuildAbortRecovery(t *testing.T) {
	log := wal.New()
	env := core.NewEnv(core.Config{Log: log})
	tx := env.Begin()
	env.CreateRelation(tx, "t", schema(), "memory", nil)
	r, _ := env.OpenRelationByName("t")
	for i := 0; i < 10; i++ {
		r.Insert(tx, rec(int64(i), "x"))
	}
	// Build over existing data.
	if _, err := env.CreateAttachment(tx, "t", "hash", core.AttrList{"on": "email"}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	r, _ = env.OpenRelationByName("t")
	tx2 := env.Begin()
	keys, _ := r.LookupAccess(tx2, core.AttHash, 0, types.EncodeKeyValues(types.Str("x")))
	if len(keys) != 10 {
		t.Fatalf("built entries = %d", len(keys))
	}
	// Abort of modifications restores the table.
	r.Insert(tx2, rec(99, "x"))
	tx2.Abort()
	tx3 := env.Begin()
	keys, _ = r.LookupAccess(tx3, core.AttHash, 0, types.EncodeKeyValues(types.Str("x")))
	if len(keys) != 10 {
		t.Fatalf("entries after abort = %d", len(keys))
	}
	tx3.Commit()

	// Restart recovery rebuilds the hash table.
	env2 := core.NewEnv(core.Config{Log: log})
	if err := env2.Recover(); err != nil {
		t.Fatal(err)
	}
	r2, _ := env2.OpenRelationByName("t")
	tx4 := env2.Begin()
	keys, err := r2.LookupAccess(tx4, core.AttHash, 0, types.EncodeKeyValues(types.Str("x")))
	if err != nil || len(keys) != 10 {
		t.Fatalf("recovered entries = %v, %v", len(keys), err)
	}
	tx4.Commit()
}

// Regression: creating an index on a populated relation must populate only
// the new instance. Build used to re-apply every existing instance as well,
// duplicating their buckets (and re-logging their entries, so aborting the
// DDL transaction stripped live entries from pre-existing indexes).
func TestCreateSecondIndexLeavesFirstExact(t *testing.T) {
	env := core.NewEnv(core.Config{})
	setup(t, env)
	tx := env.Begin()
	r, _ := env.OpenRelationByName("users")
	r.Insert(tx, rec(1, "a@x"))
	r.Insert(tx, rec(2, "b@x"))
	tx.Commit()

	tx = env.Begin()
	if _, err := env.CreateAttachment(tx, "users", "hash", core.AttrList{"name": "byid", "on": "id"}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	tx = env.Begin()
	defer tx.Commit()
	r, _ = env.OpenRelationByName("users")
	keys, err := r.LookupAccess(tx, core.AttHash, 0, types.EncodeKeyValues(types.Str("a@x")))
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 {
		t.Fatalf("existing index: %d keys for a@x, want 1", len(keys))
	}
	keys, err = r.LookupAccess(tx, core.AttHash, 1, types.EncodeKeyValues(types.Int(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 {
		t.Fatalf("new index: %d keys for id=2, want 1", len(keys))
	}
}

// Regression: dropping the last instance must not reset the Seq counter.
// A later create reused the dropped instance's Seq and inherited its
// retained in-memory bucket entries, so probes returned phantom keys.
func TestDropAllThenRecreateStaysExact(t *testing.T) {
	env := core.NewEnv(core.Config{})
	setup(t, env)
	tx := env.Begin()
	r, _ := env.OpenRelationByName("users")
	r.Insert(tx, rec(1, "a@x"))
	tx.Commit()

	tx = env.Begin()
	if _, err := env.DropAttachment(tx, "users", "hash", core.AttrList{"name": "bymail"}); err != nil {
		t.Fatal(err)
	}
	if _, err := env.CreateAttachment(tx, "users", "hash", core.AttrList{"name": "bymail2", "on": "email"}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	tx = env.Begin()
	defer tx.Commit()
	r, _ = env.OpenRelationByName("users")
	keys, err := r.LookupAccess(tx, core.AttHash, 0, types.EncodeKeyValues(types.Str("a@x")))
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 {
		t.Fatalf("recreated index: %d keys for a@x, want 1", len(keys))
	}
}
