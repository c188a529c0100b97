package unique_test

import (
	"errors"
	"testing"

	"dmx/internal/att/unique"
	"dmx/internal/core"
	_ "dmx/internal/sm/memsm"
	"dmx/internal/types"
)

func schema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "email", Kind: types.KindString},
	)
}

func rec(id int64, email string) types.Record {
	return types.Record{types.Int(id), types.Str(email)}
}

func nullEmail(id int64) types.Record {
	return types.Record{types.Int(id), types.Null()}
}

func setup(t *testing.T, env *core.Env) *core.Relation {
	t.Helper()
	tx := env.Begin()
	env.CreateRelation(tx, "users", schema(), "memory", nil)
	if _, err := env.CreateAttachment(tx, "users", "unique", core.AttrList{"name": "umail", "on": "email"}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	r, _ := env.OpenRelationByName("users")
	return r
}

func TestDuplicateVetoed(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := setup(t, env)
	tx := env.Begin()
	if _, err := r.Insert(tx, rec(1, "a@x")); err != nil {
		t.Fatal(err)
	}
	_, err := r.Insert(tx, rec(2, "a@x"))
	var ve *core.VetoError
	if !errors.As(err, &ve) || !errors.Is(err, unique.ErrViolation) {
		t.Fatalf("want unique veto, got %v", err)
	}
	if r.Storage().RecordCount() != 1 {
		t.Fatal("vetoed insert left effects")
	}
	tx.Commit()
}

func TestNullsDoNotParticipate(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := setup(t, env)
	tx := env.Begin()
	if _, err := r.Insert(tx, nullEmail(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(tx, nullEmail(2)); err != nil {
		t.Fatalf("multiple NULLs should be allowed: %v", err)
	}
	tx.Commit()
}

func TestDeleteFreesValueUpdateMovesIt(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := setup(t, env)
	tx := env.Begin()
	k, _ := r.Insert(tx, rec(1, "a@x"))
	r.Delete(tx, k)
	if _, err := r.Insert(tx, rec(2, "a@x")); err != nil {
		t.Fatalf("value should be free after delete: %v", err)
	}
	k3, _ := r.Insert(tx, rec(3, "b@x"))
	if _, err := r.Update(tx, k3, rec(3, "a@x")); err == nil {
		t.Fatal("update into duplicate accepted")
	}
	if _, err := r.Update(tx, k3, rec(3, "c@x")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(tx, rec(4, "b@x")); err != nil {
		t.Fatalf("old value should be free after update away: %v", err)
	}
	tx.Commit()
}

func TestBuildRejectsExistingDuplicates(t *testing.T) {
	env := core.NewEnv(core.Config{})
	tx := env.Begin()
	env.CreateRelation(tx, "users", schema(), "memory", nil)
	r, _ := env.OpenRelationByName("users")
	r.Insert(tx, rec(1, "dup@x"))
	r.Insert(tx, rec(2, "dup@x"))
	if _, err := env.CreateAttachment(tx, "users", "unique", core.AttrList{"on": "email"}); err == nil {
		t.Fatal("constraint built over duplicates")
	}
	tx.Abort()
}
