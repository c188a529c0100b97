package core_test

import (
	"testing"

	"dmx/internal/core"
	_ "dmx/internal/sm/memsm"
	"dmx/internal/wal"
)

func TestCatalogLookups(t *testing.T) {
	env := core.NewEnv(core.Config{})
	rd := mkRel(t, env, "Emp", "memory")
	if got, ok := env.Cat.ByName("EMP"); !ok || got.RelID != rd.RelID {
		t.Fatal("case-insensitive ByName")
	}
	if got, ok := env.Cat.Get(rd.RelID); !ok || got.Name != "Emp" {
		t.Fatal("Get")
	}
	if _, ok := env.Cat.Get(999); ok {
		t.Fatal("missing Get")
	}
	if rds := env.Cat.Relations(); len(rds) != 1 || rds[0] != rd {
		t.Fatalf("Relations = %v", rds)
	}
	// Duplicate names rejected.
	tx := env.Begin()
	if _, err := env.CreateRelation(tx, "emp", testSchema(), "memory", nil); err == nil {
		t.Fatal("duplicate relation name accepted")
	}
	tx.Commit()
}

func TestCatalogIDAllocationSurvivesRecovery(t *testing.T) {
	log := wal.New()
	env := core.NewEnv(core.Config{Log: log})
	rd1 := mkRel(t, env, "a", "memory")

	env2 := core.NewEnv(core.Config{Log: log})
	if err := env2.Recover(); err != nil {
		t.Fatal(err)
	}
	tx := env2.Begin()
	rd2, err := env2.CreateRelation(tx, "b", testSchema(), "memory", nil)
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if rd2.RelID == rd1.RelID {
		t.Fatal("relation id reused after recovery")
	}
}

func TestCatalogBadSystemPayloads(t *testing.T) {
	env := core.NewEnv(core.Config{})
	for _, p := range [][]byte{
		nil,             // empty
		{99},            // unknown op
		{1, 1, 2},       // create with truncated descriptor
		{3, 0, 0},       // update with truncated header
		{3, 0, 0, 0, 9}, // update whose old-descriptor length overruns
	} {
		if err := env.Cat.ApplySystemLogged(p, false); err == nil {
			t.Errorf("payload %v accepted", p)
		}
	}
}

func TestEnvApplyLoggedErrors(t *testing.T) {
	env := core.NewEnv(core.Config{})
	// Unknown relation in a storage-owned record.
	err := env.Undo(1, wal.Owner{Class: wal.OwnerStorage, ExtID: 4, RelID: 77}, nil)
	if err == nil {
		t.Fatal("unknown relation accepted")
	}
	// Unknown owner class.
	err = env.Redo(1, wal.Owner{Class: 9}, nil, false)
	if err == nil {
		t.Fatal("unknown owner class accepted")
	}
	// Unregistered storage method on an otherwise valid relation.
	rd := mkRel(t, env, "t", "memory")
	bad := rd.Clone()
	bad.SM = 31 // registered? no
	if _, err := env.StorageInstance(bad); err == nil {
		t.Fatal("unregistered storage method accepted")
	}
	if _, err := env.AttachmentInstance(rd, 31); err == nil {
		t.Fatal("unregistered attachment accepted")
	}
}

func TestDropRelationUnknownAndRecreate(t *testing.T) {
	env := core.NewEnv(core.Config{})
	tx := env.Begin()
	if err := env.DropRelation(tx, "ghost"); err == nil {
		t.Fatal("drop of missing relation accepted")
	}
	tx.Commit()

	// A name can be reused after a committed drop.
	mkRel(t, env, "t", "memory")
	tx2 := env.Begin()
	if err := env.DropRelation(tx2, "t"); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	rd := mkRel(t, env, "t", "memory")
	if rd == nil {
		t.Fatal("recreate failed")
	}
}
