package tempsm_test

import (
	"testing"

	"dmx/internal/core"
	_ "dmx/internal/sm/tempsm"
	"dmx/internal/types"
	"dmx/internal/wal"
)

func TestTempRelationHasIdentifierOne(t *testing.T) {
	// The base system's temporary storage method is assigned internal
	// identifier 1, as in the paper.
	ops := core.DefaultRegistry.StorageMethodByName("temp")
	if ops == nil || ops.ID != core.SMTemp || core.SMTemp != 1 {
		t.Fatalf("temp storage method id = %v", ops)
	}
}

func TestTempRelationIsUnlogged(t *testing.T) {
	env := core.NewEnv(core.Config{})
	s := types.MustSchema(types.Column{Name: "id", Kind: types.KindInt})
	tx := env.Begin()
	if _, err := env.CreateRelation(tx, "scratch", s, "temp", nil); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	rel, _ := env.OpenRelationByName("scratch")

	logBefore := env.Log.Len()
	tx2 := env.Begin()
	if _, err := rel.Insert(tx2, types.Record{types.Int(1)}); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	// DDL is logged; the temp data modification is not (only the txn
	// commit/end markers appear).
	for _, r := range env.Log.Records()[logBefore:] {
		if r.Owner.Class == wal.OwnerStorage {
			t.Fatalf("temp insert was logged: %+v", r)
		}
	}
	// Abort does not undo temp contents (non-recoverable scratch space).
	tx3 := env.Begin()
	rel.Insert(tx3, types.Record{types.Int(2)})
	tx3.Abort()
	if rel.Storage().RecordCount() != 2 {
		t.Fatalf("count = %d (temp relations are not rolled back)", rel.Storage().RecordCount())
	}
}
