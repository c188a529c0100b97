package stats_test

import (
	"testing"

	"dmx/internal/att/stats"
	"dmx/internal/core"
	_ "dmx/internal/sm/memsm"
	"dmx/internal/types"
)

func schema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "v", Kind: types.KindFloat},
	)
}

func rec(id int64, v float64) types.Record {
	return types.Record{types.Int(id), types.Float(v)}
}

func setup(t *testing.T, env *core.Env) *core.Relation {
	t.Helper()
	tx := env.Begin()
	env.CreateRelation(tx, "t", schema(), "memory", nil)
	if _, err := env.CreateAttachment(tx, "t", "stats", nil); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	r, _ := env.OpenRelationByName("t")
	return r
}

func snap(t *testing.T, r *core.Relation) stats.Snapshot {
	t.Helper()
	instAny, err := r.Env().AttachmentInstance(r.Desc(), core.AttStats)
	if err != nil {
		t.Fatal(err)
	}
	return instAny.(*stats.Instance).Snapshot()
}

func TestCountAndWatermarks(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := setup(t, env)
	tx := env.Begin()
	k, _ := r.Insert(tx, rec(5, 10))
	r.Insert(tx, rec(1, 30))
	r.Insert(tx, rec(9, 20))
	s := snap(t, r)
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Mins[0].AsInt() != 1 || s.Maxs[0].AsInt() != 9 {
		t.Fatalf("id range = %v..%v", s.Mins[0], s.Maxs[0])
	}
	if s.Mins[1].AsFloat() != 10 || s.Maxs[1].AsFloat() != 30 {
		t.Fatalf("v range = %v..%v", s.Mins[1], s.Maxs[1])
	}
	r.Delete(tx, k)
	if snap(t, r).Count != 2 {
		t.Fatal("count after delete")
	}
	// Updates widen watermarks.
	kk, _ := r.Insert(tx, rec(2, 1))
	r.Update(tx, kk, rec(2, 99))
	if snap(t, r).Maxs[1].AsFloat() != 99 {
		t.Fatal("update did not widen max")
	}
	tx.Commit()
}
