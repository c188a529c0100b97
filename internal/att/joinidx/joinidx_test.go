package joinidx_test

import (
	"testing"

	"dmx/internal/att/joinidx"
	"dmx/internal/core"
	_ "dmx/internal/sm/memsm"
	"dmx/internal/types"
)

func deptSchema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "dno", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "name", Kind: types.KindString},
	)
}

func empSchema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "eno", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "dno", Kind: types.KindInt},
	)
}

func setup(t *testing.T, env *core.Env) (*core.Relation, *core.Relation) {
	t.Helper()
	tx := env.Begin()
	env.CreateRelation(tx, "dept", deptSchema(), "memory", nil)
	env.CreateRelation(tx, "emp", empSchema(), "memory", nil)
	if _, err := env.CreateAttachment(tx, "emp", "joinindex",
		core.AttrList{"name": "empdept", "on": "dno", "peer": "dept"}); err != nil {
		t.Fatal(err)
	}
	if _, err := env.CreateAttachment(tx, "dept", "joinindex",
		core.AttrList{"name": "empdept", "on": "dno", "peer": "emp"}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	d, _ := env.OpenRelationByName("dept")
	e, _ := env.OpenRelationByName("emp")
	return d, e
}

func inst(t *testing.T, r *core.Relation) *joinidx.Instance {
	t.Helper()
	a, err := r.Env().AttachmentInstance(r.Desc(), core.AttJoin)
	if err != nil {
		t.Fatal(err)
	}
	return a.(*joinidx.Instance)
}

func TestPairsEnumerateEquiJoin(t *testing.T) {
	env := core.NewEnv(core.Config{})
	d, e := setup(t, env)
	tx := env.Begin()
	d.Insert(tx, types.Record{types.Int(10), types.Str("eng")})
	d.Insert(tx, types.Record{types.Int(20), types.Str("ops")})
	e.Insert(tx, types.Record{types.Int(1), types.Int(10)})
	e.Insert(tx, types.Record{types.Int(2), types.Int(10)})
	e.Insert(tx, types.Record{types.Int(3), types.Int(20)})
	e.Insert(tx, types.Record{types.Int(4), types.Int(99)}) // dangling
	tx.Commit()

	pairs, err := inst(t, e).Pairs("empdept")
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	// Each pair resolves to records whose join values match.
	tx2 := env.Begin()
	for _, p := range pairs {
		er, err := e.Fetch(tx2, p.Own, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		dr, err := d.Fetch(tx2, p.Peer, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if er[1].AsInt() != dr[0].AsInt() {
			t.Fatalf("pair mismatch: emp.dno=%d dept.dno=%d", er[1].AsInt(), dr[0].AsInt())
		}
	}
	tx2.Commit()
}

func TestMaintainedUnderModifications(t *testing.T) {
	env := core.NewEnv(core.Config{})
	d, e := setup(t, env)
	tx := env.Begin()
	d.Insert(tx, types.Record{types.Int(10), types.Str("eng")})
	ek, _ := e.Insert(tx, types.Record{types.Int(1), types.Int(10)})
	if pairs, _ := inst(t, e).Pairs("empdept"); len(pairs) != 1 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	// Update moving the employee away breaks the pair.
	e.Update(tx, ek, types.Record{types.Int(1), types.Int(55)})
	if pairs, _ := inst(t, e).Pairs("empdept"); len(pairs) != 0 {
		t.Fatal("stale pair after update")
	}
	e.Update(tx, ek, types.Record{types.Int(1), types.Int(10)})
	e.Delete(tx, ek)
	if pairs, _ := inst(t, e).Pairs("empdept"); len(pairs) != 0 {
		t.Fatal("stale pair after delete")
	}
	tx.Commit()
}

func TestPeerKeysProbe(t *testing.T) {
	env := core.NewEnv(core.Config{})
	d, e := setup(t, env)
	tx := env.Begin()
	dk, _ := d.Insert(tx, types.Record{types.Int(10), types.Str("eng")})
	e.Insert(tx, types.Record{types.Int(1), types.Int(10)})
	tx.Commit()

	keys, err := inst(t, e).PeerKeys("empdept", types.EncodeKeyValues(types.Int(10)))
	if err != nil || len(keys) != 1 || !keys[0].Equal(dk) {
		t.Fatalf("PeerKeys = %v, %v", keys, err)
	}
	if _, err := inst(t, e).PeerKeys("ghost", nil); err == nil {
		t.Fatal("unknown join index accepted")
	}
}

func TestValidation(t *testing.T) {
	env := core.NewEnv(core.Config{})
	tx := env.Begin()
	env.CreateRelation(tx, "emp", empSchema(), "memory", nil)
	if _, err := env.CreateAttachment(tx, "emp", "joinindex", core.AttrList{"on": "dno", "peer": "x"}); err == nil {
		t.Fatal("missing name accepted")
	}
	if _, err := env.CreateAttachment(tx, "emp", "joinindex", core.AttrList{"name": "j", "on": "dno"}); err == nil {
		t.Fatal("missing peer accepted")
	}
	tx.Commit()
}
