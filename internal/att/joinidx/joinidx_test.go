package joinidx_test

import (
	"testing"

	_ "dmx/internal/att/joinidx"
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

// setup creates dept and emp with the two sides of join index empdept on
// their dno columns.
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
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	d, _ := env.OpenRelationByName("dept")
	e, _ := env.OpenRelationByName("emp")
	return d, e
}

// TestPairsEnumerateEquiJoin: probing dept's side with each emp record's
// join value yields exactly the matching (emp, dept) pairs, and a dangling
// emp record pairs with nothing.
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
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := env.Begin()
	scan, err := e.OpenScan(tx2, core.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for {
		_, er, ok, err := scan.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		peers, err := d.LookupAccess(tx2, core.AttJoin, 0, types.EncodeKeyValues(er[1]))
		if err != nil {
			t.Fatal(err)
		}
		for _, pk := range peers {
			dr, err := d.Fetch(tx2, pk, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if er[1].AsInt() != dr[0].AsInt() {
				t.Fatalf("pair mismatch: emp.dno=%d dept.dno=%d", er[1].AsInt(), dr[0].AsInt())
			}
			pairs++
		}
	}
	scan.Close()
	if pairs != 3 {
		t.Fatalf("pairs = %d", pairs)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestPeerKeysProbe: a join value probes the peer relation's side to its
// record keys; an instance the relation does not have is refused.
func TestPeerKeysProbe(t *testing.T) {
	env := core.NewEnv(core.Config{})
	d, e := setup(t, env)
	tx := env.Begin()
	dk, _ := d.Insert(tx, types.Record{types.Int(10), types.Str("eng")})
	e.Insert(tx, types.Record{types.Int(1), types.Int(10)})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := env.Begin()
	defer tx2.Commit()
	keys, err := d.LookupAccess(tx2, core.AttJoin, 0, types.EncodeKeyValues(types.Int(10)))
	if err != nil || len(keys) != 1 || !keys[0].Equal(dk) {
		t.Fatalf("peer keys = %v, %v", keys, err)
	}
	if _, err := d.LookupAccess(tx2, core.AttJoin, 1, types.EncodeKeyValues(types.Int(10))); err == nil {
		t.Fatal("unknown join index instance accepted")
	}
}

// TestMaintainedUnderModifications: emp's side of the join index maps a join
// value to the emp records carrying it through insert, update and delete,
// and files no entry for a NULL join value.
func TestMaintainedUnderModifications(t *testing.T) {
	env := core.NewEnv(core.Config{})
	tx := env.Begin()
	if _, err := env.CreateRelation(tx, "emp", empSchema(), "memory", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := env.CreateAttachment(tx, "emp", "joinindex",
		core.AttrList{"name": "empdept", "on": "dno", "peer": "dept"}); err != nil {
		t.Fatal(err)
	}
	e, _ := env.OpenRelationByName("emp")
	lookup := func(dno types.Value) []types.Key {
		t.Helper()
		keys, err := e.LookupAccess(tx, core.AttJoin, 0, types.EncodeKeyValues(dno))
		if err != nil {
			t.Fatal(err)
		}
		return keys
	}
	k1, _ := e.Insert(tx, types.Record{types.Int(1), types.Int(10)})
	k2, _ := e.Insert(tx, types.Record{types.Int(2), types.Int(20)})
	if keys := lookup(types.Int(10)); len(keys) != 1 || !keys[0].Equal(k1) {
		t.Fatalf("after insert: 10 -> %x", keys)
	}
	if _, err := e.Update(tx, k2, types.Record{types.Int(2), types.Int(10)}); err != nil {
		t.Fatal(err)
	}
	if len(lookup(types.Int(10))) != 2 || len(lookup(types.Int(20))) != 0 {
		t.Fatalf("after update: 10 -> %x, 20 -> %x", lookup(types.Int(10)), lookup(types.Int(20)))
	}
	if err := e.Delete(tx, k1); err != nil {
		t.Fatal(err)
	}
	if keys := lookup(types.Int(10)); len(keys) != 1 || !keys[0].Equal(k2) {
		t.Fatalf("after delete: 10 -> %x", keys)
	}
	if _, err := e.Update(tx, k2, types.Record{types.Int(2), types.Null()}); err != nil {
		t.Fatal(err)
	}
	if len(lookup(types.Int(10))) != 0 || len(lookup(types.Null())) != 0 {
		t.Fatalf("after update to NULL: 10 -> %x, NULL -> %x", lookup(types.Int(10)), lookup(types.Null()))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
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
