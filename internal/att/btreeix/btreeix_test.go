package btreeix_test

import (
	"errors"
	"fmt"
	"testing"

	"dmx/internal/att/btreeix"
	"dmx/internal/core"
	"dmx/internal/expr"
	_ "dmx/internal/sm/memsm"
	"dmx/internal/types"
)

func schema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "dept", Kind: types.KindString},
		types.Column{Name: "salary", Kind: types.KindFloat},
	)
}

func setup(t *testing.T, env *core.Env, indexAttrs ...core.AttrList) *core.Relation {
	t.Helper()
	tx := env.Begin()
	rd, err := env.CreateRelation(tx, "emp", schema(), "memory", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, attrs := range indexAttrs {
		if rd, err = env.CreateAttachment(tx, "emp", "btree", attrs); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r, _ := env.OpenRelation(rd)
	return r
}

func rec(id int64, dept string, salary float64) types.Record {
	return types.Record{types.Int(id), types.Str(dept), types.Float(salary)}
}

func inst(t *testing.T, r *core.Relation) *btreeix.Instance {
	t.Helper()
	a, err := r.Env().AttachmentInstance(r.Desc(), core.AttBTree)
	if err != nil {
		t.Fatal(err)
	}
	return a.(*btreeix.Instance)
}

func TestMaintainedOnModifications(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := setup(t, env, core.AttrList{"name": "bydept", "on": "dept"})
	tx := env.Begin()
	k1, _ := r.Insert(tx, rec(1, "eng", 100))
	r.Insert(tx, rec(2, "eng", 200))
	r.Insert(tx, rec(3, "ops", 300))
	ix := inst(t, r)
	if ix.EntryCount(0) != 3 {
		t.Fatalf("entries = %d", ix.EntryCount(0))
	}
	// Lookup by index key prefix.
	keys, err := ix.LookupByKey(tx, 0, types.EncodeKeyValues(types.Str("eng")))
	if err != nil || len(keys) != 2 {
		t.Fatalf("lookup eng = %v, %v", keys, err)
	}
	// Update moving dept moves the entry.
	r.Update(tx, k1, rec(1, "ops", 100))
	keys, _ = ix.LookupByKey(tx, 0, types.EncodeKeyValues(types.Str("ops")))
	if len(keys) != 2 {
		t.Fatalf("lookup ops after move = %d", len(keys))
	}
	// Delete removes the entry.
	r.Delete(tx, k1)
	keys, _ = ix.LookupByKey(tx, 0, types.EncodeKeyValues(types.Str("ops")))
	if len(keys) != 1 {
		t.Fatalf("lookup ops after delete = %d", len(keys))
	}
	tx.Commit()
}

func TestMultipleInstances(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := setup(t, env,
		core.AttrList{"name": "bydept", "on": "dept"},
		core.AttrList{"name": "bysalary", "on": "salary"},
	)
	tx := env.Begin()
	r.Insert(tx, rec(1, "eng", 100))
	r.Insert(tx, rec(2, "ops", 50))
	ix := inst(t, r)
	if ix.InstanceCount() != 2 {
		t.Fatalf("instances = %d", ix.InstanceCount())
	}
	if ix.EntryCount(0) != 2 || ix.EntryCount(1) != 2 {
		t.Fatalf("entries = %d, %d", ix.EntryCount(0), ix.EntryCount(1))
	}
	// Access via "B-tree number 1" (the salary index).
	keys, err := ix.LookupByKey(tx, 1, types.EncodeKeyValues(types.Float(50)))
	if err != nil || len(keys) != 1 {
		t.Fatalf("salary lookup = %v, %v", keys, err)
	}
	tx.Commit()
}

func TestUniqueIndexVetoes(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := setup(t, env, core.AttrList{"name": "uid", "on": "id", "unique": "true"})
	tx := env.Begin()
	r.Insert(tx, rec(1, "eng", 100))
	_, err := r.Insert(tx, rec(1, "ops", 200))
	var ve *core.VetoError
	if !errors.As(err, &ve) || !errors.Is(err, btreeix.ErrUniqueViolation) {
		t.Fatalf("want unique veto, got %v", err)
	}
	// The vetoed insert must be fully undone (storage and index).
	if r.Storage().RecordCount() != 1 || inst(t, r).EntryCount(0) != 1 {
		t.Fatal("partial effects left after unique veto")
	}
	tx.Commit()
}

func TestIndexScanOrderAndKeys(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := setup(t, env, core.AttrList{"name": "bysalary", "on": "salary"})
	tx := env.Begin()
	for _, s := range []float64{30, 10, 20} {
		r.Insert(tx, rec(int64(s), "eng", s))
	}
	scan, err := r.OpenAccessScan(tx, core.AttBTree, 0, core.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var salaries []float64
	for {
		recKey, ixFields, ok, err := scan.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		// The access path returns the record key; fetch the record
		// directly via the storage method (access path zero).
		full, err := r.Fetch(tx, recKey, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !types.Equal(ixFields[0], full[2]) {
			t.Fatalf("index key field %v != record field %v", ixFields[0], full[2])
		}
		salaries = append(salaries, full[2].AsFloat())
	}
	if len(salaries) != 3 || salaries[0] != 10 || salaries[1] != 20 || salaries[2] != 30 {
		t.Fatalf("index order = %v", salaries)
	}
	// Asked for no fields, the scan yields the same record keys in the same
	// order and no index key fields.
	keysOnly, err := r.OpenAccessScan(tx, core.AttBTree, 0, core.ScanOptions{Fields: []int{}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		recKey, ixFields, ok, err := keysOnly.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != len(salaries) {
				t.Fatalf("keys-only scan returned %d entries, want %d", i, len(salaries))
			}
			break
		}
		if ixFields != nil {
			t.Fatalf("keys-only scan returned fields %v", ixFields)
		}
		if full, err := r.Fetch(tx, recKey, nil, nil); err != nil || full[2].AsFloat() != salaries[i] {
			t.Fatalf("keys-only entry %d: %v %v, want salary %v", i, full, err, salaries[i])
		}
	}
	tx.Commit()
}

// TestEstimateReportsPointOnlyForAWholeKeyEquality: Point promises the
// planner that Start is a complete index key it may probe with
// LookupByKey; a range, or equality on a prefix of a composite key, is a
// key-sequential access.
func TestEstimateReportsPointOnlyForAWholeKeyEquality(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := setup(t, env, core.AttrList{"name": "bydeptid", "on": "dept,id"})
	tx := env.Begin()
	for i := int64(0); i < 20; i++ {
		r.Insert(tx, rec(i, fmt.Sprintf("d%d", i%4), float64(i)))
	}
	tx.Commit()
	deptEq := expr.Eq(expr.Field(1), expr.Const(types.Str("d1")))
	idEq := expr.Eq(expr.Field(0), expr.Const(types.Int(5)))
	idGt := expr.Gt(expr.Field(0), expr.Const(types.Int(5)))
	for _, c := range []struct {
		name      string
		conjuncts []*expr.Expr
		point     bool
	}{
		{"whole key", []*expr.Expr{deptEq, idEq}, true},
		{"key prefix", []*expr.Expr{deptEq}, false},
		{"prefix and range", []*expr.Expr{deptEq, idGt}, false},
	} {
		est := inst(t, r).EstimateCost(core.CostRequest{Conjuncts: c.conjuncts, RecordCount: 20})
		if !est.Usable || est.Point != c.point {
			t.Fatalf("%s: estimate %+v, want usable with Point=%v", c.name, est, c.point)
		}
		if !c.point {
			continue
		}
		tx := env.Begin()
		keys, err := inst(t, r).LookupByKey(tx, est.Instance, est.Start)
		tx.Commit()
		if err != nil || len(keys) != 1 {
			t.Fatalf("%s: probing Start finds %d keys (%v), want the one record", c.name, len(keys), err)
		}
	}
}
