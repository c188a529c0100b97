package rtreeix_test

import (
	"testing"

	"dmx/internal/att/rtreeix"
	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/rtree"
	_ "dmx/internal/sm/memsm"
	"dmx/internal/types"
)

func schema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "shape", Kind: types.KindBytes},
	)
}

func setup(t *testing.T, env *core.Env) *core.Relation {
	t.Helper()
	tx := env.Begin()
	if _, err := env.CreateRelation(tx, "parcels", schema(), "memory", nil); err != nil {
		t.Fatal(err)
	}
	rd, err := env.CreateAttachment(tx, "parcels", "rtree", core.AttrList{"name": "space", "on": "shape"})
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	r, _ := env.OpenRelation(rd)
	return r
}

func rec(id int64, b expr.Box) types.Record {
	return types.Record{types.Int(id), b.Value()}
}

func TestValidateRequiresBoxColumn(t *testing.T) {
	env := core.NewEnv(core.Config{})
	tx := env.Begin()
	env.CreateRelation(tx, "t", schema(), "memory", nil)
	if _, err := env.CreateAttachment(tx, "t", "rtree", core.AttrList{"on": "id"}); err == nil {
		t.Fatal("non-BYTES column accepted")
	}
	if _, err := env.CreateAttachment(tx, "t", "rtree", core.AttrList{"on": "id,shape"}); err == nil {
		t.Fatal("two columns accepted")
	}
	tx.Commit()
}

func TestSpatialLookupAndScan(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := setup(t, env)
	tx := env.Begin()
	r.Insert(tx, rec(1, expr.NewBox(0, 0, 2, 2)))
	r.Insert(tx, rec(2, expr.NewBox(5, 5, 6, 6)))
	r.Insert(tx, rec(3, expr.NewBox(50, 50, 60, 60)))

	// Direct-by-key: query box overlap.
	q := expr.NewBox(1, 1, 7, 7)
	keys, err := r.LookupAccess(tx, core.AttRTree, 0, types.Key(q.Value().B))
	if err != nil || len(keys) != 2 {
		t.Fatalf("overlap lookup = %v, %v", keys, err)
	}
	// Scan with Within mode: only fully-enclosed entries.
	scan, err := r.OpenAccessScan(tx, core.AttRTree, 0, core.ScanOptions{
		Start: types.Key(expr.NewBox(4, 4, 10, 10).Value().B),
		End:   rtreeix.ModeKey(rtree.Within),
	})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		recKey, boxRec, ok, err := scan.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		full, _ := r.Fetch(tx, recKey, nil, nil)
		if full[0].AsInt() != 2 {
			t.Fatalf("Within matched id %d", full[0].AsInt())
		}
		if box, err := expr.DecodeBox(boxRec[0]); err != nil || !box.Overlaps(expr.NewBox(5, 5, 6, 6)) {
			t.Fatalf("scan box = %v, %v", box, err)
		}
		n++
	}
	if n != 1 {
		t.Fatalf("Within matched %d", n)
	}
	tx.Commit()
}

func TestMaintenanceOnUpdateDeleteAndNulls(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := setup(t, env)
	tx := env.Begin()
	k, _ := r.Insert(tx, rec(1, expr.NewBox(0, 0, 1, 1)))
	// NULL box: not indexed, no error.
	kn, err := r.Insert(tx, types.Record{types.Int(2), types.Null()})
	if err != nil {
		t.Fatal(err)
	}
	// Move the box: old entry out, new in.
	if _, err := r.Update(tx, k, rec(1, expr.NewBox(100, 100, 101, 101))); err != nil {
		t.Fatal(err)
	}
	keys, _ := r.LookupAccess(tx, core.AttRTree, 0, types.Key(expr.NewBox(-1, -1, 2, 2).Value().B))
	if len(keys) != 0 {
		t.Fatal("old position still indexed after move")
	}
	keys, _ = r.LookupAccess(tx, core.AttRTree, 0, types.Key(expr.NewBox(99, 99, 102, 102).Value().B))
	if len(keys) != 1 {
		t.Fatal("new position not indexed after move")
	}
	// Set box to NULL: entry removed.
	if _, err := r.Update(tx, k, types.Record{types.Int(1), types.Null()}); err != nil {
		t.Fatal(err)
	}
	keys, _ = r.LookupAccess(tx, core.AttRTree, 0, types.Key(expr.NewBox(99, 99, 102, 102).Value().B))
	if len(keys) != 0 {
		t.Fatal("NULLed box still indexed")
	}
	if err := r.Delete(tx, kn); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
}

func TestCostEstimateRecognisesSpatialPredicates(t *testing.T) {
	env := core.NewEnv(core.Config{})
	r := setup(t, env)
	tx := env.Begin()
	for i := 0; i < 100; i++ {
		x := float64(i % 10 * 10)
		y := float64(i / 10 * 10)
		r.Insert(tx, rec(int64(i), expr.NewBox(x, y, x+1, y+1)))
	}
	tx.Commit()

	instAny, _ := env.AttachmentInstance(r.Desc(), core.AttRTree)
	ap := instAny.(core.AccessPath)

	q := expr.NewBox(0, 0, 10, 10)
	est := ap.EstimateCost(core.CostRequest{Conjuncts: []*expr.Expr{
		expr.Encloses(expr.Const(q.Value()), expr.Field(1)),
	}})
	if !est.Usable || est.Selectivity > 0.2 || len(est.Handled) != 1 {
		t.Fatalf("ENCLOSES estimate = %+v", est)
	}
	if est.End == nil || rtree.Mode(est.End[0]) != rtree.Within {
		t.Fatalf("mode = %v", est.End)
	}
	// Non-spatial conjuncts: unusable.
	est2 := ap.EstimateCost(core.CostRequest{Conjuncts: []*expr.Expr{
		expr.Eq(expr.Field(0), expr.Const(types.Int(1))),
	}})
	if est2.Usable {
		t.Fatal("non-spatial conjunct should be unusable")
	}
}
