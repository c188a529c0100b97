package smutil_test

import (
	"errors"
	"testing"

	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/sm/smutil"
	"dmx/internal/types"
)

// The storage-method contract TreeStore implements is checked for the
// methods built on it by the conformance suite (internal/sm); these tests
// cover what only the store itself promises.

func newStore(keyFields []int) (*core.Env, *smutil.TreeStore) {
	env := core.NewEnv(core.Config{})
	rd := &core.RelDesc{RelID: 1, Name: "t", SM: core.SMTemp, Schema: types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "v", Kind: types.KindString},
	)}
	return env, smutil.NewTreeStore(env, rd, false, keyFields)
}

func rec(id int64, v string) types.Record {
	return types.Record{types.Int(id), types.Str(v)}
}

func TestTreeStoreMissingKeys(t *testing.T) {
	for _, keyFields := range [][]int{nil, {0}} {
		env, s := newStore(keyFields)
		tx := env.Begin()
		if _, err := s.Update(tx, types.Key{9, 9}, nil, rec(9, "x")); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("update of a missing key: %v", err)
		}
		if err := s.Delete(tx, types.Key{9, 9}, nil); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("delete of a missing key: %v", err)
		}
		if s.RecordCount() != 0 {
			t.Fatal("failed operations left records behind")
		}
		tx.Commit()
	}
}

// A row the scan rejects costs no allocation: the filter matches the
// entry's bytes, copied into the scan's reused buffers, and a rejecting
// scan over the store that
// backs the memory, temp and btree methods allocates per scan only —
// twenty thousand rows cost what two thousand do.
func TestTreeStoreRejectedRowsAllocateNothing(t *testing.T) {
	reject := expr.And(expr.Ge(expr.Field(0), expr.Const(types.Int(0))),
		expr.Eq(expr.Field(1), expr.Param(0)))
	measure := func(n int) float64 {
		env, s := newStore(nil)
		tx := env.Begin()
		defer tx.Commit()
		for i := 0; i < n; i++ {
			if _, err := s.Insert(tx, rec(int64(i), "x")); err != nil {
				t.Fatal(err)
			}
		}
		opts := core.ScanOptions{Filter: expr.Bind(reject, []types.Value{types.Str("y")}), Fields: []int{1}}
		return testing.AllocsPerRun(5, func() {
			sc, err := s.OpenScan(tx, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, ok, err := sc.Next(); ok || err != nil {
				t.Fatalf("rejecting scan returned a row: %v %v", ok, err)
			}
			sc.Close()
		})
	}
	if small, large := measure(2000), measure(20000); large > small {
		t.Fatalf("rejecting 20000 rows allocates %v times, 2000 rows %v: rejected rows allocate", large, small)
	}
}

func TestTreeStoreCostEstimates(t *testing.T) {
	for _, keyFields := range [][]int{nil, {0}} {
		env, s := newStore(keyFields)
		tx := env.Begin()
		for i := 0; i < 1000; i++ {
			if _, err := s.Insert(tx, rec(int64(i), "x")); err != nil {
				t.Fatal(err)
			}
		}
		tx.Commit()
		estimate := func(c *expr.Expr) core.CostEstimate {
			return s.EstimateCost(core.CostRequest{Conjuncts: []*expr.Expr{c}})
		}
		// Memory-resident: no I/O, one CPU unit per record for a full scan,
		// which is all a predicate on a non-key field can get.
		full := estimate(expr.Eq(expr.Field(1), expr.Const(types.Str("x"))))
		if !full.Usable || full.IO != 0 || full.CPU != 1000 || len(full.Handled) != 0 {
			t.Fatalf("full estimate = %+v", full)
		}
		point := estimate(expr.Eq(expr.Field(0), expr.Const(types.Int(5))))
		rng := estimate(expr.Lt(expr.Field(0), expr.Const(types.Int(100))))
		if keyFields == nil {
			// Sequence keys say nothing about field values.
			if point.CPU != 1000 || rng.CPU != 1000 || point.Start != nil {
				t.Fatalf("sequence-keyed estimates = %+v, %+v", point, rng)
			}
			continue
		}
		// Point predicate on the key: near-constant cost, with key bounds.
		if point.CPU > 10 || len(point.Handled) != 1 || point.Start == nil || point.End == nil {
			t.Fatalf("point estimate = %+v", point)
		}
		// Range predicate: fractional cost.
		if rng.CPU <= point.CPU || rng.CPU >= 1000 {
			t.Fatalf("range estimate = %+v", rng)
		}
	}
}
