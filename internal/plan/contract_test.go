package plan

// White-box assertion of the Rows contract on the join cursors: Next must
// return ok=false whenever it returns an error. The nested-loop cursors
// used to forward the outer cursor's ok flag alongside its error, handing
// callers (nil, true, err) — a violation that makes ok-first callers
// dereference a nil record.

import (
	"errors"
	"testing"

	"dmx/internal/core"
	_ "dmx/internal/sm/memsm"
	"dmx/internal/types"
)

// erringRows yields ok=true together with an error, the worst-shaped
// upstream answer a cursor may have to normalize.
type erringRows struct{}

func (erringRows) Next() (types.Record, bool, error) {
	return nil, true, errors.New("outer cursor failed")
}
func (erringRows) Close() error { return nil }

func TestJoinCursorsNormalizeOuterError(t *testing.T) {
	env := core.NewEnv(core.Config{})
	tx := env.Begin()
	schema := types.MustSchema(types.Column{Name: "k", Kind: types.KindInt})
	rd, err := env.CreateRelation(tx, "r", schema, "memory", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	j := &JoinSpec{}
	cursors := map[string]Rows{
		"nl path zero": &nlRows{q: Query{Join: j}, outer: erringRows{}, inner: &access{rd: rd}},
		"nl probe": &nlRows{q: Query{Join: j}, outer: erringRows{},
			inner: &access{rd: rd, useAtt: core.AttBTree, estimate: core.CostEstimate{Point: true, Handled: []int{0}}}},
		"hash": &nlRows{q: Query{Join: j}, outer: erringRows{}, inner: &access{rd: rd}, table: &hashTable{}},
	}
	for name, r := range cursors {
		rec, ok, err := r.Next()
		if err == nil {
			t.Fatalf("%s: want the failure propagated", name)
		}
		if ok {
			t.Errorf("%s: Next returned ok=true alongside err=%v — violates the Rows contract", name, err)
		}
		if rec != nil {
			t.Errorf("%s: Next returned a record alongside an error", name)
		}
	}
}
