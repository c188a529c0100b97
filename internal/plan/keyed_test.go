package plan_test

import (
	"strings"
	"testing"

	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/lock"
	"dmx/internal/plan"
	"dmx/internal/types"
)

// TestKeyedCursorAndLockModes runs one query per single-table operator —
// storage-method scan, index range scan, btree point probe, hash probe —
// as a read and as a ForUpdate query. Every record key the cursor hands
// back fetches the record it came with, and the relation is locked in the
// mode the access declares: IS/IX for probes, S/SIX for scans.
func TestKeyedCursorAndLockModes(t *testing.T) {
	env := core.NewEnv(core.Config{})
	rel := loadEmp(t, env, "heap", nil, 500)
	tx := env.Begin()
	if _, err := env.CreateAttachment(tx, "emp", "btree", core.AttrList{"name": "byeno", "on": "eno"}); err != nil {
		t.Fatal(err)
	}
	if _, err := env.CreateAttachment(tx, "emp", "hash", core.AttrList{"name": "bydno", "on": "dno"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	eno, dno, salary := expr.Field(0), expr.Field(1), expr.Field(2)
	for _, c := range []struct {
		name        string
		filter      *expr.Expr
		via         string
		rows        int
		read, write lock.Mode
	}{
		{"sm scan", expr.Lt(salary, expr.Const(types.Float(20))), "scan(emp via heap", 20, lock.ModeS, lock.ModeSIX},
		{"index range", expr.And(expr.Ge(eno, expr.Const(types.Int(100))), expr.Lt(eno, expr.Const(types.Int(110)))),
			"btree", 10, lock.ModeS, lock.ModeSIX},
		{"btree point", expr.Eq(eno, expr.Const(types.Int(42))), "btree", 1, lock.ModeIS, lock.ModeIX},
		{"hash probe", expr.Eq(dno, expr.Const(types.Int(3))), "hash", 50, lock.ModeIS, lock.ModeIX},
	} {
		for _, forUpdate := range []bool{false, true} {
			b, err := plan.New(env).Plan(plan.Query{Table: "emp", Filter: c.filter, Fields: []int{0}, ForUpdate: forUpdate})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(b.Explain(), c.via) {
				t.Fatalf("%s: explain %q, want %q", c.name, b.Explain(), c.via)
			}
			tx := env.Begin()
			rows, err := b.ExecuteKeyed(tx)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for {
				key, rec, ok, err := rows.NextKeyed()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				n++
				// Scans read under the relation lock and lock no record;
				// fetches by key lock the record, X when it will be modified.
				wantKey := lock.ModeNone
				if c.name != "sm scan" {
					wantKey = lock.ModeS
					if forUpdate {
						wantKey = lock.ModeX
					}
				}
				if m := env.Locks.HeldMode(tx.ID(), lock.KeyResource(rel.Desc().RelID, key)); m != wantKey {
					t.Fatalf("%s (forUpdate=%v): record locked %v, want %v", c.name, forUpdate, m, wantKey)
				}
				full, err := rel.Fetch(tx, key, nil, nil)
				if err != nil || len(rec) != 1 || full[0].I != rec[0].I {
					t.Fatalf("%s: key %x came with %v but fetches %v (%v)", c.name, key, rec, full, err)
				}
			}
			rows.Close()
			if n != c.rows {
				t.Fatalf("%s: %d rows, want %d", c.name, n, c.rows)
			}
			want := c.read
			if forUpdate {
				want = c.write
			}
			if m := env.Locks.HeldMode(tx.ID(), lock.RelResource(rel.Desc().RelID)); m != want {
				t.Fatalf("%s (forUpdate=%v): relation locked %v, want %v", c.name, forUpdate, m, want)
			}
			tx.Commit()
		}
	}
}

// TestExecuteKeyedNeedsASerialSingleTablePlan: a join drops record keys,
// so it has no keyed cursor, and a ForUpdate query cannot be a join. Every
// single-table plan reads through one keyed cursor, a large unhinted scan
// included.
func TestExecuteKeyedNeedsASerialSingleTablePlan(t *testing.T) {
	env := core.NewEnv(core.Config{})
	const n = 10000
	loadEmp(t, env, "heap", nil, n)
	addDept(t, env, false)
	join := &plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0}
	if _, err := plan.New(env).Plan(plan.Query{Table: "emp", Join: join, ForUpdate: true}); err == nil {
		t.Fatal("a ForUpdate join was planned")
	}
	b, err := plan.New(env).Plan(plan.Query{Table: "emp", Join: join})
	if err != nil {
		t.Fatal(err)
	}
	tx := env.Begin()
	if _, err := b.ExecuteKeyed(tx); err == nil {
		t.Fatalf("%s handed out a keyed cursor", b.Explain())
	}
	tx.Commit()

	b, err = plan.New(env).Plan(plan.Query{Table: "emp"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.Explain(), "scan(") {
		t.Fatalf("explain = %q", b.Explain())
	}
	tx = env.Begin()
	defer tx.Commit()
	rows, err := b.ExecuteKeyed(tx)
	if err != nil {
		t.Fatalf("%s: %v", b.Explain(), err)
	}
	defer rows.Close()
	got := 0
	for {
		key, _, ok, err := rows.NextKeyed()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if key == nil {
			t.Fatal("a scan row came back without its record key")
		}
		got++
	}
	if got != n {
		t.Fatalf("keyed scan returned %d rows, want %d", got, n)
	}
}
