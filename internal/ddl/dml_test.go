package ddl_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"dmx/internal/core"
	"dmx/internal/ddl"
	"dmx/internal/expr"
	"dmx/internal/plan"
	"dmx/internal/types"
)

// dmlTables are the two organisations the planned-DML tests run over: a
// heap (record keys are addresses) and a relation stored in record-key
// order. Both carry a btree index on v and a hash index on h; n is not
// indexed.
var dmlTables = []struct{ name, create string }{
	{"heap", "CREATE TABLE t (id INT NOT NULL, v INT, h INT, n INT) USING heap"},
	{"btree", "CREATE TABLE t (id INT NOT NULL, v INT, h INT, n INT) USING btree WITH (key=id)"},
}

const dmlRows = 200

// newDMLSession loads t with dmlRows rows: v = id%50, h = id%7, n = id%13.
func newDMLSession(t *testing.T, create string) *ddl.Session {
	t.Helper()
	s := newSession(t)
	mustExec(t, s, create,
		"CREATE INDEX t_v ON t (v)",
		"CREATE ATTACHMENT hash ON t WITH (name=t_h, on=h)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < dmlRows; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d, %d)", i, i%50, i%7, i%13)
	}
	mustExec(t, s, sb.String())
	return s
}

// tableContents returns every row of t, read through access path zero and
// ordered by id.
func tableContents(t *testing.T, env *core.Env) []types.Record {
	t.Helper()
	b, err := plan.New(env).Plan(plan.Query{Table: "t", ForcePath: &plan.ForcedPath{Att: 0}})
	if err != nil {
		t.Fatal(err)
	}
	tx := env.Begin()
	defer tx.Commit()
	rows, err := plan.Collect(b.Execute(tx))
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i][0].I < rows[j][0].I })
	return rows
}

// scanDML is the reference the planned statements are compared with: it
// locates the rows satisfying filter with a filtered scan of access path
// zero, collects them, then applies set to each (nil set deletes).
func scanDML(t *testing.T, env *core.Env, filter *expr.Expr, set func(types.Record)) int {
	t.Helper()
	b, err := plan.New(env).Plan(plan.Query{Table: "t", Filter: filter, ForcePath: &plan.ForcedPath{Att: 0}})
	if err != nil {
		t.Fatal(err)
	}
	tx := env.Begin()
	rows, err := b.ExecuteKeyed(tx)
	if err != nil {
		t.Fatal(err)
	}
	var keys []types.Key
	var recs []types.Record
	for {
		key, rec, ok, err := rows.NextKeyed()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		keys, recs = append(keys, key), append(recs, rec)
	}
	rows.Close()
	rel, err := env.OpenRelationByName("t")
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range keys {
		if set == nil {
			err = rel.Delete(tx, key)
		} else {
			rec := recs[i].Clone()
			set(rec)
			_, err = rel.Update(tx, key, rec)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return len(keys)
}

// TestPlannedDMLMatchesFullScan: whichever access path the planner picks
// for an UPDATE or DELETE, the rows affected and the table left behind are
// those of the filtered full scan. Each case runs twice in one session with
// other literals of the same shape: the second statement runs the plan the
// first one cached, with its own values.
func TestPlannedDMLMatchesFullScan(t *testing.T) {
	const id, v, h, n = 0, 1, 2, 3
	p0, p1 := expr.Param(0), expr.Param(1)
	preds := []struct {
		name, where string     // where: a format over each pass's literals
		lits        [2][]any   // the literals of the two passes
		filter      *expr.Expr // where, with the literals as parameters
		via         string     // access the heap table must report, "" = any
	}{
		{"eq on btree column", "v = %d", [2][]any{{17}, {22}}, expr.Eq(expr.Field(v), p0), "btree"},
		{"range on btree column", "v >= %d AND v < %d", [2][]any{{10, 13}, {30, 33}},
			expr.And(expr.Ge(expr.Field(v), p0), expr.Lt(expr.Field(v), p1)), "btree"},
		{"eq on hash column", "h = %d", [2][]any{{3}, {5}}, expr.Eq(expr.Field(h), p0), "hash"},
		{"non-indexed column", "n = %d", [2][]any{{5}, {7}}, expr.Eq(expr.Field(n), p0), "scan("},
		{"btree eq and hash eq", "v = %d AND h = %d", [2][]any{{17, 3}, {22, 1}},
			expr.And(expr.Eq(expr.Field(v), p0), expr.Eq(expr.Field(h), p1)), ""},
		{"hash eq and non-indexed", "h = %d AND n = %d", [2][]any{{3, 5}, {4, 2}},
			expr.And(expr.Eq(expr.Field(h), p0), expr.Eq(expr.Field(n), p1)), "hash"},
		{"btree range and non-indexed", "v > %d AND n = %d", [2][]any{{45, 2}, {40, 3}},
			expr.And(expr.Gt(expr.Field(v), p0), expr.Eq(expr.Field(n), p1)), ""},
		{"record key eq", "id = %d", [2][]any{{42}, {43}}, expr.Eq(expr.Field(id), p0), ""},
		{"record key range", "id >= %d", [2][]any{{190}, {180}}, expr.Ge(expr.Field(id), p0), ""},
		{"no where", "", [2][]any{}, nil, "scan("},
		{"matches nothing", "v = %d", [2][]any{{999}, {998}}, expr.Eq(expr.Field(v), p0), ""},
	}
	stmts := []struct {
		name, sql string
		set       func(types.Record)
	}{
		{"delete", "DELETE FROM t", nil},
		{"update plain column", "UPDATE t SET n = n + 1000",
			func(r types.Record) { r[n] = types.Int(r[n].I + 1000) }},
		{"update both indexed columns", "UPDATE t SET v = v + 5, h = h + 1",
			func(r types.Record) { r[v] = types.Int(r[v].I + 5); r[h] = types.Int(r[h].I + 1) }},
	}
	for _, tbl := range dmlTables {
		for _, st := range stmts {
			for _, p := range preds {
				t.Run(tbl.name+"/"+st.name+"/"+p.name, func(t *testing.T) {
					planned := newDMLSession(t, tbl.create)
					ref := newDMLSession(t, tbl.create)
					for pass, lits := range p.lits {
						sql := st.sql
						if p.where != "" {
							sql += " WHERE " + fmt.Sprintf(p.where, lits...)
						}
						before := planned.Env().Obs.Snapshot().Plan
						res := mustExec(t, planned, sql)
						after := planned.Env().Obs.Snapshot().Plan
						if pass == 1 && (after.CacheHits != before.CacheHits+1 || after.CacheMisses != before.CacheMisses) {
							t.Fatalf("%s: the second pass did not run the cached plan (hits +%d, misses +%d)",
								sql, after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses)
						}
						params := make([]types.Value, len(lits))
						for i, l := range lits {
							params[i] = types.Int(int64(l.(int)))
						}
						want := scanDML(t, ref.Env(), expr.Bind(p.filter, params), st.set)
						if res.Affected != want {
							t.Fatalf("%s: affected %d rows via %s, full scan %d", sql, res.Affected, res.Explain, want)
						}
						if pass == 0 && p.where != "" && p.name != "matches nothing" && want == 0 {
							t.Fatalf("%s: the case matches no row", sql)
						}
						got, exp := tableContents(t, planned.Env()), tableContents(t, ref.Env())
						if fmt.Sprint(got) != fmt.Sprint(exp) {
							t.Fatalf("%s via %s: table differs from the full-scan reference\ngot  %v\nwant %v",
								sql, res.Explain, got, exp)
						}
						if res.Explain == "" {
							t.Fatalf("%s: no Explain", sql)
						}
						if tbl.name == "heap" && !strings.Contains(res.Explain, p.via) {
							t.Fatalf("%s: explain %q, want access via %q", sql, res.Explain, p.via)
						}
						// The indexes followed the rows: probing them finds what
						// the table holds.
						for _, probe := range []struct {
							col  string
							i    int
							want int64
						}{{"v", v, 22}, {"v", v, 17}, {"h", h, 4}, {"h", h, 3}} {
							var inTable int64
							for _, r := range got {
								if r[probe.i].I == probe.want {
									inTable++
								}
							}
							idx := mustExec(t, planned, fmt.Sprintf("SELECT COUNT(*) FROM t WHERE %s = %d", probe.col, probe.want))
							if idx.Rows[0][0].I != inTable {
								t.Fatalf("%s: afterwards %s = %d counts %d via %s, the table holds %d",
									sql, probe.col, probe.want, idx.Rows[0][0].I, idx.Explain, inTable)
							}
						}
					}
				})
			}
		}
	}
}

// TestUpdateMeetsEachRowOnce: a statement that moves rows forward along
// the very access path it reads them from (the Halloween problem) still
// modifies each qualifying row exactly once, because the keys are
// collected before the first modification.
func TestUpdateMeetsEachRowOnce(t *testing.T) {
	t.Run("SET on the index key", func(t *testing.T) {
		s := newDMLSession(t, dmlTables[0].create)
		res := mustExec(t, s, "UPDATE t SET v = v + 100 WHERE v > 10")
		if !strings.Contains(res.Explain, "btree") {
			t.Fatalf("explain = %q: the case needs the index on v", res.Explain)
		}
		want := 0
		for i := 0; i < dmlRows; i++ {
			if i%50 > 10 {
				want++
			}
		}
		if res.Affected != want {
			t.Fatalf("affected = %d, want %d", res.Affected, want)
		}
		for _, r := range mustExec(t, s, "SELECT id, v FROM t").Rows {
			exp := r[0].I % 50
			if exp > 10 {
				exp += 100
			}
			if r[1].I != exp {
				t.Fatalf("id %d: v = %d, want %d", r[0].I, r[1].I, exp)
			}
		}
	})
	t.Run("SET on the record key", func(t *testing.T) {
		s := newDMLSession(t, dmlTables[1].create)
		res := mustExec(t, s, "UPDATE t SET id = id + 1000 WHERE id >= 5")
		if res.Affected != dmlRows-5 {
			t.Fatalf("affected = %d, want %d", res.Affected, dmlRows-5)
		}
		rows := mustExec(t, s, "SELECT id, v FROM t").Rows
		if len(rows) != dmlRows {
			t.Fatalf("%d rows, want %d", len(rows), dmlRows)
		}
		for _, r := range rows {
			orig := r[0].I
			if orig >= 5 {
				orig -= 1000
			}
			if orig < 0 || orig >= dmlRows || (orig >= 5) != (r[0].I >= 1005) || r[1].I != orig%50 {
				t.Fatalf("row %v was not moved exactly once", r)
			}
		}
	})
}

// TestDMLExplainNamesTheIndex: UPDATE and DELETE report the access path
// that located their rows, as SELECT does.
func TestDMLExplainNamesTheIndex(t *testing.T) {
	s := newEmpSessions(t, 1)[0]
	for _, sql := range []string{
		"UPDATE emp SET salary = 11 WHERE eno = 7",
		"DELETE FROM emp WHERE eno = 7",
	} {
		res := mustExec(t, s, sql)
		if res.Affected != 1 || !strings.Contains(res.Explain, "access(emp via btree") {
			t.Fatalf("%s: affected %d, explain %q", sql, res.Affected, res.Explain)
		}
	}
}

// TestStatementAtomicInOpenTransaction: a statement that fails part-way
// inside BEGIN…COMMIT leaves none of its own modifications behind, and
// the transaction's earlier work stays.
func TestStatementAtomicInOpenTransaction(t *testing.T) {
	for _, c := range []struct{ name, stmt string }{
		// Row 1 moves to v=15, then row 2 collides with it.
		{"update", "UPDATE t SET v = 15 WHERE id <= 2"},
		// The second row of the list collides with the first.
		{"insert", "INSERT INTO t VALUES (10, 100), (11, 100)"},
		// Row 1 goes, then row 2's child vetoes (parent role, restrict).
		{"delete", "DELETE FROM t WHERE id <= 2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := newSession(t)
			mustExec(t, s,
				"CREATE TABLE t (id INT NOT NULL, v INT) USING heap",
				"CREATE ATTACHMENT unique ON t WITH (name=u, on=v)",
				"CREATE TABLE child (id INT NOT NULL, pid INT) USING heap",
				"INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)")
			if c.name == "delete" {
				mustExec(t, s,
					"CREATE ATTACHMENT refint ON t WITH (name=pk, role=parent, on=id, peer=child, peerkey=pid, action=restrict)",
					"INSERT INTO child VALUES (1, 2)")
			}
			mustExec(t, s, "BEGIN", "INSERT INTO t VALUES (4, 4)")
			if _, err := s.Exec(c.stmt); err == nil {
				t.Fatalf("%s succeeded; the case needs it to fail on its second row", c.stmt)
			}
			if !s.InTxn() {
				t.Fatal("the failed statement ended the transaction")
			}
			inTxn := mustExec(t, s, "SELECT id, v FROM t ORDER BY id").Rows
			mustExec(t, s, "COMMIT")
			after := mustExec(t, s, "SELECT id, v FROM t ORDER BY id").Rows
			for _, rows := range [][]types.Record{inTxn, after} {
				if len(rows) != 4 {
					t.Fatalf("rows = %v, want ids 1..4 untouched", rows)
				}
				for i, r := range rows {
					if r[0].I != int64(i+1) || r[1].I != int64(i+1) {
						t.Fatalf("rows = %v, want ids 1..4 untouched", rows)
					}
				}
			}
		})
	}
}
