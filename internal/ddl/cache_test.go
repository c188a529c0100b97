package ddl

import (
	"fmt"
	"strings"
	"testing"

	"dmx/internal/att/check"
	_ "dmx/internal/att/hashidx"
	_ "dmx/internal/att/stats"
	_ "dmx/internal/att/unique"
	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/types"
)

// newOLTPSession loads emp the way the oltp-sql benchmark workload does: a
// heap with a btree index and a unique attachment on eno, a check
// constraint on salary and a hash index on dno; rows eno 0..rows-1.
func newOLTPSession(t *testing.T, rows int) *Session {
	t.Helper()
	check.RegisterPredicate("ddl_test_sal_nonneg", expr.Ge(expr.Field(2), expr.Const(types.Int(0))))
	s := NewSession(core.NewEnv(core.Config{}))
	execAll(t, s, "CREATE TABLE emp (eno INT NOT NULL, dno INT, salary INT, name STRING) USING heap")
	for i := 0; i < rows; i++ {
		execAll(t, s, fmt.Sprintf("INSERT INTO emp VALUES (%d, %d, %d, 'name-%d')", i, i%100, i*7%1000, i))
	}
	execAll(t, s,
		"CREATE INDEX emp_eno ON emp (eno)",
		"CREATE ATTACHMENT unique ON emp WITH (name=u, on=eno)",
		"CREATE ATTACHMENT check ON emp WITH (name=c, predicate=ddl_test_sal_nonneg)",
		"CREATE ATTACHMENT hash ON emp WITH (name=h, on=dno)")
	return s
}

// TestParamReplanOnCardinalityClass: a cached range plan chosen for a
// selective literal is translated again — and counted — when a literal of
// the same shape expects rows in another power-of-4 bucket, and lands on
// the path a fresh session picks for that text; literals of different
// kinds are different shapes; a top-k read whose re-plan leaves the
// ordered path still returns the first k rows in order.
func TestParamReplanOnCardinalityClass(t *testing.T) {
	env := core.NewEnv(core.Config{})
	s := NewSession(env)
	execAll(t, s,
		"CREATE TABLE emp (eno INT NOT NULL, v INT) USING heap",
		"CREATE ATTACHMENT stats ON emp",
		"CREATE INDEX emp_eno ON emp (eno)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO emp VALUES ")
	for i := 0; i < 10000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i%7)
	}
	execAll(t, s, sb.String())

	replans := func() int64 { return env.Obs.Snapshot().Plan.Replans }
	before := replans()
	for i, c := range []struct {
		bound   int
		replans int64 // dmx_plan_replans_total since the first statement
	}{{5, 0}, {6, 0}, {9000, 1}, {8000, 1}, {5, 2}, {9000, 3}} {
		sql := fmt.Sprintf("SELECT v FROM emp WHERE eno < %d", c.bound)
		res := execAll(t, s, sql)
		fresh := execAll(t, NewSession(env), sql)
		if len(res.Rows) != c.bound || res.Explain != fresh.Explain {
			t.Fatalf("%s: %d rows via %q, a fresh session's plan %q", sql, len(res.Rows), res.Explain, fresh.Explain)
		}
		if i == 0 && !strings.Contains(res.Explain, "btree") {
			t.Fatalf("%s: explain %q, want the btree index", sql, res.Explain)
		}
		if got := replans() - before; got != c.replans {
			t.Fatalf("after %s: %d re-plans, want %d", sql, got, c.replans)
		}
	}
	if len(s.plans[" SELECT v FROM emp WHERE eno < ?i"]) != 1 {
		t.Fatal("the range statements do not share one entry")
	}

	for _, lit := range []string{"5", "5.0", "'5'"} {
		execAll(t, s, "SELECT v FROM emp WHERE eno = "+lit)
	}
	for _, kind := range []string{"i", "f", "s"} {
		if len(s.plans[" SELECT v FROM emp WHERE eno = ?"+kind]) != 1 {
			t.Fatalf("no entry of its own for eno = ?%s", kind)
		}
	}

	// A top-k read cached on the eno-keyed store, which delivers eno order,
	// re-plans to the index on v: the statement must then sort every row it
	// reads, not the first LIMIT.
	execAll(t, s,
		"CREATE TABLE pay (eno INT NOT NULL, v INT) USING btree WITH (key=eno)",
		"CREATE ATTACHMENT stats ON pay",
		"CREATE INDEX pay_v ON pay (v)")
	sb.Reset()
	sb.WriteString("INSERT INTO pay VALUES ")
	for i := 0; i < 10000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i*7919%10000, i)
	}
	execAll(t, s, sb.String())
	for i, bound := range []int{9000, 50, 9000} {
		sql := fmt.Sprintf("SELECT eno FROM pay WHERE v < %d ORDER BY eno LIMIT 10", bound)
		res := execAll(t, s, sql)
		fresh := execAll(t, NewSession(env), sql)
		if res.Explain != fresh.Explain || fmt.Sprint(res.Rows) != fmt.Sprint(fresh.Rows) {
			t.Fatalf("%s: %v via %q, a fresh session: %v via %q", sql, res.Rows, res.Explain, fresh.Rows, fresh.Explain)
		}
		if ordered := strings.HasSuffix(res.Explain, "[ordered]"); ordered == (i == 1) {
			t.Fatalf("%s: explain %q, want the key-ordered store only for v < 9000", sql, res.Explain)
		}
	}
}

// TestStatementAllocations pins what a statement of a cached shape costs
// in allocations on the oltp-sql table: 9 for the point SELECT, 15 for
// UPDATE, 18 for INSERT and 18 for DELETE. The bounds are three higher:
// under the race detector sync.Pool drops a random quarter of the pooled
// log payloads put back, and INSERT reads 21, DELETE 20. While each plan
// open allocated its index-then-fetch cursor, the heap kept each
// transaction's pending versions in a list, stash entry and closure of
// its own, index keys and unique value locks grew field by field and a
// tree item was two allocations, they cost 10, 21, 30 and 30 (INSERT
// read 33 and DELETE 32 under the race detector). While an index
// point lookup built its key's prefix successor and a fetch decoded the
// whole record to filter and project it with the tree walker, they cost
// 12, 22, 30 and 33 (INSERT read 33 and DELETE 35 under the race
// detector). While each execution of a cached plan bound its
// parameters into a fresh copy of the filter and rebuilt its key range,
// operator counters and relation handle, and UPDATE and DELETE collected
// their rows into fresh slices, they cost 26, 38, 30 and 49 (INSERT read
// 33 and DELETE 51 under the race detector). While each
// transaction made its savepoint and stash maps at Begin they cost 28, 39,
// 31 and 50; while a record's encoding grew its buffer field by field,
// UPDATE cost 44 and INSERT 36. Before lock grants and log payloads stopped allocating
// they cost 36, 58, 61 and 76; with plans cached by exact text, under
// which every one of these texts missed, 71 (36 when the SELECT's text
// repeated), 95, 83 and 105.
func TestStatementAllocations(t *testing.T) {
	s := newOLTPSession(t, 1000)
	const runs = 200
	for _, c := range []struct {
		name, format string
		bound        float64
	}{
		{"point SELECT", "SELECT salary, dno FROM emp WHERE eno = %[1]d", 12},
		{"UPDATE", "UPDATE emp SET salary = %[1]d WHERE eno = %[1]d", 18},
		{"INSERT", "INSERT INTO emp VALUES (%[2]d, %[1]d, %[1]d, 'name-%[2]d')", 21},
		{"DELETE", "DELETE FROM emp WHERE eno = %[1]d", 21},
	} {
		texts := make([]string, runs+1) // AllocsPerRun calls once more to warm up
		for i := range texts {
			texts[i] = fmt.Sprintf(c.format, i, 1000+i)
		}
		i := 0
		got := testing.AllocsPerRun(runs, func() {
			res, err := s.Exec(texts[i])
			if err != nil || len(res.Rows) != 1 && res.Affected != 1 {
				t.Fatalf("%s: %+v, %v", texts[i], res, err)
			}
			i++
		})
		t.Logf("%s: %v allocations per statement", c.name, got)
		if got > c.bound {
			t.Errorf("%s: %v allocations per statement, bound %v", c.name, got, c.bound)
		}
	}

	// Lexing a cached shape's text allocates only the content of strings
	// with '' escapes.
	for _, c := range []struct {
		src   string
		bound float64
	}{
		{"INSERT INTO emp VALUES (-1, 2, 3.5, 'plain')", 0},
		{"INSERT INTO emp VALUES (-1, 2, 3.5, 'it''s')", 2},
	} {
		if got := testing.AllocsPerRun(runs, func() { s.lx.lex(c.src, nil) }); got > c.bound {
			t.Errorf("lexing %s: %v allocations, bound %v", c.src, got, c.bound)
		}
	}
}

// TestMarkersAreSlots: a ? marker takes its value, and its kind, from the
// Exec argument in its position, so a statement with markers shares the
// entry of the same statement with literals written in.
func TestMarkersAreSlots(t *testing.T) {
	s := NewSession(core.NewEnv(core.Config{}))
	execAll(t, s,
		"CREATE TABLE t (id INT NOT NULL, v STRING) USING memory",
		"INSERT INTO t VALUES (1, 'one')")
	if _, err := s.Exec("INSERT INTO t VALUES (?, ?)", types.Int(2), types.Str("it's")); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec("SELECT v FROM t WHERE id = ? OR v = ?", types.Int(2), types.Str("one"))
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("rows %v, %v", res, err)
	}
	if len(s.plans) != 2 || s.nplans != 2 {
		t.Fatalf("%d shapes in %d entries, want the INSERT's and the SELECT's", len(s.plans), s.nplans)
	}
	for _, c := range []struct {
		src  string
		args []types.Value
	}{
		{"SELECT v FROM t WHERE id = ?", nil},
		{"SELECT v FROM t WHERE id = ?", []types.Value{types.Int(1), types.Int(2)}},
		{"SELECT v FROM t WHERE id = 1", []types.Value{types.Int(1)}},
	} {
		if _, err := s.Exec(c.src, c.args...); err == nil {
			t.Errorf("%s with %d arguments accepted", c.src, len(c.args))
		}
	}
}
