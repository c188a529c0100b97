package ddl

import (
	"fmt"
	"strings"
	"testing"
	"time"

	_ "dmx/internal/att/btreeix"
	"dmx/internal/core"
	"dmx/internal/lock"
	_ "dmx/internal/sm/heap"
	_ "dmx/internal/sm/memsm"
)

func execAll(t testing.TB, s *Session, stmts ...string) *Result {
	t.Helper()
	var res *Result
	for _, stmt := range stmts {
		var err error
		if res, err = s.Exec(stmt); err != nil {
			t.Fatalf("exec %q: %v", stmt, err)
		}
	}
	return res
}

// TestPlanCacheIsBoundedAndProbedFirst: statements that differ only in
// their literals are one shape, parsed and bound once; a pinned slot (a
// LIMIT count) takes part in the match, so another count is another entry;
// and the cache stays bounded however many shapes it sees.
func TestPlanCacheIsBoundedAndProbedFirst(t *testing.T) {
	env := core.NewEnv(core.Config{})
	s := NewSession(env)
	execAll(t, s,
		"CREATE TABLE t (id INT NOT NULL, v INT) USING memory",
		"INSERT INTO t VALUES (1, 1), (2, 2)")
	n := 100000
	if testing.Short() {
		n = 3 * planCacheCap
	}
	misses := func() int64 { return env.Obs.Snapshot().Plan.CacheMisses }
	before := misses()
	for i := 0; i < n; i++ {
		var stmt string
		switch i % 3 {
		case 0:
			stmt = fmt.Sprintf("SELECT v FROM t WHERE id = %d", i)
		case 1:
			stmt = fmt.Sprintf("UPDATE t SET v = %d WHERE id = 1", i)
		default:
			stmt = fmt.Sprintf("DELETE FROM t WHERE id = %d", i+10)
		}
		if _, err := s.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	if builds := misses() - before; builds != 3 || s.nplans != 4 {
		t.Fatalf("%d statements of 3 shapes: %d builds, %d entries (INSERT's and 3)", n, builds, s.nplans)
	}

	sel := s.plans[" SELECT v FROM t WHERE id = ?i"]
	for _, limit := range []int{1, 2, 1} {
		res := execAll(t, s, fmt.Sprintf("SELECT id FROM t LIMIT %d", limit))
		if len(res.Rows) != limit {
			t.Fatalf("LIMIT %d returned %d rows", limit, len(res.Rows))
		}
	}
	if len(sel) != 1 || len(s.plans[" SELECT id FROM t LIMIT ?i"]) != 2 || misses()-before != 5 {
		t.Fatalf("LIMIT 1, 2, 1: entries %d, builds %d", len(s.plans[" SELECT id FROM t LIMIT ?i"]), misses()-before)
	}

	for i := 0; i < 2*planCacheCap; i++ {
		execAll(t, s, fmt.Sprintf("SELECT id FROM t LIMIT %d", i))
		if s.nplans > planCacheCap || len(s.plans) > planCacheCap {
			t.Fatalf("after %d LIMIT values the cache holds %d entries, cap %d", i+1, s.nplans, planCacheCap)
		}
	}
}

// TestCachedStatementFollowsSchemaChange: a cached statement whose table
// was dropped and recreated with its columns elsewhere is resolved again,
// not run with the column positions it was first bound to.
func TestCachedStatementFollowsSchemaChange(t *testing.T) {
	s := NewSession(core.NewEnv(core.Config{}))
	const sel, upd = "SELECT v FROM t WHERE id = 1", "UPDATE t SET v = 7 WHERE id = 1"
	execAll(t, s,
		"CREATE TABLE t (id INT NOT NULL, v INT) USING memory",
		"INSERT INTO t VALUES (1, 5)", upd, sel,
		"DROP TABLE t",
		"CREATE TABLE t (v INT, id INT NOT NULL) USING memory",
		"INSERT INTO t VALUES (5, 1)")
	if res := execAll(t, s, upd); res.Affected != 1 {
		t.Fatalf("update affected %d rows", res.Affected)
	}
	if res := execAll(t, s, sel); len(res.Rows) != 1 || res.Rows[0][0].I != 7 {
		t.Fatalf("rows = %v, want [[7]]", res.Rows)
	}
}

// TestPointSelectHoldsNoRelationSLock: equality on a btree index's whole
// key is a direct-by-key probe — relation IS plus the record's own lock —
// so an open transaction that ran one does not hold up an inserter.
func TestPointSelectHoldsNoRelationSLock(t *testing.T) {
	env := core.NewEnv(core.Config{})
	reader, writer := NewSession(env), NewSession(env)
	execAll(t, reader,
		"CREATE TABLE emp (eno INT NOT NULL, salary INT) USING heap",
		"CREATE INDEX emp_eno ON emp (eno)")
	for i := 0; i < 100; i++ {
		execAll(t, reader, fmt.Sprintf("INSERT INTO emp VALUES (%d, 10)", i))
	}
	res := execAll(t, reader, "BEGIN", "SELECT salary FROM emp WHERE eno = 7")
	if len(res.Rows) != 1 || !strings.Contains(res.Explain, "btree") {
		t.Fatalf("rows %v via %q", res.Rows, res.Explain)
	}
	rd, _ := env.Cat.ByName("emp")
	if m := env.Locks.HeldMode(reader.tx.ID(), lock.RelResource(rd.RelID)); m != lock.ModeIS {
		t.Fatalf("point SELECT holds relation %v, want IS", m)
	}
	done := make(chan error, 1)
	go func() {
		_, err := writer.Exec("INSERT INTO emp VALUES (1000, 10)")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the inserter is blocked behind the open point SELECT")
	}
	execAll(t, reader, "COMMIT")
}
