package ddl

import (
	"fmt"
	"strings"
	"testing"
	"time"

	_ "dmx/internal/att/btreeix"
	"dmx/internal/core"
	"dmx/internal/lock"
	"dmx/internal/plan"
	_ "dmx/internal/sm/heap"
	_ "dmx/internal/sm/memsm"
)

func execAll(t *testing.T, s *Session, stmts ...string) *Result {
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

// TestPlanCacheIsBoundedAndProbedFirst: literal-bearing SQL never repeats
// its text, so the cache must not keep a plan per statement; and a text
// that does repeat must not be resolved and bound again.
func TestPlanCacheIsBoundedAndProbedFirst(t *testing.T) {
	s := NewSession(core.NewEnv(core.Config{}))
	execAll(t, s,
		"CREATE TABLE t (id INT NOT NULL, v INT) USING memory",
		"INSERT INTO t VALUES (1, 1), (2, 2)")
	n := 100000
	if testing.Short() {
		n = 3 * planCacheCap
	}
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
		if len(s.plans) > planCacheCap {
			t.Fatalf("after %d distinct statements the cache holds %d plans, cap %d", i+1, len(s.plans), planCacheCap)
		}
	}

	builds := 0
	build := func() (plan.Query, stmtPlan, error) {
		builds++
		return plan.Query{Table: "t"}, stmtPlan{cols: []string{"id", "v"}}, nil
	}
	first, err := s.planFor("  SELECT * FROM t ", build)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.planFor("SELECT * FROM t", build)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 || again != first || len(again.cols) != 2 {
		t.Fatalf("repeated text: %d builds, same entry %v, cols %v", builds, again == first, again.cols)
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
