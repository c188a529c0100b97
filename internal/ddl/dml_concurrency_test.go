package ddl_test

import (
	"fmt"
	"sync"
	"testing"

	"dmx/internal/core"
	"dmx/internal/ddl"
)

// newEmpSessions returns n sessions over one environment holding emp
// (eno 0..99, btree index on eno).
func newEmpSessions(t *testing.T, n int) []*ddl.Session {
	t.Helper()
	env := core.NewEnv(core.Config{})
	sessions := make([]*ddl.Session, n)
	for i := range sessions {
		sessions[i] = ddl.NewSession(env)
	}
	mustExec(t, sessions[0],
		"CREATE TABLE emp (eno INT NOT NULL, salary INT) USING heap",
		"CREATE INDEX emp_eno ON emp (eno)")
	for i := 0; i < 100; i++ {
		mustExec(t, sessions[0], "INSERT INTO emp VALUES ("+itoa(i)+", 0)")
	}
	return sessions
}

// runConcurrently runs stmt(worker, i) for i in [0, n) on each session at
// once and returns every error.
func runConcurrently(sessions []*ddl.Session, n int, stmt func(worker, i int) string) []error {
	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
	)
	for w, s := range sessions {
		wg.Add(1)
		go func(w int, s *ddl.Session) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				sql := stmt(w, i)
				res, err := s.Exec(sql)
				if err == nil && res.Affected != 1 {
					err = fmt.Errorf("affected %d rows", res.Affected)
				}
				if err != nil {
					mu.Lock()
					errs = append(errs, fmt.Errorf("session %d: %s: %w", w, sql, err))
					mu.Unlock()
				}
			}
		}(w, s)
	}
	wg.Wait()
	return errs
}

// TestConcurrentPointUpdatesOfDisjointRows: two sessions updating
// different rows of one indexed table declare IX and lock only their own
// records, so neither waits for the other's relation lock and no statement
// is a deadlock victim. (With rows located by a scan under relation S and
// the lock upgraded to IX afterwards, about half of them were.)
func TestConcurrentPointUpdatesOfDisjointRows(t *testing.T) {
	sessions := newEmpSessions(t, 2)
	const n = 500
	errs := runConcurrently(sessions, n, func(w, i int) string {
		return fmt.Sprintf("UPDATE emp SET salary = %d WHERE eno = %d", i+1, 50*w+i%50)
	})
	for _, err := range errs {
		t.Error(err)
	}
	res := mustExec(t, sessions[0], "SELECT eno, salary FROM emp")
	for _, r := range res.Rows {
		// Row k was last written by statement i with i%50 == k%50.
		if want := int64(n - 50 + r[0].I%50 + 1); r[1].I != want {
			t.Fatalf("eno %d: salary %d, want %d", r[0].I, r[1].I, want)
		}
	}
}

// TestConcurrentPointUpdatesOfOneRow: two sessions updating the same row
// take its X lock before reading it, so they queue; both always succeed
// and the row ends with one of the two values.
func TestConcurrentPointUpdatesOfOneRow(t *testing.T) {
	sessions := newEmpSessions(t, 2)
	errs := runConcurrently(sessions, 500, func(w, i int) string {
		return fmt.Sprintf("UPDATE emp SET salary = %d WHERE eno = 7", w+1)
	})
	for _, err := range errs {
		t.Error(err)
	}
	res := mustExec(t, sessions[0], "SELECT salary FROM emp WHERE eno = 7")
	if v := res.Rows[0][0].I; v != 1 && v != 2 {
		t.Fatalf("salary = %d, want 1 or 2", v)
	}
}
