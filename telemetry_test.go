package dmx

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dmx/internal/expr"
	"dmx/internal/obs"
	"dmx/internal/types"
)

// opCell returns the (extension, operation) cell of a dispatch vector
// snapshot, zero when nothing was recorded.
func opCell(exts []obs.ExtSnapshot, ext, op string) obs.OpSnapshot {
	for _, e := range exts {
		for _, o := range e.Ops {
			if e.Name == ext && o.Op == op {
				return o
			}
		}
	}
	return obs.OpSnapshot{}
}

// TestFilteredFetchIsAnOutcomeNotAnError: an index fetch whose residual
// filter rejects the record (ErrFiltered), or that finds the record gone
// (ErrNotFound), answered the question it was asked. Neither may show as
// a storage-method error on any surface; any other error still does.
func TestFilteredFetchIsAnOutcomeNotAnError(t *testing.T) {
	db, err := Open(Config{TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(
		"CREATE TABLE emp (eno INT NOT NULL, dno INT, salary FLOAT) USING heap",
		"CREATE INDEX bydno ON emp (dno)",
	); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO emp VALUES (%d, %d, %d.0)", i, i%4, i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Exec("SELECT eno FROM emp WHERE dno = 1 AND salary < 20.0")
	if err != nil || len(res.Rows) != 5 {
		t.Fatalf("query: %d rows, %v (plan %s)", len(res.Rows), err, res.Explain)
	}
	fetches := findSpans(lastTrace(t, db).Root, "sm.fetch")
	for _, sp := range fetches {
		if sp.Err != "" {
			t.Errorf("sm.fetch span marked failed: %s", sp.Err)
			break
		}
	}
	if len(fetches) != 50 {
		t.Errorf("%d sm.fetch spans, want 50", len(fetches))
	}

	if c := opCell(db.Env.MetricsSnapshot().SM, "heap", "fetch"); c.Count != 50 || c.Errors != 0 {
		t.Errorf("heap fetch cell: count=%d errors=%d, want 50 and 0", c.Count, c.Errors)
	}
	res, err = db.Exec("SELECT fetches, errors FROM sys.stat_relations WHERE name = 'emp'")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 50 || res.Rows[0][1].I != 0 {
		t.Errorf("sys.stat_relations: %+v, %v; want fetches=50 errors=0", res.Rows, err)
	}
	var prom strings.Builder
	if err := obs.WritePrometheus(&prom, db.Env.MetricFamilies()); err != nil {
		t.Fatal(err)
	}
	if want := `dmx_sm_op_errors_total{id="2",ext="heap",op="fetch"} 0` + "\n"; !strings.Contains(prom.String(), want) {
		t.Errorf("/metrics lacks %q", want)
	}

	// A fetch the storage method cannot serve is still an error: system
	// relations reject a record key that is not an 8-byte ordinal.
	rel, err := db.Relation("sys.stat_locks")
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if _, err := rel.Fetch(tx, types.Key{1}, nil, nil); err == nil {
		t.Fatal("malformed system-relation key fetched")
	}
	tx.Commit()
	if c := opCell(db.Env.MetricsSnapshot().SM, "sys", "fetch"); c.Count != 1 || c.Errors != 1 {
		t.Errorf("sys fetch cell: count=%d errors=%d, want 1 and 1", c.Count, c.Errors)
	}
}

// TestPlanCacheCountersOnOLTPMix: a session running the oltp-sql mix —
// point SELECT, UPDATE, INSERT and DELETE with fresh literals each time,
// over a heap with btree, unique, check and hash attachments — parses and
// binds each statement shape once, as sys.stat_metrics reports.
func TestPlanCacheCountersOnOLTPMix(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.RegisterCheckPredicate("cache_test_sal_nonneg", expr.Ge(expr.Field(2), expr.Const(Int(0))))
	exec := func(stmt string) *Result {
		t.Helper()
		res, err := db.Exec(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		return res
	}
	exec("CREATE TABLE emp (eno INT NOT NULL, dno INT, salary INT, name STRING) USING heap")
	insert := func(eno, salary int) string {
		return fmt.Sprintf("INSERT INTO emp VALUES (%d, %d, %d, 'name-%d')", eno, eno%100, salary, eno)
	}
	low, high := 0, 1000
	for i := low; i < high; i++ {
		exec(insert(i, i))
	}
	exec("CREATE INDEX emp_eno ON emp (eno)")
	exec("CREATE ATTACHMENT unique ON emp WITH (name=u, on=eno)")
	exec("CREATE ATTACHMENT check ON emp WITH (name=c, predicate=cache_test_sal_nonneg)")
	exec("CREATE ATTACHMENT hash ON emp WITH (name=h, on=dno)")

	r := rand.New(rand.NewSource(1987))
	for i := 0; i < 10000; i++ {
		var stmt string
		switch p := r.Intn(100); {
		case p < 60:
			stmt = fmt.Sprintf("SELECT salary, dno FROM emp WHERE eno = %d", low+r.Intn(high-low))
		case p < 84:
			stmt = fmt.Sprintf("UPDATE emp SET salary = %d WHERE eno = %d", r.Intn(100000), low+r.Intn(high-low))
		case p < 92:
			stmt = insert(high, r.Intn(100000))
			high++
		default:
			stmt = fmt.Sprintf("DELETE FROM emp WHERE eno = %d", low)
			low++
		}
		if res := exec(stmt); len(res.Rows) != 1 && res.Affected != 1 {
			t.Fatalf("%s: %+v", stmt, res)
		}
	}
	metric := func(name string) float64 {
		res := exec("SELECT value FROM sys.stat_metrics WHERE name = '" + name + "'")
		if len(res.Rows) != 1 {
			t.Fatalf("%s: %v", name, res.Rows)
		}
		return res.Rows[0][0].F
	}
	misses := metric("dmx_plan_cache_misses_total")
	hits := metric("dmx_plan_cache_hits_total")
	// Five shapes: the mix's four (the set-up's INSERTs are the mix's) and
	// the metric read itself.
	if misses > 5 || hits/(hits+misses) < 0.999 {
		t.Fatalf("%v hits, %v misses over 5 statement shapes", hits, misses)
	}
}
