package dmx

import (
	"fmt"
	"strings"
	"testing"

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
