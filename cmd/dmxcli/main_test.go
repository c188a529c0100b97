package main

import (
	"strings"
	"testing"

	"dmx"
)

func runScript(t *testing.T, script string) string {
	t.Helper()
	db, err := dmx.Open(dmx.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var out strings.Builder
	if err := run(db.Env, db.NewSession(), strings.NewReader(script), &out, false); err != nil {
		t.Fatalf("script failed: %v\noutput so far:\n%s", err, out.String())
	}
	return out.String()
}

func TestScriptEndToEnd(t *testing.T) {
	out := runScript(t, `
-- comments and blank lines are skipped
CREATE TABLE emp (eno INT NOT NULL, name STRING, salary FLOAT) USING memory
CREATE INDEX byeno ON emp (eno)
INSERT INTO emp VALUES (1, 'ada', 100.0), (2, 'bob', 90.0)
BEGIN
UPDATE emp SET salary = salary + 10.0 WHERE eno = 2
SAVEPOINT sp
DELETE FROM emp WHERE eno = 1
ROLLBACK TO sp
COMMIT
SELECT eno, name, salary FROM emp ORDER BY eno
SELECT COUNT(*) FROM emp
`)
	if !strings.Contains(out, `1 | "ada" | 100`) {
		t.Fatalf("missing ada row:\n%s", out)
	}
	if !strings.Contains(out, `2 | "bob" | 100`) {
		t.Fatalf("bob raise missing:\n%s", out)
	}
	if !strings.Contains(out, "(2 rows") {
		t.Fatalf("row count missing:\n%s", out)
	}
	if !strings.Contains(out, "plan:") {
		t.Fatalf("plan missing:\n%s", out)
	}
}

func TestScriptContinuationLines(t *testing.T) {
	out := runScript(t, "CREATE TABLE t \\\n(id INT NOT NULL, \\\nv STRING) USING memory\nINSERT INTO t VALUES (1, 'x')\nSELECT * FROM t\n")
	if !strings.Contains(out, "(1 rows") {
		t.Fatalf("continuation failed:\n%s", out)
	}
}

func TestScriptErrorStopsBatchMode(t *testing.T) {
	db, _ := dmx.Open(dmx.Config{})
	defer db.Close()
	var out strings.Builder
	err := run(db.Env, db.NewSession(), strings.NewReader("NOT A STATEMENT\n"), &out, false)
	if err == nil {
		t.Fatal("batch mode should stop on error")
	}
}

func TestInteractiveModeContinuesAfterError(t *testing.T) {
	db, _ := dmx.Open(dmx.Config{})
	defer db.Close()
	var out strings.Builder
	script := "BROKEN\nCREATE TABLE t (id INT) USING memory\nSHOW TABLES\n"
	if err := run(db.Env, db.NewSession(), strings.NewReader(script), &out, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "error:") || !strings.Contains(out.String(), `"t"`) {
		t.Fatalf("interactive recovery failed:\n%s", out.String())
	}
}

func TestMetricsCommand(t *testing.T) {
	out := runScript(t, `
CREATE TABLE emp (eno INT NOT NULL, name STRING) USING heap
INSERT INTO emp VALUES (1, 'ada'), (2, 'bob')
SELECT * FROM emp
\metrics
\stat metrics
`)
	for _, want := range []string{`"storage_methods"`, `"heap"`, `"lock"`, `"wal"`, `"buffer"`, `"totals"`,
		`"dmx_lock_waits_total" | "counter" | "" | 0`, `"dmx_trace_sample_rate" | "gauge"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("\\metrics output missing %s:\n%s", want, out)
		}
	}
}

func TestUnknownCommandErrors(t *testing.T) {
	db, _ := dmx.Open(dmx.Config{})
	defer db.Close()
	var out strings.Builder
	if err := run(db.Env, db.NewSession(), strings.NewReader("\\bogus\n"), &out, false); err == nil {
		t.Fatal("unknown backslash command should fail in batch mode")
	}
}
