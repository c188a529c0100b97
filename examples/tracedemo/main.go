// Command tracedemo exercises the engine's observability surface end to
// end: it opens a fully-sampled database with a slow-span threshold, runs
// a small workload whose constraint attachment vetoes one insert, starts
// the debug HTTP server, and then reads its own /metrics, /traces,
// /healthz and /debug/pprof/heap endpoints — the same ones an operator
// would point a browser, a Prometheus scraper or `go tool pprof` at. It exits non-zero if any endpoint misbehaves,
// so `make trace-demo` doubles as a smoke test.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"dmx"
	"dmx/internal/expr"
)

func main() {
	db, err := dmx.Open(dmx.Config{
		TraceSample:   1,                    // trace every transaction
		SlowThreshold: 5 * time.Millisecond, // slow spans land in the event log
		SlowLog:       os.Stderr,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// A relation with an index and a check constraint, so traced
	// transactions show storage-method, WAL, and attachment spans.
	db.RegisterCheckPredicate("positive_salary",
		expr.Gt(expr.Field(2), expr.Const(dmx.Float(0))))
	must(db.Exec(
		`CREATE TABLE emp (eno INT NOT NULL, dno INT, salary FLOAT) USING heap`,
		`CREATE INDEX byeno ON emp (eno)`,
		`CREATE ATTACHMENT check ON emp WITH (name=paid, predicate=positive_salary)`,
	))
	for i := 0; i < 50; i++ {
		must(db.Exec(fmt.Sprintf(`INSERT INTO emp VALUES (%d, %d, %d.0)`, i, i%5, 100+i)))
	}
	// One vetoed insert: the check attachment's rejection is recorded as a
	// veto-tagged span inside this transaction's trace.
	if _, err := db.Exec(`INSERT INTO emp VALUES (999, 1, -5.0)`); err == nil {
		log.Fatal("expected the check constraint to veto salary=-5")
	}
	must(db.Exec(`SELECT salary FROM emp WHERE eno = 17`))

	addr, err := db.Env.ServeDebug("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("debug server on http://%s\n\n", addr)

	metrics := get(addr, "/metrics")
	fmt.Println("== /metrics (excerpt) ==")
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "dmx_sm_ops_total") ||
			strings.HasPrefix(line, "dmx_att_vetoes_total") ||
			strings.HasPrefix(line, "dmx_trace_") {
			fmt.Println(line)
		}
	}
	if !strings.Contains(metrics, "dmx_att_vetoes_total") {
		log.Fatal("metrics missing the attachment veto counter")
	}
	// Every subsystem declares its metrics on its snapshot struct; a
	// subsystem missing here has dropped out of the walk behind /metrics.
	for _, sub := range []string{"sm", "att", "lock", "wal", "buffer", "mvcc", "lsm", "txn", "plan", "part", "trace"} {
		if !strings.Contains(metrics, "# TYPE dmx_"+sub+"_") {
			log.Fatalf("metrics has no dmx_%s_ family", sub)
		}
	}

	traces := get(addr, "/traces?limit=1")
	var parsed struct {
		Traces []struct {
			Txn   uint64          `json:"txn"`
			State string          `json:"state"`
			Root  json.RawMessage `json:"root"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(traces), &parsed); err != nil || len(parsed.Traces) == 0 {
		log.Fatalf("bad /traces response (%v): %s", err, traces)
	}
	fmt.Printf("\n== /traces?limit=1: txn %d (%s) ==\n%s\n",
		parsed.Traces[0].Txn, parsed.Traces[0].State, indentJSON(parsed.Traces[0].Root))

	health := get(addr, "/healthz")
	fmt.Printf("\n== /healthz ==\n%s\n", health)
	if !strings.Contains(health, `"ok": true`) {
		log.Fatal("healthz reports unhealthy")
	}

	heap := get(addr, "/debug/pprof/heap?debug=1")
	if !strings.HasPrefix(heap, "heap profile:") {
		log.Fatalf("bad /debug/pprof/heap response: %.200s", heap)
	}
	fmt.Printf("\n== /debug/pprof/heap?debug=1 ==\n%s\n", heap[:strings.IndexByte(heap, '\n')])
}

func must(res *dmx.Result, err error) {
	if err != nil {
		log.Fatal(err)
	}
	_ = res
}

func get(addr, path string) string {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		log.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: %d\n%s", path, resp.StatusCode, body)
	}
	return string(body)
}

func indentJSON(raw json.RawMessage) string {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return string(raw)
	}
	out, _ := json.MarshalIndent(v, "", "  ")
	return string(out)
}
