package core_test

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"dmx/internal/core"
	_ "dmx/internal/sm/memsm"
	"dmx/internal/trace"
	"dmx/internal/types"
)

func debugEnv(t *testing.T) (*core.Env, string) {
	t.Helper()
	env := core.NewEnv(core.Config{TraceSample: 1})
	addr, err := env.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { env.Close() })
	return env, addr
}

func debugGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// runDebugWorkload runs one traced transaction so every endpoint has
// something to report.
func runDebugWorkload(t *testing.T, env *core.Env) {
	t.Helper()
	sch := types.MustSchema(types.Column{Name: "k", Kind: types.KindInt, NotNull: true})
	tx := env.Begin()
	if _, err := env.CreateRelation(tx, "t", sch, "memory", nil); err != nil {
		t.Fatal(err)
	}
	r, _ := env.OpenRelationByName("t")
	for i := 0; i < 10; i++ {
		if _, err := r.Insert(tx, types.Record{types.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDebugServerMetricsEndpoint(t *testing.T) {
	env, addr := debugEnv(t)
	runDebugWorkload(t, env)
	code, body := debugGet(t, addr, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{
		"# TYPE dmx_sm_ops_total counter",
		"# TYPE dmx_wal_appends_total counter",
		"# TYPE dmx_trace_sample_rate gauge",
		"dmx_trace_sample_rate 1",
		"dmx_trace_txns_started_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Every non-comment line must be a well-formed sample.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "dmx_") || len(strings.Fields(line)) < 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestDebugServerTracesEndpoint(t *testing.T) {
	env, addr := debugEnv(t)
	runDebugWorkload(t, env)
	code, body := debugGet(t, addr, "/traces")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var got struct {
		Stats  trace.Stats       `json:"stats"`
		Traces []trace.TraceData `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("traces response is not JSON: %v\n%s", err, body)
	}
	if len(got.Traces) == 0 || got.Stats.Started == 0 {
		t.Fatalf("no traces recorded: %s", body)
	}
	if got.Traces[0].Root.Name != "txn" {
		t.Errorf("root span = %q, want txn", got.Traces[0].Root.Name)
	}

	// min= filters; an impossible floor filters everything out.
	if _, body := debugGet(t, addr, "/traces?min=10h"); !strings.Contains(body, `"traces": []`) &&
		!strings.Contains(body, `"traces": null`) {
		t.Errorf("min=10h should filter all traces: %s", body)
	}
	if code, _ := debugGet(t, addr, "/traces?min=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad min duration: status %d, want 400", code)
	}
	if code, _ := debugGet(t, addr, "/traces?limit=x"); code != http.StatusBadRequest {
		t.Errorf("bad limit: status %d, want 400", code)
	}
	// A limit that parses but keeps nothing is a client error, not a
	// silently empty response; trailing garbage must not half-parse either.
	for _, q := range []string{"limit=0", "limit=-1", "limit=5x"} {
		if code, _ := debugGet(t, addr, "/traces?"+q); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, code)
		}
	}
	if code, _ := debugGet(t, addr, "/traces?limit=1"); code != http.StatusOK {
		t.Errorf("limit=1: status %d, want 200", code)
	}
}

func TestDebugServerStatUnknownView(t *testing.T) {
	_, addr := debugEnv(t)
	if code, _ := debugGet(t, addr, "/stat/nope"); code != http.StatusNotFound {
		t.Errorf("/stat/nope: status %d, want 404", code)
	}
	if code, _ := debugGet(t, addr, "/stat/"); code != http.StatusBadRequest {
		t.Errorf("/stat/: status %d, want 400", code)
	}
}

func TestDebugServerHealthz(t *testing.T) {
	env, addr := debugEnv(t)
	runDebugWorkload(t, env)
	code, body := debugGet(t, addr, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	var health struct {
		OK  bool `json:"ok"`
		WAL struct {
			OK bool `json:"ok"`
		} `json:"wal"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatal(err)
	}
	if !health.OK || !health.WAL.OK {
		t.Fatalf("unhealthy: %s", body)
	}
}

// The Go runtime's profiles ride on the same listener: a named profile
// through the index handler, and the index itself.
func TestDebugServerPprof(t *testing.T) {
	_, addr := debugEnv(t)
	if code, body := debugGet(t, addr, "/debug/pprof/heap?debug=1"); code != http.StatusOK || !strings.HasPrefix(body, "heap profile:") {
		t.Errorf("/debug/pprof/heap?debug=1: status %d, body %.80q", code, body)
	}
	if code, body := debugGet(t, addr, "/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: status %d, body %.80q", code, body)
	}
}

func TestDebugServerReplacedAndStopped(t *testing.T) {
	env := core.NewEnv(core.Config{})
	defer env.Close()
	addr1, err := env.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr2, err := env.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if got := env.DebugAddr(); got != addr2 {
		t.Errorf("DebugAddr = %q, want %q", got, addr2)
	}
	// The first server's listener is closed; new connections must fail.
	if conn, err := net.DialTimeout("tcp", addr1, time.Second); err == nil {
		conn.Close()
		t.Errorf("first debug server still accepting after replacement")
	}
	if err := env.Close(); err != nil {
		t.Fatal(err)
	}
	if conn, err := net.DialTimeout("tcp", addr2, time.Second); err == nil {
		conn.Close()
		t.Errorf("debug server still accepting after Env.Close")
	}
	if got := env.DebugAddr(); got != "" {
		t.Errorf("DebugAddr after Close = %q, want empty", got)
	}
	// Close and StopDebug are idempotent.
	if err := env.StopDebug(); err != nil {
		t.Errorf("second StopDebug: %v", err)
	}
}
