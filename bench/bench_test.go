package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// smokeOpts runs a workload at 1/200 scale for a fraction of a second.
func smokeOpts(t *testing.T, trace bool) options {
	return options{seed: 1987, seconds: 0.25, scale: 1.0 / 200, trace: trace, scratch: t.TempDir()}
}

// TestSmoke runs every workload, untraced and traced, with its
// correctness checks on: no op may fail, every metric the mode promises
// must be reported, and no goroutine or scratch file may be left behind.
func TestSmoke(t *testing.T) {
	before := liveGoroutines()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			opts := smokeOpts(t, trace)
			res, err := runWorkload(w, opts)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d",
					w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q, want %q", w.name, trace, d.name, m.Unit, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.name, m.Value)
				}
			}
			if left, _ := os.ReadDir(opts.scratch); len(left) != 0 {
				t.Errorf("%s trace=%v: scratch directory not cleaned: %d entries", w.name, trace, len(left))
			}
		}
	}
	// Background compaction and group-commit goroutines end with their
	// work; give them a moment before counting.
	deadline := time.Now().Add(2 * time.Second)
	for liveGoroutines() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := liveGoroutines(); n > before {
		t.Errorf("%d goroutines still running, %d before", n, before)
	}
}

// liveGoroutines counts goroutines, leaving out the one kind the
// benchmark cannot stop from outside: the partitioned storage method
// never closes its shard connections, so each foreign server keeps one
// Serve goroutine per shard blocked in a read until the process exits.
func liveGoroutines() int {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		return -1
	}
	n := 0
	_, stacks, _ := strings.Cut(buf.String(), "\n") // drop the "goroutine profile: total N" line
	for _, group := range strings.Split(stacks, "\n\n") {
		var count int
		if _, err := fmt.Sscanf(group, "%d @", &count); err != nil {
			continue
		}
		if !strings.Contains(group, "internal/remote.(*Server).Serve") {
			n += count
		}
	}
	return n
}

// TestBypassedLayersAreZero checks the predictions that are exact: a
// workload that bypasses a layer reports a measured zero for it.
func TestBypassedLayersAreZero(t *testing.T) {
	zero := map[string][]string{
		"oltp-sql":       {"remote.msgs_per_op", "lsm.flushes", "wal.fsyncs_per_commit"},
		"commit-durable": {"remote.msgs_per_op", "lsm.flushes", "ddl.parse_us", "plan.bind_us"},
		"scan-filter": {"remote.msgs_per_op", "lsm.flushes", "ddl.parse_us", "lock.requests_per_op",
			"wal.appends_per_op", "att.calls_per_write"},
		"ingest-lsm": {"remote.msgs_per_op", "ddl.parse_us", "plan.bind_us", "sm.heap.op_us", "core.att_calls_per_op"},
		"shard-2pc":  {"lsm.flushes", "ddl.parse_us", "plan.bind_us", "sm.heap.op_us", "core.att_calls_per_op"},
	}
	nonzero := map[string][]string{
		"oltp-sql":       {"ddl.parse_us", "ddl.self_us", "plan.bind_us", "att.notify_us_per_write", "sm.heap.op_us"},
		"commit-durable": {"wal.commit_us", "wal.fsyncs_per_commit", "recover_s", "core.checkpoint_ms"},
		"scan-filter":    {"plan.bind_us", "sm.scan_ns_per_row", "sm.heap.op_us", "rows_per_s"},
		"ingest-lsm":     {"lsm.flushes", "sm.append.op_us", "lsm.live_bytes_per_user_byte"},
		"shard-2pc":      {"remote.msgs_per_op", "part.prepares_per_commit", "sm.part.op_us"},
	}
	for _, w := range workloads {
		opts := smokeOpts(t, true)
		opts.seconds = 0.5
		res, err := runWorkload(w, opts)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, name := range zero[w.name] {
			if v := res.Metrics[name].Value; v != 0 {
				t.Errorf("%s: %s = %v, want a measured zero", w.name, name, v)
			}
		}
		for _, name := range nonzero[w.name] {
			if v := res.Metrics[name].Value; v <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, v)
			}
		}
	}
}

// TestInputHashFollowsSeed: the same seed gives the same generated op
// stream and a different seed a different one.
func TestInputHashFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		cfg := config{seed: 1987, scale: 1.0 / 200}
		a, b := inputHash(w, cfg), inputHash(w, cfg)
		if a != b {
			t.Errorf("%s: same seed, different hashes %s / %s", w.name, a, b)
		}
		cfg.seed = 1988
		if c := inputHash(w, cfg); c == a {
			t.Errorf("%s: seeds 1987 and 1988 hash alike (%s)", w.name, a)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the code's metric and
// workload tables equal.
func TestBenchmarkJSONMatches(t *testing.T) {
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, code %q / %q",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		if w.clients > 2 {
			t.Errorf("%s: %d clients exceed the reference box's two cores", w.name, w.clients)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := bj.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, code %+v", i, got, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := bj.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, code %+v", i, got, d)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h hist
	for i := int64(1); i <= 100000; i++ {
		h.record(i * 10)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		want := q * 1e6
		if got := h.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("quantile(%v) = %v, want within 1%% of %v", q, got, want)
		}
	}
	for _, ns := range []int64{0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<41 - 1, 1 << 50} {
		i := histIndex(ns)
		if i < 0 || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of range", ns, i)
		}
		if lo, w := histBounds(i); ns < 1<<41 && (float64(ns) < lo || float64(ns) >= lo+w) {
			t.Errorf("histIndex(%d) = %d with bounds [%v, %v)", ns, i, lo, lo+w)
		}
	}
}

// TestCompareVerdicts drives -compare over synthetic sets of runs.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// set writes one result file per value and returns the comma list.
	set := func(name string, correct bool, ops ...float64) string {
		var paths []string
		for i, v := range ops {
			w := workloadResult{Name: "w"}
			w.Correct = correct
			w.Metrics = map[string]metricValue{"ops_per_s": {Value: v, Unit: "1/s"}}
			paths = append(paths, write(fmt.Sprintf("%s-%d.json", name, i), resultFile{Workloads: []workloadResult{w}}))
		}
		return strings.Join(paths, ",")
	}
	bench := write("BENCHMARK.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.10}}})
	base := set("a", true, 100, 101, 99, 100, 102)
	cases := []struct {
		name    string
		b       string
		verdict string
		code    int
	}{
		{"same", set("same", true, 97, 98, 96, 97, 99), "ok", 0},
		{"single", set("single", true, 95), "ok", 0},
		{"slower", set("slower", true, 80, 81, 79, 80, 82), "worse", 1},
		{"noisy", set("noisy", true, 60, 100, 80, 120, 70), "unresolved", 0},
		{"failed", set("failed", false, 100, 100, 100, 100), "worse", 1},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		code := compareFiles(base, c.b, bench, &out, &errb)
		if code != c.code || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: exit %d, output %q; want exit %d and verdict %q", c.name, code, out.String(), c.code, c.verdict)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got < 1.0 || got > 1.01 {
		// statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25]
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}
