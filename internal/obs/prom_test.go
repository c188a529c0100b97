package obs

import (
	"bufio"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var (
	helpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (-?[0-9.eE+-]+|\+Inf|-Inf|NaN)$`)
)

// validatePrometheus is a strict-enough text-exposition (0.0.4) checker:
// every line must be a HELP, TYPE, or sample line; each family must be
// typed before its samples; histograms must have non-decreasing buckets
// ending in +Inf with _count equal to the +Inf bucket per label set.
func validatePrometheus(t *testing.T, text string) {
	t.Helper()
	types := map[string]string{}     // family -> declared type
	samples := map[string][]string{} // metric name -> label bodies
	values := map[string]float64{}   // name{labels} -> value
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	n := 0
	for sc.Scan() {
		line := sc.Text()
		n++
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			if !helpRe.MatchString(line) {
				t.Fatalf("line %d: malformed HELP: %q", n, line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			m := typeRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed TYPE: %q", n, line)
			}
			if _, dup := types[m[1]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", n, m[1])
			}
			types[m[1]] = m[2]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment: %q", n, line)
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample: %q", n, line)
		}
		name, labels, valStr := m[1], m[2], m[len(m)-1]
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if typ, ok := types[strings.TrimSuffix(name, suffix)]; ok && typ == "histogram" {
				family = strings.TrimSuffix(name, suffix)
			}
		}
		if _, ok := types[family]; !ok {
			t.Fatalf("line %d: sample %q before its TYPE", n, name)
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", n, valStr, err)
		}
		samples[name] = append(samples[name], labels)
		values[name+labels] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// Histogram invariants, per label set.
	for family, typ := range types {
		if typ != "histogram" {
			continue
		}
		// Group bucket label bodies by their non-le labels.
		groups := map[string][]string{}
		for _, labels := range samples[family+"_bucket"] {
			base, le := splitLe(t, labels)
			groups[base] = append(groups[base], le)
		}
		for base, les := range groups {
			var prev float64
			infSeen := false
			var infVal float64
			for _, le := range les {
				v := values[family+"_bucket"+rejoinLe(base, le)]
				if v < prev {
					t.Fatalf("%s%s: bucket le=%q value %v decreased below %v", family, base, le, v, prev)
				}
				prev = v
				if le == "+Inf" {
					infSeen = true
					infVal = v
				}
			}
			if !infSeen {
				t.Fatalf("%s%s: no +Inf bucket", family, base)
			}
			countKey := family + "_count"
			if base != "{}" {
				countKey += base
			}
			if c, ok := values[countKey]; !ok || c != infVal {
				t.Fatalf("%s%s: _count %v != +Inf bucket %v (ok=%v)", family, base, c, infVal, ok)
			}
		}
	}
}

// splitLe separates a bucket sample's label body into the non-le labels
// (normalised, "{}" when none) and the le value.
func splitLe(t *testing.T, labels string) (base, le string) {
	t.Helper()
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var rest []string
	for _, part := range strings.Split(inner, ",") {
		if v, ok := strings.CutPrefix(part, `le="`); ok {
			le = strings.TrimSuffix(v, `"`)
			continue
		}
		rest = append(rest, part)
	}
	if le == "" {
		t.Fatalf("bucket sample without le label: %q", labels)
	}
	return "{" + strings.Join(rest, ",") + "}", le
}

// rejoinLe reconstructs the label body splitLe decomposed.
func rejoinLe(base, le string) string {
	inner := strings.TrimSuffix(strings.TrimPrefix(base, "{"), "}")
	if inner == "" {
		return `{le="` + le + `"}`
	}
	return "{" + inner + `,le="` + le + `"}`
}

func TestWritePrometheusValid(t *testing.T) {
	e := NewEngine()
	e.SM.Observe(0, OpInsert, 300*time.Nanosecond, false)
	e.SM.Observe(0, OpInsert, 2*time.Millisecond, true)
	e.SM.Observe(1, OpScan, time.Microsecond, false)
	e.Att.Observe(0, OpInsert, 50*time.Microsecond, true)
	e.AttVetoes[0].Inc()
	e.Lock.Requests.Add(10)
	e.Lock.Waits.Add(2)
	e.Lock.WaitTime.Observe(3 * time.Millisecond)
	e.Lock.Queue.Inc()
	e.WAL.Appends.Add(42)
	e.WAL.GroupCommits.Add(8)
	e.WAL.GroupBatches.Add(2)
	e.Buffer.Hits.Add(30)
	e.Buffer.Misses.Add(10)

	snap := e.Snapshot()
	snap.SM[0].Name = "heap"
	snap.Att[0].Name = `ref"int\idx` // label escaping must hold

	var b strings.Builder
	if err := WritePrometheus(&b, Families(snap)); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	validatePrometheus(t, text)

	for _, want := range []string{
		`dmx_sm_ops_total{id="0",ext="heap",op="insert"} 2`,
		`dmx_sm_op_errors_total{id="0",ext="heap",op="insert"} 1`,
		`dmx_att_vetoes_total{id="0",ext="ref\"int\\idx"} 1`,
		`dmx_lock_requests_total 10`,
		`dmx_lock_waiting 1`,
		`dmx_wal_commits_per_fsync 4`,
		`dmx_buffer_hit_ratio 0.75`,
		`dmx_lock_wait_seconds_count 1`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("missing line %q in exposition:\n%s", want, text)
		}
	}
}

// TestWritePrometheusLSMFamilies pins the LSM exposition: counters,
// gauges with their high-water twins, and the derived bloom skip ratio.
func TestWritePrometheusLSMFamilies(t *testing.T) {
	e := NewEngine()
	e.LSM.Flushes.Add(4)
	e.LSM.FlushedEntries.Add(64)
	e.LSM.Compactions.Add(2)
	e.LSM.CompactedRuns.Add(5)
	e.LSM.TombstonesDropped.Add(3)
	e.LSM.BloomProbes.Add(8)
	e.LSM.BloomSkips.Add(6)
	e.LSM.BloomFalsePositives.Add(1)
	e.LSM.MemtableBytes.Add(900)
	e.LSM.MemtableBytes.Add(-200)
	e.LSM.Runs.Add(3)
	e.LSM.Runs.Add(-1)

	snap := e.Snapshot()
	if snap.LSM.BloomSkipRatio != 0.75 {
		t.Fatalf("bloom skip ratio = %v, want 0.75", snap.LSM.BloomSkipRatio)
	}
	var b strings.Builder
	if err := WritePrometheus(&b, Families(snap)); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	validatePrometheus(t, text)
	for _, want := range []string{
		`dmx_lsm_flushes_total 4`,
		`dmx_lsm_flushed_entries_total 64`,
		`dmx_lsm_compactions_total 2`,
		`dmx_lsm_compacted_runs_total 5`,
		`dmx_lsm_tombstones_dropped_total 3`,
		`dmx_lsm_bloom_probes_total 8`,
		`dmx_lsm_bloom_skips_total 6`,
		`dmx_lsm_bloom_false_positives_total 1`,
		`dmx_lsm_memtable_bytes 700`,
		`dmx_lsm_memtable_bytes_max 900`,
		`dmx_lsm_runs 2`,
		`dmx_lsm_runs_max 3`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("missing line %q in exposition:\n%s", want, text)
		}
	}
}

func TestWritePrometheusEmptyEngine(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, Families(NewEngine().Snapshot())); err != nil {
		t.Fatal(err)
	}
	validatePrometheus(t, b.String())
}

type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, fmt.Errorf("sink closed")
	}
	f.after--
	return len(p), nil
}

func TestWritePrometheusPropagatesWriteError(t *testing.T) {
	if err := WritePrometheus(&failWriter{after: 3}, Families(NewEngine().Snapshot())); err == nil {
		t.Fatal("write error swallowed")
	}
}
