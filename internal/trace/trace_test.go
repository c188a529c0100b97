package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	tr := New(Config{Sample: 1})
	tx := tr.StartTxn(7)
	if tx == nil || !tx.Detailed() {
		t.Fatal("sample=1 must yield a detailed trace")
	}

	stmt := tx.StartSpan("stmt", "", "insert")
	stmt.SetNote("insert into parts ...")
	rel := tx.StartSpan("rel.insert", "parts", "insert")
	sm := tx.StartSpan("sm.insert", "heap", "insert")
	tx.Event("wal.append", "", "append", time.Now(), 123*time.Microsecond, nil)
	sm.End(nil)
	att := tx.StartSpan("att.insert", "refint", "insert")
	att.MarkVeto()
	att.End(errors.New("veto: dangling supplier"))
	rel.End(nil)
	stmt.End(nil)
	tx.Finish("committed")

	got := tr.Traces(0)
	if len(got) != 1 {
		t.Fatalf("ring: got %d traces, want 1", len(got))
	}
	d := got[0]
	if d.TxnID != 7 || d.State != "committed" || !d.Sampled {
		t.Fatalf("trace header: %+v", d)
	}
	if d.Root.Name != "txn" {
		t.Fatalf("root name %q", d.Root.Name)
	}
	if depth := d.Root.Depth(); depth < 4 {
		t.Fatalf("depth = %d, want >= 4", depth)
	}
	// txn -> stmt -> rel.insert -> {sm.insert -> wal.append, att.insert}
	st := d.Root.Children[0]
	if st.Name != "stmt" || st.Note == "" {
		t.Fatalf("stmt span: %+v", st)
	}
	r := st.Children[0]
	if r.Name != "rel.insert" || r.Ext != "parts" {
		t.Fatalf("rel span: %+v", r)
	}
	if len(r.Children) != 2 {
		t.Fatalf("rel children = %d, want 2", len(r.Children))
	}
	smd := r.Children[0]
	if smd.Name != "sm.insert" || smd.Ext != "heap" {
		t.Fatalf("sm span: %+v", smd)
	}
	if len(smd.Children) != 1 || smd.Children[0].Name != "wal.append" {
		t.Fatalf("wal event not nested under sm span: %+v", smd.Children)
	}
	attd := r.Children[1]
	if !attd.Veto || attd.Err == "" {
		t.Fatalf("att veto span not tagged: %+v", attd)
	}
	if d.Spans != 6 {
		t.Fatalf("span count = %d, want 6", d.Spans)
	}
}

func TestSamplingCadence(t *testing.T) {
	tr := New(Config{Sample: 0.25})
	detailed := 0
	for i := 0; i < 100; i++ {
		tx := tr.StartTxn(uint64(i))
		if tx.Detailed() {
			detailed++
		}
		tx.Finish("committed")
	}
	if detailed != 25 {
		t.Fatalf("1-in-4 sampling traced %d of 100", detailed)
	}
	if s := tr.Stats(); s.Sampled != 25 || s.Completed != 25 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestSampleOffIsInert(t *testing.T) {
	tr := New(Config{})
	if tr.Enabled() {
		t.Fatal("zero config must be disabled")
	}
	tx := tr.StartTxn(1)
	if tx != nil {
		t.Fatal("disabled tracer must return nil trace")
	}
	// The nil trace and its nil spans must be fully inert.
	s := tx.StartSpan("a", "", "")
	s.SetNote("x")
	s.MarkVeto()
	s.End(nil)
	tx.Event("e", "", "", time.Now(), time.Second, nil)
	prev := tx.Enter(s)
	tx.Exit(prev)
	tx.Finish("committed")
	if got := tr.Traces(0); len(got) != 0 {
		t.Fatalf("ring not empty: %d", len(got))
	}
}

func TestSlowOnlyTraceKept(t *testing.T) {
	var slow bytes.Buffer
	tr := New(Config{SlowThreshold: time.Nanosecond, SlowLog: &slow})
	tx := tr.StartTxn(9)
	if tx == nil {
		t.Fatal("slow threshold alone must still yield a root trace")
	}
	if tx.Detailed() {
		t.Fatal("unsampled trace must not be detailed")
	}
	if s := tx.StartSpan("stmt", "", ""); s != nil {
		t.Fatal("unsampled trace must not record child spans")
	}
	time.Sleep(time.Millisecond)
	tx.Finish("aborted")

	got := tr.Traces(0)
	if len(got) != 1 || !got[0].Slow || got[0].Sampled || got[0].State != "aborted" {
		t.Fatalf("slow trace: %+v", got)
	}
	var ev map[string]any
	if err := json.Unmarshal(slow.Bytes(), &ev); err != nil {
		t.Fatalf("slow log line not JSON: %v (%q)", err, slow.String())
	}
	if ev["kind"] != "txn" || ev["state"] != "aborted" {
		t.Fatalf("slow event: %+v", ev)
	}
}

func TestFastUnsampledTraceDropped(t *testing.T) {
	tr := New(Config{SlowThreshold: time.Hour})
	tx := tr.StartTxn(3)
	tx.Finish("committed")
	if got := tr.Traces(0); len(got) != 0 {
		t.Fatalf("fast unsampled trace must not reach the ring: %+v", got)
	}
}

func TestSlowSpanEvent(t *testing.T) {
	var slow bytes.Buffer
	tr := New(Config{Sample: 1, SlowThreshold: time.Nanosecond, SlowLog: &slow})
	tx := tr.StartTxn(4)
	s := tx.StartSpan("sm.scan", "btree", "scan")
	time.Sleep(time.Millisecond)
	s.End(nil)
	tx.Finish("committed")

	lines := strings.Split(strings.TrimSpace(slow.String()), "\n")
	// one span event + one txn event
	if len(lines) != 2 {
		t.Fatalf("slow log lines = %d, want 2: %q", len(lines), slow.String())
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev["kind"] != "span" || ev["span"] != "sm.scan" || ev["ext"] != "btree" {
		t.Fatalf("span event: %+v", ev)
	}
	if s := tr.Stats(); s.SlowSpans != 1 || s.SlowTxns != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestRingWrapAndMinFilter(t *testing.T) {
	tr := New(Config{Sample: 1})
	for i := 0; i < ringSize+6; i++ {
		tx := tr.StartTxn(uint64(i))
		tx.Finish("committed")
	}
	got := tr.Traces(0)
	if len(got) != ringSize {
		t.Fatalf("ring size: got %d, want %d", len(got), ringSize)
	}
	// Oldest-first: the six oldest are dropped, txns 6.. survive.
	for i, d := range got {
		if d.TxnID != uint64(6+i) {
			t.Fatalf("ring order at %d: txn %d, want %d", i, d.TxnID, 6+i)
		}
	}
	if got := tr.Traces(time.Hour); len(got) != 0 {
		t.Fatalf("min filter: %+v", got)
	}
}

func TestSpanCapTruncates(t *testing.T) {
	tr := New(Config{Sample: 1})
	tx := tr.StartTxn(1)
	for i := 0; i < MaxSpans+50; i++ {
		tx.Event("e", "", "", time.Now(), 0, nil)
	}
	tx.Finish("committed")
	got := tr.Traces(0)
	if len(got) != 1 || !got[0].Truncated {
		t.Fatalf("capped trace not marked truncated: %+v", got)
	}
	if got[0].Spans != MaxSpans {
		t.Fatalf("span count = %d, want %d", got[0].Spans, MaxSpans)
	}
}

func TestFinishClosesHalfBuiltTree(t *testing.T) {
	// An aborted/crashed transaction abandons its open span stack;
	// Finish must close it without panicking and fix the durations.
	tr := New(Config{Sample: 1})
	tx := tr.StartTxn(5)
	tx.StartSpan("stmt", "", "update")
	tx.StartSpan("rel.update", "parts", "update")
	tx.StartSpan("sm.update", "heap", "update")
	time.Sleep(time.Millisecond)
	tx.Finish("aborted") // three spans still open

	got := tr.Traces(0)
	if len(got) != 1 {
		t.Fatalf("ring: %+v", got)
	}
	d := got[0].Root
	for depth := 0; len(d.Children) > 0; depth++ {
		d = d.Children[0]
		if d.DurNanos <= 0 {
			t.Fatalf("abandoned span %q has zero duration", d.Name)
		}
	}
	// Finish again must be a no-op.
	tx.Finish("aborted")
	if got := tr.Traces(0); len(got) != 1 {
		t.Fatalf("double finish duplicated trace: %d", len(got))
	}
	// Late span use after Finish must be inert, not a panic.
	if s := tx.StartSpan("late", "", ""); s != nil {
		t.Fatal("StartSpan after Finish must return nil")
	}
	tx.Event("late", "", "", time.Now(), 0, nil)
}

func TestEnterExitReentrantSpans(t *testing.T) {
	// Plan operator cursors interleave: a join's outer and inner scans
	// alternate Next calls. Operators hold detached spans and Enter/Exit
	// them around each call so nested events attribute correctly.
	tr := New(Config{Sample: 1})
	tx := tr.StartTxn(2)
	op1 := tx.OpenChild("op.scan", "parts", "scan")
	op2 := tx.OpenChild("op.scan", "suppliers", "scan")

	prev := tx.Enter(op1)
	tx.Event("buffer.miss", "", "", time.Now(), time.Microsecond, nil)
	tx.Exit(prev)

	prev = tx.Enter(op2)
	tx.Event("buffer.miss", "", "", time.Now(), time.Microsecond, nil)
	tx.Exit(prev)

	op1.EndAggregate(5*time.Millisecond, nil)
	op2.EndAggregate(7*time.Millisecond, nil)
	tx.Finish("committed")

	d := tr.Traces(0)[0].Root
	if len(d.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(d.Children))
	}
	for i, c := range d.Children {
		if len(c.Children) != 1 || c.Children[0].Name != "buffer.miss" {
			t.Fatalf("operator %d events: %+v", i, c.Children)
		}
	}
	if d.Children[0].DurNanos != 5e6 || d.Children[1].DurNanos != 7e6 {
		t.Fatalf("aggregate durations: %+v", d.Children)
	}
}

func TestRuntimeReconfig(t *testing.T) {
	tr := New(Config{})
	if tr.StartTxn(1) != nil {
		t.Fatal("must start disabled")
	}
	tr.SetSampleRate(1)
	if tx := tr.StartTxn(2); tx == nil || !tx.Detailed() {
		t.Fatal("SetSampleRate(1) must enable detailed tracing")
	} else {
		tx.Finish("committed")
	}
	tr.SetSampleRate(0)
	tr.SetSlowThreshold(time.Minute)
	if tx := tr.StartTxn(3); tx == nil || tx.Detailed() {
		t.Fatal("slow-only mode must yield undetailed root traces")
	} else {
		tx.Finish("committed")
	}
	if got := tr.SampleRate(); got != 0 {
		t.Fatalf("SampleRate = %v", got)
	}
	tr.SetSampleRate(0.01)
	if got := tr.SampleRate(); got != 0.01 {
		t.Fatalf("SampleRate = %v, want 0.01", got)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() || tr.StartTxn(1) != nil || tr.Traces(0) != nil {
		t.Fatal("nil tracer must be inert")
	}
	tr.SetSampleRate(1)
	tr.SetSlowThreshold(time.Second)
	tr.SetSlowLog(nil)
	if tr.String() != "trace: off" {
		t.Fatalf("nil String: %q", tr.String())
	}
	_ = tr.Stats()
}

func TestConcurrentTxns(t *testing.T) {
	// Each trace is goroutine-confined but the tracer (sampling counter,
	// ring, slow log) is shared; run under -race.
	var slow bytes.Buffer
	tr := New(Config{Sample: 0.5, SlowThreshold: time.Nanosecond, SlowLog: &slow})
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for id := w; id < ringSize+6; id += workers {
				tx := tr.StartTxn(uint64(id))
				s := tx.StartSpan("stmt", "", "insert")
				tx.Event("wal.append", "", "append", time.Now(), time.Microsecond, nil)
				s.End(nil)
				tx.Finish("committed")
			}
		}(w)
	}
	wg.Wait()
	got := tr.Traces(0)
	if len(got) != ringSize {
		t.Fatalf("ring after concurrent load: %d, want %d (full)", len(got), ringSize)
	}
	// Six traces were dropped, so every kept one is distinct.
	seen := make(map[uint64]bool, len(got))
	for _, d := range got {
		if seen[d.TxnID] {
			t.Fatalf("txn %d kept twice", d.TxnID)
		}
		seen[d.TxnID] = true
	}
	for _, line := range strings.Split(strings.TrimSpace(slow.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("interleaved slow-log line: %v (%q)", err, line)
		}
	}
}

func TestTraceDataJSONRoundTrip(t *testing.T) {
	tr := New(Config{Sample: 1})
	tx := tr.StartTxn(11)
	s := tx.StartSpan("stmt", "", "delete")
	s.End(errors.New("boom"))
	tx.Finish("commit_failed")
	raw, err := json.Marshal(tr.Traces(0))
	if err != nil {
		t.Fatal(err)
	}
	var back []TraceData
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Root.Children[0].Err != "boom" {
		t.Fatalf("round trip: %+v", back)
	}
}
