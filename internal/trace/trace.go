// Package trace is the engine's request-scoped span tracer.
//
// The extension architecture makes a single generic operation fan out
// through procedure vectors into storage-method calls, attached-procedure
// side effects, log appends, lock waits, and buffer faults. The aggregate
// counters in internal/obs answer "what is the mean heap-insert latency";
// this package answers "where did *this* transaction's 40ms go": a span
// tree is built per transaction, with a child span opened at every
// dispatch boundary the transaction crosses.
//
// The design constraints mirror obs: recording must be safe on hot paths
// and effectively free when disabled.
//
//   - A transaction's trace belongs to the transaction's goroutine. A
//     detailed trace takes its mutex to change the tree; an undetailed one
//     never locks.
//   - Spans are recycled through a sync.Pool; a traced transaction
//     allocates only when its finished tree is materialised for the ring.
//   - Tracing is sampled (1-in-N transactions carry a detailed tree) and
//     always-on for slow transactions: every transaction gets a root span
//     when a slow threshold is set, so slow ones are caught even when the
//     sample missed them.
//   - A per-trace span cap bounds memory for huge transactions; truncated
//     traces say so instead of growing without bound.
//
// Completed traces land in a fixed-size ring buffer (served as JSON by
// the debug server's /traces endpoint) and any span exceeding the slow
// threshold emits a structured line to the slow-event log.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// MaxSpans caps the number of spans recorded per trace. A transaction
// that crosses more dispatch boundaries keeps executing untraced past
// the cap; the finished trace is marked truncated.
const MaxSpans = 512

// LockWaitFloor is the default duration below which a lock acquisition
// is considered uncontended and not worth a span (an uncontended grant is
// two mutex hops; a real wait involves the scheduler and is microseconds
// at minimum).
const LockWaitFloor = 10 * time.Microsecond

// Span is one timed region of a traced transaction: a statement, a
// dispatched storage-method or attachment call, a log force, a lock wait.
// Spans form a tree under the transaction's root span. A nil *Span is
// inert: every method is nil-receiver safe, so call sites need no
// "is tracing on" branches.
type Span struct {
	name  string
	ext   string // extension or resource tag (storage method, attachment, relation)
	op    string // generic-operation tag (insert, update, scan, commit, ...)
	note  string // free-form detail (statement text, veto reason)
	start time.Time
	dur   time.Duration
	err   string
	veto  bool

	children []*Span
	parent   *Span
	tr       *TxnTrace
}

var spanPool = sync.Pool{New: func() any { return new(Span) }}

func getSpan() *Span { return spanPool.Get().(*Span) }

// release returns s and its subtree to the pool.
func (s *Span) release() {
	for _, c := range s.children {
		c.release()
	}
	s.children = s.children[:0]
	*s = Span{children: s.children}
	spanPool.Put(s)
}

// SetNote attaches free-form detail to the span (e.g. statement text).
func (s *Span) SetNote(note string) {
	if s == nil {
		return
	}
	s.note = note
}

// MarkVeto tags the span as the attachment veto that rolled the
// modification back.
func (s *Span) MarkVeto() {
	if s == nil {
		return
	}
	s.veto = true
}

// End closes the span: its duration is fixed and the enclosing span
// becomes current again. err (may be nil) is recorded on the span.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	s.dur = time.Since(s.start)
	if err != nil {
		s.err = err.Error()
	}
	s.tr.end(s)
}

// EndAggregate closes a span whose duration was accumulated externally
// (plan operators charge only the time spent inside their cursor, not
// the wall time the cursor stayed open).
func (s *Span) EndAggregate(d time.Duration, err error) {
	if s == nil {
		return
	}
	s.dur = d
	if err != nil {
		s.err = err.Error()
	}
	s.tr.end(s)
}

// end makes s's parent current again if s is, then reports s if slow.
func (t *TxnTrace) end(s *Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur == s {
		t.cur = s.parent
	}
	t.spanDone(s)
}

// TxnTrace is one transaction's trace under construction. The
// transaction's goroutine opens and enters spans and adds events; every
// change to the tree of a detailed trace holds mu. A nil *TxnTrace is inert
// (the common case: tracing off or the transaction not sampled).
type TxnTrace struct {
	mu       sync.Mutex
	tracer   *Tracer
	txnID    uint64
	root     *Span
	cur      *Span
	nspans   int
	detailed bool // sampled: child spans are recorded
	finished bool
	trunc    bool
}

// Detailed reports whether child spans are being recorded, letting hot
// call sites skip even the pair of time.Now calls when they are not.
func (t *TxnTrace) Detailed() bool { return t != nil && t.detailed }

// StartSpan opens a child of the current span and makes it current.
// Returns nil (inert) when tracing is off, the transaction was not
// sampled, or the trace hit its span cap.
func (t *TxnTrace) StartSpan(name, ext, op string) *Span {
	return t.open(name, ext, op, true)
}

// OpenChild opens a child of the current span WITHOUT making it current.
// Plan operators use it: their cursors interleave, so they re-enter their
// span around each Next call (Enter/Exit) instead of holding the stack.
func (t *TxnTrace) OpenChild(name, ext, op string) *Span {
	return t.open(name, ext, op, false)
}

func (t *TxnTrace) open(name, ext, op string, current bool) *Span {
	if !t.Detailed() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.add(name, ext, op)
	if s != nil {
		s.start = time.Now()
		if current {
			t.cur = s
		}
	}
	return s
}

// add appends a new span to the current one; t.mu is held. It returns nil
// once the trace is finished or full.
func (t *TxnTrace) add(name, ext, op string) *Span {
	if t.finished {
		return nil
	}
	if t.nspans >= MaxSpans {
		t.trunc = true
		return nil
	}
	t.nspans++
	s := getSpan()
	s.name, s.ext, s.op = name, ext, op
	s.tr = t
	s.parent = t.cur
	t.cur.children = append(t.cur.children, s)
	return s
}

// Enter makes s the current span and returns the previous current span,
// which the caller must restore with Exit. Used by re-entrant regions
// (plan operator cursors) so spans created during the region nest under s.
func (t *TxnTrace) Enter(s *Span) *Span {
	if t == nil || s == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished {
		return nil
	}
	prev := t.cur
	t.cur = s
	return prev
}

// Exit restores the current span saved by Enter.
func (t *TxnTrace) Exit(prev *Span) {
	if t == nil || prev == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.finished {
		t.cur = prev
	}
}

// Event attaches an already-measured child span to the current span: the
// caller timed the region itself (lock waits, buffer faults, log appends)
// and reports start and duration retrospectively.
func (t *TxnTrace) Event(name, ext, op string, start time.Time, d time.Duration, err error) {
	if !t.Detailed() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.add(name, ext, op)
	if s == nil {
		return
	}
	s.start, s.dur = start, d
	if err != nil {
		s.err = err.Error()
	}
	t.spanDone(s)
}

// spanDone runs slow-span detection for a closed span.
func (t *TxnTrace) spanDone(s *Span) {
	if t.tracer == nil {
		return
	}
	if th := t.tracer.slowThreshold(); th > 0 && s.dur >= th && s != t.root {
		t.tracer.slowEvent(t.txnID, s)
	}
}

// Finish closes the trace: every span still open (an aborted or crashed
// transaction leaves a half-built tree) is ended at "now", the tree is
// materialised and pushed to the tracer's ring, slow transactions are
// reported to the slow-event log, and the spans are recycled. Finish is
// idempotent and nil-safe; the TxnTrace must not be used afterwards.
func (t *TxnTrace) Finish(state string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished {
		return
	}
	t.finished = true
	// Close the open stack, innermost first. A span abandoned by a crash
	// or veto unwind gets its duration fixed here rather than staying 0.
	for s := t.cur; s != nil; s = s.parent {
		if s.dur == 0 && !s.start.IsZero() {
			s.dur = time.Since(s.start)
		}
	}
	t.cur = nil
	if t.tracer != nil {
		t.tracer.finish(t, state)
	}
	if t.root != nil {
		t.root.release()
		t.root = nil
	}
}

// SpanData is the materialised (JSON) form of a span.
type SpanData struct {
	Name     string     `json:"name"`
	Ext      string     `json:"ext,omitempty"`
	Op       string     `json:"op,omitempty"`
	Note     string     `json:"note,omitempty"`
	Start    time.Time  `json:"start"`
	Dur      string     `json:"dur"`
	DurNanos int64      `json:"dur_ns"`
	Err      string     `json:"err,omitempty"`
	Veto     bool       `json:"veto,omitempty"`
	Children []SpanData `json:"children,omitempty"`
}

// Depth returns the depth of the span tree rooted at d (a leaf is 1).
func (d SpanData) Depth() int {
	max := 0
	for _, c := range d.Children {
		if cd := c.Depth(); cd > max {
			max = cd
		}
	}
	return max + 1
}

// TraceData is one completed transaction trace as served by /traces.
type TraceData struct {
	TxnID     uint64   `json:"txn"`
	State     string   `json:"state"` // committed | aborted | commit_failed
	Slow      bool     `json:"slow,omitempty"`
	Sampled   bool     `json:"sampled"` // detailed spans recorded
	Truncated bool     `json:"truncated,omitempty"`
	Spans     int      `json:"spans"`
	Root      SpanData `json:"root"`
}

func materialise(s *Span) SpanData {
	d := SpanData{
		Name:     s.name,
		Ext:      s.ext,
		Op:       s.op,
		Note:     s.note,
		Start:    s.start,
		Dur:      s.dur.String(),
		DurNanos: s.dur.Nanoseconds(),
		Err:      s.err,
		Veto:     s.veto,
	}
	if len(s.children) > 0 {
		d.Children = make([]SpanData, len(s.children))
		for i, c := range s.children {
			d.Children[i] = materialise(c)
		}
	}
	return d
}

// Config assembles a Tracer. Sample and SlowThreshold may also be changed
// at runtime (the debug CLI's \trace verb does).
type Config struct {
	// Sample is the fraction of transactions that carry a detailed span
	// tree (0 disables detailed tracing, 1 traces every transaction).
	Sample float64
	// SlowThreshold makes tracing always-on at transaction granularity:
	// every transaction gets a root span, and any transaction (or span of
	// a sampled transaction) at least this slow is reported to the
	// slow-event log and kept in the ring. 0 disables slow detection.
	SlowThreshold time.Duration
	// SlowLog receives one JSON line per slow event (nil: slow events are
	// counted and ring-kept but not written anywhere).
	SlowLog io.Writer
}

// Stats is the tracer's activity, tagged like an obs.Snapshot section so
// obs.Families exposes it beside the engine's metrics.
type Stats struct {
	SampleRate float64 `json:"sample_rate" metric:"trace_sample_rate" help:"fraction of transactions carrying a detailed span trace"`
	Started    int64   `json:"started" metric:"trace_txns_started_total" help:"transactions given a trace"`
	Sampled    int64   `json:"sampled" metric:"trace_txns_sampled_total" help:"transactions with detailed span trees"`
	Completed  int64   `json:"completed" metric:"trace_txns_completed_total" help:"traces pushed to the completed-trace ring"`
	SlowSpans  int64   `json:"slow_spans" metric:"trace_slow_spans_total" help:"spans that exceeded the slow threshold"`
	SlowTxns   int64   `json:"slow_txns" metric:"trace_slow_txns_total" help:"transactions that exceeded the slow threshold"`
}

// Tracer owns sampling, the completed-trace ring, and the slow-event log.
// One Tracer serves one Env; all methods are safe for concurrent use and
// nil-receiver safe.
type Tracer struct {
	sampleEvery   atomic.Int64 // 0 = off, N = 1-in-N transactions detailed
	slowNanos     atomic.Int64
	sampleCounter atomic.Int64

	started   atomic.Int64
	sampled   atomic.Int64
	completed atomic.Int64
	slowSpans atomic.Int64
	slowTxns  atomic.Int64

	mu      sync.Mutex
	ring    []TraceData
	next    int
	full    bool
	slowLog io.Writer
}

// ringSize is the completed-trace ring capacity: the most recent ringSize
// kept traces are served, older ones are dropped.
const ringSize = 256

// New returns a tracer over cfg.
func New(cfg Config) *Tracer {
	tr := &Tracer{ring: make([]TraceData, ringSize), slowLog: cfg.SlowLog}
	tr.SetSampleRate(cfg.Sample)
	tr.SetSlowThreshold(cfg.SlowThreshold)
	return tr
}

// SetSampleRate changes the detailed-tracing sample fraction at runtime.
func (tr *Tracer) SetSampleRate(f float64) {
	if tr == nil {
		return
	}
	switch {
	case f <= 0:
		tr.sampleEvery.Store(0)
	case f >= 1:
		tr.sampleEvery.Store(1)
	default:
		tr.sampleEvery.Store(int64(1/f + 0.5))
	}
}

// SampleRate returns the current sample fraction.
func (tr *Tracer) SampleRate() float64 {
	if tr == nil {
		return 0
	}
	n := tr.sampleEvery.Load()
	if n == 0 {
		return 0
	}
	return 1 / float64(n)
}

// SetSlowThreshold changes the slow-span threshold at runtime.
func (tr *Tracer) SetSlowThreshold(d time.Duration) {
	if tr == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	tr.slowNanos.Store(d.Nanoseconds())
}

func (tr *Tracer) slowThreshold() time.Duration {
	if tr == nil {
		return 0
	}
	return time.Duration(tr.slowNanos.Load())
}

// SlowThreshold returns the current slow-span threshold.
func (tr *Tracer) SlowThreshold() time.Duration { return tr.slowThreshold() }

// Enabled reports whether StartTxn would return a live trace.
func (tr *Tracer) Enabled() bool {
	return tr != nil && (tr.sampleEvery.Load() > 0 || tr.slowNanos.Load() > 0)
}

// StartTxn begins tracing a transaction. It returns nil — an inert trace —
// when tracing is entirely off. The trace is detailed (child spans are
// recorded) for 1-in-N transactions per the sample rate; otherwise only
// the root span exists, enough for always-on slow-transaction detection.
func (tr *Tracer) StartTxn(txnID uint64) *TxnTrace {
	if tr == nil {
		return nil
	}
	every := tr.sampleEvery.Load()
	slow := tr.slowNanos.Load() > 0
	detailed := every > 0 && tr.sampleCounter.Add(1)%every == 0
	if !detailed && !slow {
		return nil
	}
	tr.started.Add(1)
	if detailed {
		tr.sampled.Add(1)
	}
	root := getSpan()
	root.name, root.op = "txn", ""
	root.start = time.Now()
	t := &TxnTrace{tracer: tr, txnID: txnID, root: root, cur: root, nspans: 1, detailed: detailed}
	root.tr = t
	return t
}

// finish materialises a finished trace into the ring.
func (tr *Tracer) finish(t *TxnTrace, state string) {
	root := t.root
	root.dur = time.Since(root.start)
	root.err = ""
	th := tr.slowThreshold()
	isSlow := th > 0 && root.dur >= th
	if isSlow {
		tr.slowTxns.Add(1)
		tr.slowEventTxn(t, state, root)
	}
	// Undetailed traces are ring-worthy only when slow: an empty root span
	// for every fast transaction would just wash the ring out.
	if !t.detailed && !isSlow {
		return
	}
	data := TraceData{
		TxnID:     t.txnID,
		State:     state,
		Slow:      isSlow,
		Sampled:   t.detailed,
		Truncated: t.trunc,
		Spans:     t.nspans,
		Root:      materialise(root),
	}
	tr.completed.Add(1)
	tr.mu.Lock()
	tr.ring[tr.next] = data
	tr.next++
	if tr.next == len(tr.ring) {
		tr.next, tr.full = 0, true
	}
	tr.mu.Unlock()
}

// slowEvent reports one slow span (of a sampled transaction).
func (tr *Tracer) slowEvent(txnID uint64, s *Span) {
	tr.slowSpans.Add(1)
	tr.writeSlow(map[string]any{
		"ts":    time.Now().Format(time.RFC3339Nano),
		"kind":  "span",
		"txn":   txnID,
		"span":  s.name,
		"ext":   s.ext,
		"op":    s.op,
		"dur":   s.dur.String(),
		"ns":    s.dur.Nanoseconds(),
		"err":   s.err,
		"veto":  s.veto,
		"note":  s.note,
		"start": s.start.Format(time.RFC3339Nano),
	})
}

// slowEventTxn reports a slow transaction (always-on path).
func (tr *Tracer) slowEventTxn(t *TxnTrace, state string, root *Span) {
	tr.writeSlow(map[string]any{
		"ts":      time.Now().Format(time.RFC3339Nano),
		"kind":    "txn",
		"txn":     t.txnID,
		"state":   state,
		"dur":     root.dur.String(),
		"ns":      root.dur.Nanoseconds(),
		"spans":   t.nspans,
		"sampled": t.detailed,
	})
}

func (tr *Tracer) writeSlow(ev map[string]any) {
	tr.mu.Lock()
	w := tr.slowLog
	tr.mu.Unlock()
	if w == nil {
		return
	}
	line, err := json.Marshal(ev)
	if err != nil {
		return
	}
	line = append(line, '\n')
	tr.mu.Lock()
	w.Write(line)
	tr.mu.Unlock()
}

// SetSlowLog redirects the slow-event log at runtime.
func (tr *Tracer) SetSlowLog(w io.Writer) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.slowLog = w
	tr.mu.Unlock()
}

// Traces returns the ring's completed traces, oldest first, keeping only
// those whose root duration is at least min.
func (tr *Tracer) Traces(min time.Duration) []TraceData {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []TraceData
	emit := func(d TraceData) {
		if d.State == "" {
			return
		}
		if min > 0 && d.Root.DurNanos < min.Nanoseconds() {
			return
		}
		out = append(out, d)
	}
	if tr.full {
		for i := tr.next; i < len(tr.ring); i++ {
			emit(tr.ring[i])
		}
	}
	for i := 0; i < tr.next; i++ {
		emit(tr.ring[i])
	}
	return out
}

// Stats returns cumulative tracer counters.
func (tr *Tracer) Stats() Stats {
	if tr == nil {
		return Stats{}
	}
	return Stats{
		SampleRate: tr.SampleRate(),
		Started:    tr.started.Load(),
		Sampled:    tr.sampled.Load(),
		Completed:  tr.completed.Load(),
		SlowSpans:  tr.slowSpans.Load(),
		SlowTxns:   tr.slowTxns.Load(),
	}
}

// String renders a one-line tracer summary.
func (tr *Tracer) String() string {
	if tr == nil {
		return "trace: off"
	}
	s := tr.Stats()
	return fmt.Sprintf("trace: sample=%.4g slow>%s started=%d sampled=%d completed=%d slow_spans=%d slow_txns=%d",
		s.SampleRate, tr.SlowThreshold(), s.Started, s.Sampled, s.Completed, s.SlowSpans, s.SlowTxns)
}
