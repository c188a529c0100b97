package main

import (
	"encoding/json"
	"os"
	"time"
)

// layer names a boundary of the dispatch stack the benchmark can reach
// from outside: each is one public entry point (or the engine module
// behind it). Spans inside the engine are a later change.
type layer uint8

const (
	layOp         layer = iota // one whole benchmark op (root)
	layDDLExec                 // ddl.Session.Exec
	layDDLParse                // ddl.Parse
	layPlanBind                // plan.Planner.Plan
	layPlanExec                // plan.Bound.Execute + drain
	layRelOp                   // core.Relation.Insert/Update/Delete/Fetch/OpenScan/LookupAccess
	layAttRead                 // core.AccessPath.LookupByKey, called directly
	laySMRead                  // core.Relation.Storage() reads, called directly
	layCommit                  // txn.Txn.Commit (WAL force, 2PC rounds)
	layCheckpoint              // dmx.DB.Checkpoint
	numLayers
)

var layerNames = [numLayers]string{
	"bench.op", "ddl.exec", "ddl.parse", "plan.bind", "plan.exec",
	"core.relop", "att.read", "sm.read", "wal.commit", "core.checkpoint",
}

// span is one timed call: Trace is the op it belongs to, Parent the index
// (within the same op) of the span one rung up the ladder, -1 for the root.
type span struct {
	Trace  uint64 `json:"trace"`
	Layer  string `json:"layer"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type rawSpan struct {
	lay        layer
	parent     int8
	start, end int64
}

// maxKeptSpans bounds the spans a client keeps for the trace file; the
// per-layer sums cover every span regardless.
const maxKeptSpans = 1 << 16

// layerSum accumulates one layer's spans. Self time is only defined for
// spans whose children were also recorded (the lower rungs of the ladder
// ran for that op), so those are summed apart.
type layerSum struct {
	n, total        int64 // all spans
	withKids, selfT int64 // spans with children: count, and duration minus children
}

// tracer records spans for one client goroutine. A nil *tracer is the
// untraced run: begin, end and flush do nothing on it, so the measured
// loop pays one nil check per call.
type tracer struct {
	epoch time.Time
	op    uint64
	cur   [16]rawSpan // spans of the op in flight
	ncur  int
	kept  []span
	sums  [numLayers]layerSum
	// ladder is the time spent on rungs that repeat the op's work at a
	// lower entry point; it is not part of serving the op.
	ladder int64
}

func newTracer(epoch time.Time, client int) *tracer {
	return &tracer{epoch: epoch, op: uint64(client) << 48, kept: make([]span, 0, maxKeptSpans)}
}

// begin opens a span under parent (-1 for the op's root) and returns its
// index within the op.
func (t *tracer) begin(l layer, parent int) int {
	if t == nil {
		return 0
	}
	i := t.ncur
	t.cur[i] = rawSpan{lay: l, parent: int8(parent), start: int64(time.Since(t.epoch))}
	t.ncur++
	return i
}

func (t *tracer) end(i int) {
	if t != nil {
		t.cur[i].end = int64(time.Since(t.epoch))
	}
}

// endRung closes a span that repeated the op's work for attribution only.
func (t *tracer) endRung(i int) {
	t.end(i)
	t.ladder += t.cur[i].end - t.cur[i].start
}

// flush folds the finished op's spans into the layer sums.
func (t *tracer) flush() {
	if t == nil {
		return
	}
	var kids [16]int64
	var has [16]bool
	for i := 0; i < t.ncur; i++ {
		s := &t.cur[i]
		if s.parent >= 0 {
			kids[s.parent] += s.end - s.start
			has[s.parent] = true
		}
	}
	for i := 0; i < t.ncur; i++ {
		s := &t.cur[i]
		d := s.end - s.start
		sum := &t.sums[s.lay]
		sum.n++
		sum.total += d
		if has[i] {
			sum.withKids++
			sum.selfT += d - kids[i]
		}
		if len(t.kept) < cap(t.kept) {
			t.kept = append(t.kept, span{Trace: t.op, Layer: layerNames[s.lay],
				Parent: int(s.parent), Start: s.start, End: s.end})
		}
	}
	t.ncur = 0
	t.op++
}

// meanUS is the mean span duration of a layer in microseconds.
func (s layerSum) meanUS() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n) / 1e3
}

// selfUS is the mean self time (duration minus recorded children) over
// the spans that have children.
func (s layerSum) selfUS() float64 {
	if s.withKids == 0 {
		return 0
	}
	return float64(s.selfT) / float64(s.withKids) / 1e3
}

func writeTrace(path string, tracers []*tracer) error {
	var all []span
	for _, t := range tracers {
		all = append(all, t.kept...)
	}
	raw, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
