package plan

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"dmx/internal/obs"
	"dmx/internal/trace"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// OperatorStats counts one operator's work during the most recent
// execution of a bound plan: cursor calls, records produced, and wall
// time spent inside the operator (including its children). Outside a
// detailed trace the time is sampled: the first call and every 64th are
// timed, and TimeNanos is their time scaled by Calls over the timed
// calls. A detailed-traced operator times every call, so TimeNanos is
// its span's duration.
type OperatorStats struct {
	Name      string `json:"name"`
	Calls     int64  `json:"calls"`
	Rows      int64  `json:"rows"`
	TimeNanos int64  `json:"time_nanos"`
}

// track counts r as the execution's next operator: c, the operator's
// counting cursor, is set up over r and charges a fresh stats slot of the
// binding. Bound plans are goroutine-confined (like the transactions that
// run them), so plain counters suffice.
//
// In a detailed-traced transaction the operator additionally carries a
// span. Operator cursors interleave (a join's outer and inner sides
// alternate Next calls), so the span is detached from the stack and
// re-entered around each Next: dispatch spans and events recorded during
// the call (storage-method fetches, buffer misses, lock waits) nest under
// the operator that caused them, and the span's duration is the
// operator's cumulative in-cursor time, matching its ExecStats.
func (x *binding) track(tx *txn.Txn, name string, r Rows, c *countedRows) {
	st := &x.stats[x.nstats]
	x.nstats++
	*st = OperatorStats{Name: name}
	*c = countedRows{inner: r, st: st}
	if tr := tx.Trace(); tr.Detailed() {
		c.tr = tr
		c.span = tr.OpenChild("plan.op", name, "next")
	}
}

// ran is the most recent execution's operator counters.
func (b *Bound) ran() []OperatorStats {
	if b.last == nil {
		return nil
	}
	return b.last.stats[:b.last.nstats]
}

// Stats returns the per-operator counters recorded by the most recent
// Execute, in the order the operators were opened (join children before
// their parent). The slice is a copy.
func (b *Bound) Stats() []OperatorStats {
	return slices.Clone(b.ran())
}

// ExplainAnalyze renders the plan description followed by the
// per-operator counters of the most recent execution.
func (b *Bound) ExplainAnalyze() string {
	var sb strings.Builder
	sb.WriteString(b.explain)
	for _, st := range b.ran() {
		fmt.Fprintf(&sb, "\n  %s: calls=%d rows=%d time=%s",
			st.Name, st.Calls, st.Rows, time.Duration(st.TimeNanos))
	}
	return sb.String()
}

// timeSampleEvery is the stride of the calls an untraced operator times:
// the clock costs two reads per call, which a per-row operator would
// otherwise pay on every row.
const timeSampleEvery = 64

// countedRows wraps a cursor, charging each Next to an OperatorStats and
// (when traced) attributing the call to the operator's span.
type countedRows struct {
	inner  Rows
	st     *OperatorStats
	tr     *trace.TxnTrace
	span   *trace.Span
	closed bool
	timed  int64 // calls whose time was measured
	nanos  int64 // their total time
}

func (c *countedRows) Next() (types.Record, bool, error) {
	prev, start := c.enter()
	rec, ok, err := c.inner.Next()
	c.exit(prev, start, ok)
	return rec, ok, err
}

// enter starts a call; start is negative for a call that is not timed.
func (c *countedRows) enter() (prev *trace.Span, start time.Duration) {
	if c.tr == nil && c.st.Calls%timeSampleEvery != 0 {
		return nil, -1
	}
	return c.tr.Enter(c.span), obs.Clock()
}

func (c *countedRows) exit(prev *trace.Span, start time.Duration, ok bool) {
	c.st.Calls++
	if ok {
		c.st.Rows++
	}
	if start >= 0 {
		c.timed++
		c.nanos += (obs.Clock() - start).Nanoseconds()
	}
	if c.timed == c.st.Calls {
		c.st.TimeNanos = c.nanos
	} else {
		c.st.TimeNanos = c.nanos / c.timed * c.st.Calls
	}
	c.tr.Exit(prev)
}

// countedKeyedRows is countedRows over a keyed cursor.
type countedKeyedRows struct {
	countedRows
	keyed KeyedRows
}

func (c *countedKeyedRows) NextKeyed() (types.Key, types.Record, bool, error) {
	prev, start := c.enter()
	key, rec, ok, err := c.keyed.NextKeyed()
	c.exit(prev, start, ok)
	return key, rec, ok, err
}

func (c *countedRows) Close() error {
	err := c.inner.Close()
	if !c.closed {
		c.closed = true
		c.span.EndAggregate(time.Duration(c.st.TimeNanos), err)
	}
	return err
}
