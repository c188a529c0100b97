package plan

// Intra-query parallel execution: partitioned parallel scans behind an
// exchange operator, and the partitioned hash join. The shape follows the
// partitioned-parallel operator model — the storage method splits its
// record-key space (core.RangePartitioner), each partition is driven by a
// worker goroutine with its own cursor, and an exchange merges the worker
// streams back into the single-threaded plan above.
//
// Concurrency rules: scans are OPENED in the planning goroutine (lock
// acquisition, authorization, and trace attribution are goroutine-confined
// there), then each scan is driven by exactly one worker. Workers never
// touch the transaction, the trace, or shared planner state — they count
// into their own OperatorStats slot and the lock-free obs counters, and
// the exchange's Close (cancel, then WaitGroup) is the barrier that makes
// those counters readable.

import (
	"fmt"
	"sync"
	"time"

	"dmx/internal/core"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// exchItem is one unit on a worker→exchange channel.
type exchItem struct {
	rec types.Record
	err error
	eof bool
}

// workerChanBuf decouples workers from the consumer.
const workerChanBuf = 64

// partitionRanges clips the partitioner's split keys to [start, end) and
// returns the per-worker scan ranges (nil = unbounded side). Empty ranges
// are dropped, so the result may be shorter than requested.
func partitionRanges(bounds []types.Key, start, end types.Key) [][2]types.Key {
	cuts := make([]types.Key, 0, len(bounds)+2)
	cuts = append(cuts, start)
	for _, b := range bounds {
		if start != nil && b.Compare(start) <= 0 {
			continue
		}
		if end != nil && b.Compare(end) >= 0 {
			continue
		}
		cuts = append(cuts, b)
	}
	cuts = append(cuts, end)
	out := make([][2]types.Key, 0, len(cuts)-1)
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if lo != nil && hi != nil && lo.Compare(hi) >= 0 {
			continue
		}
		out = append(out, [2]types.Key{lo, hi})
	}
	return out
}

// openParallelScan opens the partitioned parallel scan for a storage-method
// access: one scan per partition, one worker per scan, merged by an
// exchange. ordered preserves record-key order by draining the (key-ordered)
// partitions sequentially. Falls back to a single worker when the store
// cannot split the range.
func (p *Planner) openParallelScan(tx *txn.Txn, b *Bound, a *access, fields []int, degree int) (Rows, error) {
	rel, err := p.env.OpenRelation(a.rd)
	if err != nil {
		return nil, err
	}
	var bounds []types.Key
	if part, ok := rel.Storage().(core.RangePartitioner); ok && degree > 1 {
		bounds = part.PartitionBounds(degree)
	}
	ranges := partitionRanges(bounds, a.start, a.end)
	if len(ranges) == 0 {
		ranges = [][2]types.Key{{a.start, a.end}}
	}

	ex := &exchangeRows{
		planner: p,
		cancel:  make(chan struct{}),
		ordered: len(b.query.OrderBy) > 0 && a.estimate.Ordered,
	}
	// The exchange subscribes its shutdown BEFORE the partition scans
	// subscribe theirs: transaction-end teardown then stops the workers
	// first and the (idempotent) scan closers run after, so no worker is
	// left driving a closed cursor.
	if err := tx.Subscribe(txn.EventEnd, func(*txn.Txn, string) error {
		return ex.Close()
	}); err != nil {
		return nil, err
	}

	opts := core.ScanOptions{Filter: a.pushdown, Fields: fields}
	for _, rg := range ranges {
		o := opts
		o.Start, o.End = rg[0], rg[1]
		scan, err := rel.OpenScan(tx, o)
		if err != nil {
			ex.Close()
			return nil, err
		}
		ex.scans = append(ex.scans, scan)
	}
	start := time.Now()
	ex.start(b, "pscan.worker")
	p.env.Obs.Plan.ParallelScans.Inc()
	tx.Trace().Event("plan.parallel", "plan", fmt.Sprintf("scan workers=%d", len(ex.scans)), start, time.Since(start), nil)
	name := fmt.Sprintf("pscan(%s, workers=%d)", a.rd.Name, len(ex.scans))
	return b.track(tx, name, ex), nil
}

// exchangeRows merges N worker-driven partition scans into one cursor.
type exchangeRows struct {
	planner *Planner
	cancel  chan struct{}
	wg      sync.WaitGroup
	scans   []core.Scan
	ordered bool
	closed  bool

	// Unordered mode: one shared channel, live counts running workers.
	ch   chan exchItem
	live int

	// Ordered mode: per-worker channels drained in partition (key) order.
	chans []chan exchItem
	cur   int
}

// start launches one worker per scan. Each worker gets its own
// OperatorStats slot (registered now, in the planning goroutine, so
// b.stats is never appended concurrently); the slot's counters are written
// only by its worker and read only after the exchange's WaitGroup barrier.
func (ex *exchangeRows) start(b *Bound, label string) {
	n := len(ex.scans)
	if ex.ordered {
		ex.chans = make([]chan exchItem, n)
	} else {
		ex.ch = make(chan exchItem, n*workerChanBuf)
		ex.live = n
	}
	obsEng := ex.planner.env.Obs
	for i, sc := range ex.scans {
		st := &OperatorStats{Name: fmt.Sprintf("%s[%d]", label, i)}
		b.stats = append(b.stats, st)
		ch := ex.ch
		if ex.ordered {
			ch = make(chan exchItem, workerChanBuf)
			ex.chans[i] = ch
		}
		ex.wg.Add(1)
		obsEng.Plan.Workers.Inc()
		go func(sc core.Scan, ch chan exchItem, st *OperatorStats) {
			defer ex.wg.Done()
			defer obsEng.Plan.Workers.Dec()
			for {
				select {
				case <-ex.cancel:
					return
				default:
				}
				t0 := time.Now()
				_, rec, ok, err := sc.Next()
				st.Calls++
				st.TimeNanos += time.Since(t0).Nanoseconds()
				if err != nil || !ok {
					select {
					case ch <- exchItem{err: err, eof: true}:
					case <-ex.cancel:
					}
					return
				}
				st.Rows++
				obsEng.Plan.WorkerRows.Inc()
				select {
				case ch <- exchItem{rec: rec}:
				case <-ex.cancel:
					return
				}
			}
		}(sc, ch, st)
	}
}

func (ex *exchangeRows) Next() (types.Record, bool, error) {
	if ex.closed {
		return nil, false, nil
	}
	if ex.ordered {
		for ex.cur < len(ex.chans) {
			it := <-ex.chans[ex.cur]
			if it.eof {
				if it.err != nil {
					return nil, false, it.err
				}
				ex.cur++
				continue
			}
			return it.rec, true, nil
		}
		return nil, false, nil
	}
	for ex.live > 0 {
		it := <-ex.ch
		if it.eof {
			if it.err != nil {
				return nil, false, it.err
			}
			ex.live--
			continue
		}
		return it.rec, true, nil
	}
	return nil, false, nil
}

// Close stops the workers (cancel, then barrier) and closes the partition
// scans. Safe to call early (mid-stream), repeatedly, and from the
// transaction-end teardown.
func (ex *exchangeRows) Close() error {
	if ex.closed {
		return nil
	}
	ex.closed = true
	close(ex.cancel)
	ex.wg.Wait()
	var first error
	for _, sc := range ex.scans {
		if err := sc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// openHashJoin executes the equi-join by building a hash table over the
// inner relation (with partitioned parallel build workers when the inner
// storage method can split) and probing it with each outer row.
func (p *Planner) openHashJoin(tx *txn.Txn, b *Bound, outer *access, innerRD *core.RelDesc, q Query, degree int) (Rows, error) {
	innerRel, err := p.env.OpenRelation(innerRD)
	if err != nil {
		return nil, err
	}
	j := q.Join

	// Build side: partition the inner relation and fill one table per
	// worker; the probe consults all of them (the partition count is small).
	var bounds []types.Key
	if part, ok := innerRel.Storage().(core.RangePartitioner); ok && degree > 1 {
		bounds = part.PartitionBounds(degree)
	}
	ranges := partitionRanges(bounds, nil, nil)
	if len(ranges) == 0 {
		ranges = [][2]types.Key{{nil, nil}}
	}
	scans := make([]core.Scan, 0, len(ranges))
	for _, rg := range ranges {
		scan, err := innerRel.OpenScan(tx, core.ScanOptions{Start: rg[0], End: rg[1], Filter: j.Filter})
		if err != nil {
			for _, sc := range scans {
				sc.Close()
			}
			return nil, err
		}
		scans = append(scans, scan)
	}

	buildStart := time.Now()
	tables := make([]map[string][]types.Record, len(scans))
	errs := make([]error, len(scans))
	var wg sync.WaitGroup
	obsEng := p.env.Obs
	stats := make([]*OperatorStats, len(scans))
	for i := range scans {
		stats[i] = &OperatorStats{Name: fmt.Sprintf("hashbuild.worker[%d]", i)}
		b.stats = append(b.stats, stats[i])
	}
	for i, sc := range scans {
		wg.Add(1)
		obsEng.Plan.Workers.Inc()
		go func(i int, sc core.Scan, st *OperatorStats) {
			defer wg.Done()
			defer obsEng.Plan.Workers.Dec()
			table := make(map[string][]types.Record)
			for {
				t0 := time.Now()
				_, rec, ok, err := sc.Next()
				st.Calls++
				st.TimeNanos += time.Since(t0).Nanoseconds()
				if err != nil {
					errs[i] = err
					break
				}
				if !ok {
					break
				}
				kv := rec[j.InnerCol]
				if kv.IsNull() {
					continue // NULL never equi-joins
				}
				st.Rows++
				obsEng.Plan.WorkerRows.Inc()
				proj := rec
				if j.Fields != nil {
					proj = rec.Project(j.Fields)
				}
				hk := string(kv.AppendOrderedEncode(nil))
				table[hk] = append(table[hk], proj)
			}
			tables[i] = table
		}(i, sc, stats[i])
	}
	wg.Wait()
	var firstErr error
	for _, sc := range scans {
		if err := sc.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, err := range errs {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	built := 0
	for _, t := range tables {
		for _, v := range t {
			built += len(v)
		}
	}
	obsEng.Plan.HashJoins.Inc()
	tx.Trace().Event("plan.hashjoin", "plan",
		fmt.Sprintf("build workers=%d rows=%d", len(scans), built), buildStart, time.Since(buildStart), nil)

	outerRows, err := p.openAccess(tx, b, outer, nil, false)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("hash(%s, build=%d, workers=%d)", innerRD.Name, built, len(scans))
	return b.track(tx, name, &hashJoinRows{
		q: q, outer: outerRows, tables: tables,
	}), nil
}

// hashJoinRows probes the built tables with each outer row.
type hashJoinRows struct {
	q      Query
	outer  Rows
	tables []map[string][]types.Record

	curOuter types.Record
	pending  []types.Record
}

func (r *hashJoinRows) Next() (types.Record, bool, error) {
	j := r.q.Join
	for {
		if len(r.pending) > 0 {
			inner := r.pending[0]
			r.pending = r.pending[1:]
			return joinRecords(r.curOuter, r.q.Fields, inner), true, nil
		}
		rec, ok, err := r.outer.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		kv := rec[j.OuterCol]
		if kv.IsNull() {
			continue
		}
		hk := string(kv.AppendOrderedEncode(nil))
		r.curOuter = rec
		r.pending = r.pending[:0]
		for _, t := range r.tables {
			if matches := t[hk]; len(matches) > 0 {
				r.pending = append(r.pending, matches...)
			}
		}
	}
}

func (r *hashJoinRows) Close() error { return r.outer.Close() }
