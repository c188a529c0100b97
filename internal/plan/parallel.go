package plan

// Intra-query parallel execution: partitioned parallel scans behind an
// exchange operator, which reads a single-table plan and a hash join's
// build alike. The shape follows the partitioned-parallel operator model —
// the storage method splits its record-key space (core.RangePartitioner),
// each partition is driven by a worker goroutine with its own cursor, and
// an exchange merges the worker streams back into the single-threaded plan
// above.
//
// Concurrency rules: scans are OPENED in the planning goroutine (lock
// acquisition and authorization are goroutine-confined there), then each
// scan is driven by exactly one worker. A worker's storage-method calls
// may record events in the transaction's trace, which serialises them;
// otherwise workers touch neither the transaction nor shared planner
// state — they count into their own OperatorStats slot and the lock-free
// obs counters, and the exchange's Close (cancel, then WaitGroup) is the
// barrier that makes those counters readable.

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
func (p *Planner) openParallelScan(tx *txn.Txn, b *Bound, a *access, fields []int, degree int, ordered bool) (Rows, error) {
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
		ordered: ordered,
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
