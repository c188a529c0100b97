// Package obs is the engine-wide observability layer.
//
// The extension architecture funnels every storage-method and attachment
// call through a handful of dispatch points, which makes uniform
// instrumentation cheap: metrics are kept in vectors indexed by the same
// small-integer extension identifiers that index the procedure vectors,
// so recording a sample is an array index plus a few atomic adds — no
// locks, no allocation, safe under any concurrency.
//
// The package deliberately knows nothing about the engine: the common
// services (core dispatch, lock manager, recovery log, buffer pool) each
// hold a pointer into a shared Engine and record into it; Engine.Snapshot
// materialises everything into plain JSON-marshalable structs.
package obs

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"time"
)

// MaxExt is the width of the per-extension metric vectors. It matches the
// procedure-vector width (core.MaxStorageMethods / MaxAttachmentTypes).
const MaxExt = 32

// Op identifies a generic operation for per-operation metric keying.
type Op uint8

// Generic operations, mirroring the dispatch points of the architecture.
const (
	OpInsert Op = iota
	OpUpdate
	OpDelete
	OpFetch  // direct-by-key access
	OpScan   // key-sequential access opened
	OpLookup // access-path key lookup
	NumOps
)

var opNames = [NumOps]string{"insert", "update", "delete", "fetch", "scan", "lookup"}

// String returns the operation name.
func (o Op) String() string {
	if o < NumOps {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Counter is a lock-free monotonic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a lock-free up/down gauge that also tracks its high-water mark.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// raise lifts the high-water mark to at least n. It is a CAS loop, so
// concurrent raisers cannot lose a peak: every thread retries until the
// mark is at least the value it personally observed, and the mark ends at
// the largest value any thread saw.
func raise(mark *atomic.Int64, n int64) {
	for {
		m := mark.Load()
		if n <= m || mark.CompareAndSwap(m, n) {
			return
		}
	}
}

// Inc raises the gauge by one, updating the high-water mark.
func (g *Gauge) Inc() { g.Add(1) }

// Dec lowers the gauge.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add moves the gauge by d (either direction), raising the high-water
// mark to the value returned by the counter add when the move is upward.
func (g *Gauge) Add(d int64) {
	if n := g.v.Add(d); d > 0 {
		raise(&g.max, n)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Max returns the high-water mark. The value and the mark are two atomics,
// so between a thread's Add and its CAS there is a window where the stored
// mark trails the live value; the current value is itself a lower bound on
// the true peak, so Max folds it in rather than reporting Max < Load.
func (g *Gauge) Max() int64 {
	m := g.max.Load()
	if v := g.v.Load(); v > m {
		return v
	}
	return m
}

// epoch anchors Clock. time.Since of an instant that carries a monotonic
// reading reads the monotonic clock alone, where time.Now also reads the
// wall clock.
var epoch = time.Now()

// Clock is the instant a call timer starts from, as the monotonic time
// since process start: Clock() - start is the call's duration at one
// clock read per end.
func Clock() time.Duration { return time.Since(epoch) }

// NumBuckets is the number of latency histogram buckets. Bucket i counts
// observations below BucketUpper(i); the last bucket is the overflow.
const NumBuckets = 22

// bucketBase is the upper bound of bucket 0 in nanoseconds; bounds double
// per bucket (256ns, 512ns, ... ~268ms), the final bucket is unbounded.
const bucketBase = 256

// BucketUpper returns the exclusive upper bound of bucket i (the last
// bucket has no bound and reports a zero duration).
func BucketUpper(i int) time.Duration {
	if i >= NumBuckets-1 {
		return 0
	}
	return time.Duration(bucketBase << uint(i))
}

// bucketFor maps a duration to its bucket index.
func bucketFor(d time.Duration) int {
	n := d.Nanoseconds()
	for i := 0; i < NumBuckets-1; i++ {
		if n < int64(bucketBase<<uint(i)) {
			return i
		}
	}
	return NumBuckets - 1
}

// Histogram is a lock-free latency histogram with exponential buckets.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
	buckets [NumBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	n := d.Nanoseconds()
	h.count.Add(1)
	h.sum.Add(n)
	raise(&h.max, n)
	h.buckets[bucketFor(d)].Add(1)
}

// Snapshot materialises the histogram. Buckets are read without a global
// lock, so a snapshot taken under concurrent writes is approximate (each
// individual value is still consistent).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:    h.count.Load(),
		SumNanos: h.sum.Load(),
		MaxNanos: h.max.Load(),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a plain-struct view of a Histogram.
type HistogramSnapshot struct {
	Count    int64             `json:"count"`
	SumNanos int64             `json:"sum_ns"`
	MaxNanos int64             `json:"max_ns"`
	Buckets  [NumBuckets]int64 `json:"buckets"`
}

// Mean returns the mean observed duration (0 when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNanos / s.Count)
}

// Quantile returns an upper bound for the q-quantile from the bucket
// boundaries; the overflow bucket reports the observed maximum. q is
// clamped to [0, 1]. An empty histogram reports 0. q=0 reports the bound
// of the smallest populated bucket, q=1 the bound of the largest — so on
// a single-bucket snapshot every quantile reports that bucket's bound.
// The target rank is the ceiling of q·Count (inverse CDF): on 3 samples,
// q=0.5 means "the 2nd", not "the 1st".
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	if target > s.Count {
		target = s.Count
	}
	var cum int64
	for i := 0; i < NumBuckets; i++ {
		cum += s.Buckets[i]
		if cum >= target {
			if i == NumBuckets-1 {
				return time.Duration(s.MaxNanos)
			}
			return BucketUpper(i)
		}
	}
	return time.Duration(s.MaxNanos)
}

// OpStat is one (extension, operation) cell: call count, error count, and
// a latency histogram.
type OpStat struct {
	Count   Counter
	Errors  Counter
	Latency Histogram
}

// Observe records one dispatched call.
func (s *OpStat) Observe(d time.Duration, failed bool) {
	s.Count.Inc()
	if failed {
		s.Errors.Inc()
	}
	s.Latency.Observe(d)
}

// Vector is a per-extension-ID × per-operation stat table, indexed exactly
// like the architecture's procedure vectors.
type Vector struct {
	stats [MaxExt][NumOps]OpStat
}

// Observe records one dispatched call for extension id.
func (v *Vector) Observe(id int, op Op, d time.Duration, failed bool) {
	if id < 0 || id >= MaxExt || op >= NumOps {
		return
	}
	v.stats[id][op].Observe(d, failed)
}

// LockStats instruments the common lock manager.
type LockStats struct {
	Requests  Counter   // Acquire and TryAcquire calls
	Waits     Counter   // requests that blocked
	WaitTime  Histogram // time spent blocked
	Deadlocks Counter   // requests refused as deadlock victims
	Queue     Gauge     // transactions currently blocked (with high-water mark)
}

// WALStats instruments the common recovery log.
type WALStats struct {
	Appends      Counter   // log records written
	AppendBytes  Counter   // payload bytes appended
	Syncs        Counter   // backing-file fsyncs
	Rollbacks    Counter   // log-driven rollbacks (veto, savepoint, abort)
	Checkpoints  Counter   // completed checkpoints (snapshot + truncation)
	RedoRecords  Counter   // records dispatched to redo during restart recovery
	GroupCommits Counter   // commit syncs served (leader or batched follower)
	GroupBatches Counter   // fsync rounds driven by the group-commit leader
	ForcedSyncs  Counter   // WAL-before-data forces from the buffer pool
	ForceSeconds Histogram // a force round's file write and fsync, the log's lock not held
}

// BufferStats instruments the shared buffer pool.
type BufferStats struct {
	Hits      Counter
	Misses    Counter
	Evictions Counter
	Flushes   Counter // dirty pages written back by FlushAll
}

// MVCCStats instruments snapshot reads over versioned storage.
type MVCCStats struct {
	SnapshotReads   Counter // lock-free fetches and scans opened by snapshot transactions
	ChainWalks      Counter // version-chain walks past an invisible head
	Reconstructions Counter // record versions rebuilt from WAL records
	Pruned          Counter // chain entries dropped below the oldest-snapshot horizon
	Frozen          Counter // chains retired by checkpoint freezes
}

// LSMStats instruments the tiered-ingest (LSM) storage method: memtable
// lifecycle, run merges, and bloom-filter effectiveness. The gauges
// aggregate across every LSM relation in the environment.
type LSMStats struct {
	Flushes             Counter // memtables sealed into sorted runs
	FlushedEntries      Counter // entries moved out of memtables by flushes
	Compactions         Counter // merge rounds installed
	CompactedRuns       Counter // input runs consumed by merges
	TombstonesDropped   Counter // delete markers retired by full-depth merges
	BloomProbes         Counter // runs consulted by direct-by-key lookups
	BloomSkips          Counter // runs skipped by their bloom filter
	BloomFalsePositives Counter // bloom passes that then found no key
	MemtableBytes       Gauge   // resident memtable payload bytes (with high-water)
	Runs                Gauge   // resident sorted runs (with high-water)
}

// PlanStats instruments the query planner: how often the cost model picked
// a hash join, and how SQL statements reuse bound plans.
type PlanStats struct {
	HashJoins   Counter // hash joins chosen over nested loops
	CacheHits   Counter // statements run from a session's cached bound plan
	CacheMisses Counter // statements parsed or bound because no valid plan was cached
	Replans     Counter // bound plans translated again on execution
}

// TxnStats are the transaction-lifecycle rollups fed by the transaction
// manager as each transaction finishes: outcome counts by mode plus the
// engine-wide totals of the per-transaction resource ledgers.
type TxnStats struct {
	CommitsWrite    Counter // committed write transactions
	CommitsReadOnly Counter // committed read-only snapshot transactions
	Aborts          Counter // aborted transactions (incl. commit failures)
	LockWaitNanos   Counter // cumulative lock-wait time across finished txns
	WALBytes        Counter // cumulative WAL payload bytes across finished txns
	RowsRead        Counter // rows returned to finished txns
	RowsWritten     Counter // rows modified by finished txns
}

// PartStats instruments the partitioned storage method: request routing
// (single-shard point ops vs scatter-gather scans) and the two-phase
// commit protocol driving multi-shard transactions.
type PartStats struct {
	RoutedReads  Counter // point reads routed to exactly one shard
	RoutedScans  Counter // single-key scan ranges routed to one shard
	ScatterScans Counter // scans fanned out across every shard
	Prepares     Counter // shard prepare requests sent (phase one)
	Commits      Counter // shard commit decisions delivered (phase two)
	Aborts       Counter // shard abort decisions delivered
	AckLost      Counter // decision deliveries whose acknowledgement was lost
	Resolved     Counter // in-doubt shard transactions resolved at recovery
}

// Engine aggregates every component's metrics into one registry. All
// fields are recorded into concurrently without locks.
type Engine struct {
	SM        Vector // storage-method dispatch, indexed by SM identifier
	Att       Vector // attachment dispatch, indexed by attachment-type identifier
	AttVetoes [MaxExt]Counter
	Lock      LockStats
	WAL       WALStats
	Buffer    BufferStats
	MVCC      MVCCStats
	LSM       LSMStats
	Plan      PlanStats
	Txn       TxnStats
	Part      PartStats
}

// NewEngine returns a fresh engine metric registry.
func NewEngine() *Engine { return &Engine{} }

// Snapshot is the JSON-marshalable view of an Engine. Extension entries
// appear only for identifiers with recorded activity.
//
// A snapshot field is also the one declaration of the metric it holds: its
// tags say how Engine.Snapshot fills it and how Families exposes it, so
// /metrics, sys.stat_metrics and this JSON document cannot disagree
// (DESIGN.md, "Adding a metric", has the recipe and examples).
//
//	metric:"NAME [LABEL=VALUE]"  family name; NAME ending in _total is a counter, a
//	                             HistogramSnapshot a histogram, else a gauge; fields
//	                             sharing NAME are one family told apart by the label
//	help:"TEXT"                  the family's HELP line (on its first field)
//	from:"FIELD[.Max]"           the live field if not of the same name; .Max reads
//	                             a Gauge's high-water mark
//	ratio:"A/B[+C]"              not stored live: snapshot field A over B (+ C) of
//	                             the same struct, 0 while the divisor is 0
//	vetoes:"FIELD"               on a dispatch vector: the live per-extension veto
//	                             counters, exposed as NAME_vetoes_total
//	after:"FIELD"                exposed after sibling FIELD, not in declared order
type Snapshot struct {
	SM     []ExtSnapshot  `json:"storage_methods" metric:"sm" help:"storage-method dispatch"`
	Att    []ExtSnapshot  `json:"attachments" metric:"att" help:"attachment dispatch" vetoes:"AttVetoes"`
	Lock   LockSnapshot   `json:"lock"`
	WAL    WALSnapshot    `json:"wal"`
	Buffer BufferSnapshot `json:"buffer"`
	MVCC   MVCCSnapshot   `json:"mvcc"`
	LSM    LSMSnapshot    `json:"lsm"`
	Plan   PlanSnapshot   `json:"plan" after:"Txn"` // /metrics has always listed txn ahead of plan
	Txn    TxnSnapshot    `json:"txn"`
	Part   PartSnapshot   `json:"part"`
}

// ExtSnapshot is the per-extension view: one entry per operation with
// recorded calls. Name is filled in by the caller (the registry that maps
// identifiers to extension names lives above this package).
type ExtSnapshot struct {
	ID     int          `json:"id"`
	Name   string       `json:"name,omitempty"`
	Ops    []OpSnapshot `json:"ops"`
	Vetoes int64        `json:"vetoes,omitempty"`
}

// OpSnapshot is one (extension, operation) cell.
type OpSnapshot struct {
	Op      string            `json:"op"`
	Count   int64             `json:"count"`
	Errors  int64             `json:"errors,omitempty"`
	Latency HistogramSnapshot `json:"latency"`
}

// LockSnapshot is the lock-manager view.
type LockSnapshot struct {
	Requests      int64             `json:"requests" metric:"lock_requests_total" help:"lock manager Acquire and TryAcquire calls"`
	Waits         int64             `json:"waits" metric:"lock_waits_total" help:"lock requests that blocked"`
	Deadlocks     int64             `json:"deadlocks" metric:"lock_deadlocks_total" help:"lock requests refused as deadlock victims"`
	Waiting       int64             `json:"waiting" metric:"lock_waiting" help:"transactions currently blocked on a lock" from:"Queue"`
	MaxQueueDepth int64             `json:"max_queue_depth" metric:"lock_queue_depth_max" help:"high-water mark of concurrently blocked transactions" from:"Queue.Max"`
	WaitTime      HistogramSnapshot `json:"wait_time" metric:"lock_wait_seconds" help:"time spent blocked on lock acquisition"`
}

// WALSnapshot is the recovery-log view. CommitsPerFsync is the group-commit
// batching ratio: commit syncs served per leader fsync round (> 1 means
// concurrent commits shared fsyncs).
type WALSnapshot struct {
	Appends         int64             `json:"appends" metric:"wal_appends_total" help:"recovery-log records written"`
	AppendBytes     int64             `json:"append_bytes" metric:"wal_append_bytes_total" help:"recovery-log payload bytes appended"`
	Syncs           int64             `json:"syncs" metric:"wal_syncs_total" help:"recovery-log backing-file fsyncs"`
	Rollbacks       int64             `json:"rollbacks" metric:"wal_rollbacks_total" help:"log-driven rollbacks (veto, savepoint, abort)"`
	Checkpoints     int64             `json:"checkpoints" metric:"wal_checkpoints_total" help:"completed checkpoints"`
	RedoRecords     int64             `json:"redo_records" metric:"wal_redo_records_total" help:"records dispatched to redo during restart recovery"`
	GroupCommits    int64             `json:"group_commits" metric:"wal_group_commits_total" help:"commit syncs served by group commit"`
	GroupBatches    int64             `json:"group_batches" metric:"wal_group_batches_total" help:"fsync rounds driven by the group-commit leader"`
	ForcedSyncs     int64             `json:"forced_syncs" metric:"wal_forced_syncs_total" help:"WAL-before-data forces from the buffer pool"`
	CommitsPerFsync float64           `json:"commits_per_fsync" metric:"wal_commits_per_fsync" help:"group-commit batching ratio" ratio:"GroupCommits/GroupBatches"`
	ForceSeconds    HistogramSnapshot `json:"force_seconds" metric:"wal_force_seconds" help:"file write and fsync of one recovery-log force round (device time, not time waiting for the log)"`
}

// MVCCSnapshot is the snapshot-read view.
type MVCCSnapshot struct {
	SnapshotReads   int64 `json:"snapshot_reads" metric:"mvcc_snapshot_reads_total" help:"lock-free fetches and scans by snapshot transactions"`
	ChainWalks      int64 `json:"chain_walks" metric:"mvcc_chain_walks_total" help:"version-chain walks past an invisible head"`
	Reconstructions int64 `json:"reconstructions" metric:"mvcc_reconstructions_total" help:"record versions rebuilt from WAL records"`
	Pruned          int64 `json:"pruned" metric:"mvcc_pruned_total" help:"version-chain entries pruned below the oldest snapshot"`
	Frozen          int64 `json:"frozen" metric:"mvcc_frozen_total" help:"version chains retired by checkpoint freezes"`
}

// LSMSnapshot is the tiered-ingest storage-method view. BloomSkipRatio is
// the fraction of per-run probes the filters answered without a search.
type LSMSnapshot struct {
	Flushes             int64   `json:"flushes" metric:"lsm_flushes_total" help:"LSM memtables sealed into sorted runs"`
	FlushedEntries      int64   `json:"flushed_entries" metric:"lsm_flushed_entries_total" help:"entries moved out of LSM memtables by flushes"`
	Compactions         int64   `json:"compactions" metric:"lsm_compactions_total" help:"LSM run-merge rounds installed"`
	CompactedRuns       int64   `json:"compacted_runs" metric:"lsm_compacted_runs_total" help:"input runs consumed by LSM merges"`
	TombstonesDropped   int64   `json:"tombstones_dropped" metric:"lsm_tombstones_dropped_total" help:"delete markers retired by full-depth LSM merges"`
	BloomProbes         int64   `json:"bloom_probes" metric:"lsm_bloom_probes_total" help:"runs consulted by LSM direct-by-key lookups"`
	BloomSkips          int64   `json:"bloom_skips" metric:"lsm_bloom_skips_total" help:"runs skipped by their bloom filter"`
	BloomFalsePositives int64   `json:"bloom_false_positives" metric:"lsm_bloom_false_positives_total" help:"bloom passes that then found no key"`
	BloomSkipRatio      float64 `json:"bloom_skip_ratio" metric:"lsm_bloom_skip_ratio" help:"fraction of per-run probes answered by the bloom filter" ratio:"BloomSkips/BloomProbes"`
	MemtableBytes       int64   `json:"memtable_bytes" metric:"lsm_memtable_bytes" help:"resident LSM memtable payload bytes"`
	MemtableBytesMax    int64   `json:"memtable_bytes_max" metric:"lsm_memtable_bytes_max" help:"high-water mark of resident LSM memtable bytes" from:"MemtableBytes.Max"`
	Runs                int64   `json:"runs" metric:"lsm_runs" help:"resident LSM sorted runs"`
	RunsMax             int64   `json:"runs_max" metric:"lsm_runs_max" help:"high-water mark of resident LSM sorted runs" from:"Runs.Max"`
}

// PlanSnapshot is the query planner's view: join strategy and plan reuse.
type PlanSnapshot struct {
	HashJoins   int64 `json:"hash_joins" metric:"plan_hash_joins_total" help:"hash joins chosen over nested loops"`
	CacheHits   int64 `json:"cache_hits" metric:"plan_cache_hits_total" help:"statements run from a session's cached bound plan"`
	CacheMisses int64 `json:"cache_misses" metric:"plan_cache_misses_total" help:"statements parsed or bound because no valid plan was cached"`
	Replans     int64 `json:"replans" metric:"plan_replans_total" help:"bound plans translated again on execution"`
}

// TxnSnapshot is the transaction-lifecycle view.
type TxnSnapshot struct {
	CommitsWrite    int64 `json:"commits_write" metric:"txn_commits_total mode=write" help:"committed transactions by mode"`
	CommitsReadOnly int64 `json:"commits_readonly" metric:"txn_commits_total mode=readonly"`
	Aborts          int64 `json:"aborts" metric:"txn_aborts_total" help:"aborted transactions (incl. commit failures)"`
	LockWaitNanos   int64 `json:"lock_wait_nanos" metric:"txn_lock_wait_nanos_total" help:"cumulative per-transaction lock-wait time"`
	WALBytes        int64 `json:"wal_bytes" metric:"txn_wal_bytes_total" help:"WAL payload bytes charged to finished transactions"`
	RowsRead        int64 `json:"rows_read" metric:"txn_rows_read_total" help:"rows returned to finished transactions"`
	RowsWritten     int64 `json:"rows_written" metric:"txn_rows_written_total" help:"rows modified by finished transactions"`
}

// PartSnapshot is the partitioned storage-method view.
type PartSnapshot struct {
	RoutedReads  int64 `json:"routed_reads" metric:"part_routed_reads_total" help:"point reads routed to exactly one shard"`
	RoutedScans  int64 `json:"routed_scans" metric:"part_routed_scans_total" help:"single-key scan ranges routed to one shard"`
	ScatterScans int64 `json:"scatter_scans" metric:"part_scatter_scans_total" help:"scans fanned out across every shard"`
	Prepares     int64 `json:"prepares" metric:"part_prepares_total" help:"shard prepare requests sent (2PC phase one)"`
	Commits      int64 `json:"commits" metric:"part_commits_total" help:"shard commit decisions delivered (2PC phase two)"`
	Aborts       int64 `json:"aborts" metric:"part_aborts_total" help:"shard abort decisions delivered"`
	AckLost      int64 `json:"ack_lost" metric:"part_ack_lost_total" help:"shard decision deliveries whose acknowledgement was lost"`
	Resolved     int64 `json:"resolved" metric:"part_resolved_total" help:"in-doubt shard transactions resolved at recovery"`
}

// BufferSnapshot is the buffer-pool view.
type BufferSnapshot struct {
	Hits      int64   `json:"hits" metric:"buffer_hits_total" help:"buffer pool page hits"`
	Misses    int64   `json:"misses" metric:"buffer_misses_total" help:"buffer pool page misses"`
	Evictions int64   `json:"evictions" metric:"buffer_evictions_total" help:"buffer pool frame evictions"`
	Flushes   int64   `json:"flushes" metric:"buffer_flushes_total" help:"dirty pages written back by FlushAll"`
	HitRatio  float64 `json:"hit_ratio" metric:"buffer_hit_ratio" help:"buffer pool hit ratio" ratio:"Hits/Hits+Misses"`
}

func snapshotVector(v *Vector, vetoes *[MaxExt]Counter) []ExtSnapshot {
	var out []ExtSnapshot
	for id := 0; id < MaxExt; id++ {
		var es ExtSnapshot
		es.ID = id
		for op := Op(0); op < NumOps; op++ {
			cell := &v.stats[id][op]
			n := cell.Count.Load()
			if n == 0 {
				continue
			}
			es.Ops = append(es.Ops, OpSnapshot{
				Op:      op.String(),
				Count:   n,
				Errors:  cell.Errors.Load(),
				Latency: cell.Latency.Snapshot(),
			})
		}
		if vetoes != nil {
			es.Vetoes = vetoes[id].Load()
		}
		if len(es.Ops) > 0 || es.Vetoes > 0 {
			out = append(out, es)
		}
	}
	return out
}

// Snapshot materialises the engine's metrics. It is safe to call under
// concurrent recording; the result is a consistent-enough point-in-time
// view (individual values are exact, cross-value skew is possible).
func (e *Engine) Snapshot() Snapshot {
	var s Snapshot
	fill(reflect.ValueOf(&s).Elem(), reflect.ValueOf(e).Elem())
	return s
}

// fill loads the snapshot struct dst from the live struct beside it, field
// by field as the tags on Snapshot describe. A snapshot field without a
// live source is a programming error and panics on the first snapshot.
func fill(dst, live reflect.Value) {
	t := dst.Type()
	for i := 0; i < t.NumField(); i++ {
		f, out := t.Field(i), dst.Field(i)
		if ratio, ok := f.Tag.Lookup("ratio"); ok {
			over, under, _ := strings.Cut(ratio, "/")
			var sum int64
			for _, name := range strings.Split(under, "+") {
				sum += dst.FieldByName(name).Int()
			}
			if sum > 0 {
				out.SetFloat(float64(dst.FieldByName(over).Int()) / float64(sum))
			}
			continue
		}
		from, ok := f.Tag.Lookup("from")
		if !ok {
			from = f.Name
		}
		from, highWater := strings.CutSuffix(from, ".Max")
		src := live.FieldByName(from)
		if !src.IsValid() {
			panic(fmt.Sprintf("obs: %s.%s has no live field %s.%s", t.Name(), f.Name, live.Type().Name(), from))
		}
		switch m := src.Addr().Interface().(type) {
		case *Counter:
			out.SetInt(m.Load())
		case *Gauge:
			if highWater {
				out.SetInt(m.Max())
			} else {
				out.SetInt(m.Load())
			}
		case *Histogram:
			out.Set(reflect.ValueOf(m.Snapshot()))
		case *Vector:
			var vetoes *[MaxExt]Counter
			if name, ok := f.Tag.Lookup("vetoes"); ok {
				vetoes = live.FieldByName(name).Addr().Interface().(*[MaxExt]Counter)
			}
			out.Set(reflect.ValueOf(snapshotVector(m, vetoes)))
		default:
			fill(out, src)
		}
	}
}
