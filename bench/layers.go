package main

import (
	"dmx"
	"dmx/internal/obs"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; TestBenchmarkJSONMatches keeps them equal.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd are the metrics a caller of the engine sees, taken only from
// untraced phases. The timing bounds sit at the benchmark contract's cap:
// the 2-core sandbox's speed drifts by ±7 % over minutes, which alone gives
// ten consecutive runs a spread (quartile distance over median) of 3–11 %
// on every workload. allocs_per_op repeats to 0.5 % except on
// commit-durable (2.7 %: checkpoints allocate with the data they re-log).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"p95_us", "us", "lower", 0.25},
	{"allocs_per_op", "1/op", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run. Times come
// from the benchmark's spans around public entry points or from the
// latency cells the engine already keeps per (extension, operation);
// counts are differences of the counters Env.MetricsSnapshot,
// pagefile.Disk.Stats and ForeignServer.Messages expose.
var perLayer = []metricDef{
	{name: "ddl.parse_us", unit: "us", better: "lower"},
	{name: "ddl.self_us", unit: "us", better: "lower"},
	{name: "plan.bind_us", unit: "us", better: "lower"},
	{name: "plan.exec_self_us", unit: "us", better: "lower"},
	{name: "plan.rows_examined_per_row", unit: "ratio", better: "lower"},
	{name: "core.relop_self_us", unit: "us", better: "lower"},
	{name: "core.sm_calls_per_op", unit: "1/op", better: "lower"},
	{name: "core.att_calls_per_op", unit: "1/op", better: "lower"},
	{name: "core.checkpoint_ms", unit: "ms", better: "lower"},
	{name: "att.notify_us_per_write", unit: "us", better: "lower"},
	{name: "att.calls_per_write", unit: "ratio", better: "lower"},
	{name: "att.read_us", unit: "us", better: "lower"},
	{name: "lock.requests_per_op", unit: "1/op", better: "lower"},
	{name: "lock.waits_per_kop", unit: "1/kop", better: "lower"},
	{name: "lock.wait_us_per_op", unit: "us", better: "lower"},
	{name: "sm.heap.op_us", unit: "us", better: "lower"},
	{name: "sm.append.op_us", unit: "us", better: "lower"},
	{name: "sm.part.op_us", unit: "us", better: "lower"},
	{name: "sm.read_us", unit: "us", better: "lower"},
	{name: "sm.scan_ns_per_row", unit: "ns/row", better: "lower"},
	{name: "buffer.hit_ratio", unit: "ratio", better: "higher"},
	{name: "buffer.evictions_per_op", unit: "1/op", better: "lower"},
	{name: "pagefile.reads_per_op", unit: "1/op", better: "lower"},
	{name: "pagefile.writes_per_op", unit: "1/op", better: "lower"},
	{name: "wal.appends_per_op", unit: "1/op", better: "lower"},
	{name: "wal.bytes_per_op", unit: "B/op", better: "lower"},
	{name: "wal.bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "wal.fsyncs_per_commit", unit: "ratio", better: "lower"},
	{name: "wal.commit_us", unit: "us", better: "lower"},
	{name: "recover_s", unit: "s", better: "lower"},
	{name: "lsm.flushes", unit: "count", better: "lower"},
	{name: "lsm.compactions", unit: "count", better: "lower"},
	{name: "lsm.runs_max", unit: "count", better: "lower"},
	{name: "lsm.bloom_skip_ratio", unit: "ratio", better: "higher"},
	{name: "lsm.live_bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "remote.msgs_per_op", unit: "1/op", better: "lower"},
	{name: "part.prepares_per_commit", unit: "ratio", better: "lower"},
	{name: "part.routed_per_scatter", unit: "ratio", better: "higher"},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "go.heap_mb_end", unit: "MB", better: "lower"},
	{name: "go.bytes_per_op", unit: "B/op", better: "lower"},
	{name: "rows_per_s", unit: "1/s", better: "higher"},
	{name: "p99_us", unit: "us", better: "lower"},
	{name: "trace_overhead_frac", unit: "ratio", better: "lower"},
}

// A counter is one quantity the engine exposes that the layer metrics
// difference over a phase.
const (
	cSMCalls = iota // Totals.SMCalls + Fetches + Scans: calls through the storage-method vector
	cAttCalls
	cSMNanos      // latency-cell sum over every storage method
	cAttNanos     // latency-cell sum over every attachment type
	cAttWriteCall // attachment calls for insert, update, delete
	cAttWriteNanos
	cHeapCalls
	cHeapNanos
	cAppendCalls
	cAppendNanos
	cPartCalls
	cPartNanos
	cLockRequests
	cLockWaits
	cLockWaitNanos
	cBufHits
	cBufMisses
	cBufEvictions
	cDiskReads
	cDiskWrites
	cWALAppends
	cWALBytes
	cWALSyncs
	cCommitsWrite
	cRowsRead
	cLSMFlushes
	cLSMCompactions
	cBloomProbes
	cBloomSkips
	cMessages
	cPrepares
	cRouted
	cScatter
	numCounters
)

// counters is one reading of the engine's counters, flattened so phases
// can be differenced and summed.
type counters [numCounters]float64

func (c counters) minus(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c counters) plus(o counters) counters {
	for i := range c {
		c[i] += o[i]
	}
	return c
}

func readCounters(db *dmx.DB, servers []*dmx.ForeignServer) counters {
	m := db.Env.MetricsSnapshot()
	disk := db.Env.Pool.Disk().Stats()
	var c counters
	c[cSMCalls] = float64(m.Totals.SMCalls + m.Totals.Fetches + m.Totals.Scans)
	c[cAttCalls] = float64(m.Totals.AttCalls)
	_, c[cSMNanos] = extSum(m.SM, "", false)
	_, c[cAttNanos] = extSum(m.Att, "", false)
	c[cAttWriteCall], c[cAttWriteNanos] = extSum(m.Att, "", true)
	c[cHeapCalls], c[cHeapNanos] = extSum(m.SM, "heap", false)
	c[cAppendCalls], c[cAppendNanos] = extSum(m.SM, "append", false)
	c[cPartCalls], c[cPartNanos] = extSum(m.SM, "part", false)
	c[cLockRequests] = float64(m.Lock.Requests)
	c[cLockWaits] = float64(m.Lock.Waits)
	c[cLockWaitNanos] = float64(m.Lock.WaitTime.SumNanos)
	c[cBufHits] = float64(m.Buffer.Hits)
	c[cBufMisses] = float64(m.Buffer.Misses)
	c[cBufEvictions] = float64(m.Buffer.Evictions)
	c[cDiskReads] = float64(disk.Reads)
	c[cDiskWrites] = float64(disk.Writes)
	c[cWALAppends] = float64(m.WAL.Appends)
	c[cWALBytes] = float64(m.WAL.AppendBytes)
	c[cWALSyncs] = float64(m.WAL.Syncs)
	c[cCommitsWrite] = float64(m.Txn.CommitsWrite)
	c[cRowsRead] = float64(m.Txn.RowsRead)
	c[cLSMFlushes] = float64(m.LSM.Flushes)
	c[cLSMCompactions] = float64(m.LSM.Compactions)
	c[cBloomProbes] = float64(m.LSM.BloomProbes)
	c[cBloomSkips] = float64(m.LSM.BloomSkips)
	for _, s := range servers {
		c[cMessages] += float64(s.Messages.Load())
	}
	c[cPrepares] = float64(m.Part.Prepares)
	c[cRouted] = float64(m.Part.RoutedReads + m.Part.RoutedScans)
	c[cScatter] = float64(m.Part.ScatterScans)
	return c
}

// extSum is the calls and summed latency the engine recorded for one
// extension ("" for all); writes restricts it to insert, update, delete.
func extSum(exts []obs.ExtSnapshot, name string, writes bool) (calls, nanos float64) {
	for _, e := range exts {
		if name != "" && e.Name != name {
			continue
		}
		for _, o := range e.Ops {
			if writes && o.Op != "insert" && o.Op != "update" && o.Op != "delete" {
				continue
			}
			calls += float64(o.Count)
			nanos += float64(o.Latency.SumNanos)
		}
	}
	return calls, nanos
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerInputs is everything a traced run gathered.
type layerInputs struct {
	plain   window // the untraced phases, summed
	traced  window // the traced phases, summed
	sums    [numLayers]layerSum
	info    info
	heapMB  float64
	runsMax float64 // LSM resident-run high-water at the end of the run
}

// layerMetrics turns a traced run into the per-layer metrics.
func layerMetrics(in layerInputs) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = 0
	}
	c := in.plain.delta
	ops := float64(in.plain.ops)
	writes := float64(in.plain.writes)

	// Spans: the benchmark's own timing around public entry points.
	s := in.sums
	out["ddl.parse_us"] = s[layDDLParse].meanUS()
	out["ddl.self_us"] = s[layDDLExec].selfUS()
	out["plan.bind_us"] = s[layPlanBind].meanUS()
	out["plan.exec_self_us"] = s[layPlanExec].selfUS()
	out["att.read_us"] = s[layAttRead].meanUS()
	out["sm.read_us"] = s[laySMRead].meanUS()
	out["wal.commit_us"] = s[layCommit].meanUS()
	out["core.checkpoint_ms"] = s[layCheckpoint].meanUS() / 1e3
	out["sm.scan_ns_per_row"] = ratio(float64(s[laySMRead].total), float64(in.info.scanRows))
	if in.info.relopDirect {
		// Every storage-method and attachment call of the traced phases
		// ran inside a Relation-op span, so the engine's own latency
		// cells (and its lock waits) are that span's children.
		t := in.traced.delta
		self := float64(s[layRelOp].total) - t[cSMNanos] - t[cAttNanos] - t[cLockWaitNanos]
		out["core.relop_self_us"] = ratio(self, float64(s[layRelOp].n)) / 1e3
	} else {
		out["core.relop_self_us"] = s[layRelOp].selfUS()
	}
	out["trace_overhead_frac"] = 1 - ratio(in.traced.opsPerBusySec, in.plain.opsPerBusySec)

	// Counters: differences over the untraced phases.
	out["core.sm_calls_per_op"] = ratio(c[cSMCalls], ops)
	out["core.att_calls_per_op"] = ratio(c[cAttCalls], ops)
	out["att.notify_us_per_write"] = ratio(c[cAttWriteNanos], writes) / 1e3
	out["att.calls_per_write"] = ratio(c[cAttWriteCall], writes)
	out["lock.requests_per_op"] = ratio(c[cLockRequests], ops)
	out["lock.waits_per_kop"] = ratio(c[cLockWaits], ops) * 1e3
	out["lock.wait_us_per_op"] = ratio(c[cLockWaitNanos], ops) / 1e3
	out["sm.heap.op_us"] = ratio(c[cHeapNanos], c[cHeapCalls]) / 1e3
	out["sm.append.op_us"] = ratio(c[cAppendNanos], c[cAppendCalls]) / 1e3
	out["sm.part.op_us"] = ratio(c[cPartNanos], c[cPartCalls]) / 1e3
	out["buffer.hit_ratio"] = ratio(c[cBufHits], c[cBufHits]+c[cBufMisses])
	out["buffer.evictions_per_op"] = ratio(c[cBufEvictions], ops)
	out["pagefile.reads_per_op"] = ratio(c[cDiskReads], ops)
	out["pagefile.writes_per_op"] = ratio(c[cDiskWrites], ops)
	out["wal.appends_per_op"] = ratio(c[cWALAppends], ops)
	out["wal.bytes_per_op"] = ratio(c[cWALBytes], ops)
	out["wal.bytes_per_user_byte"] = ratio(c[cWALBytes], float64(in.plain.userB))
	out["wal.fsyncs_per_commit"] = ratio(c[cWALSyncs], c[cCommitsWrite])
	out["lsm.flushes"] = c[cLSMFlushes]
	out["lsm.compactions"] = c[cLSMCompactions]
	out["lsm.runs_max"] = in.runsMax
	out["lsm.bloom_skip_ratio"] = ratio(c[cBloomSkips], c[cBloomProbes])
	out["remote.msgs_per_op"] = ratio(c[cMessages], ops)
	out["part.prepares_per_commit"] = ratio(c[cPrepares], float64(in.plain.commits))
	out["part.routed_per_scatter"] = ratio(c[cRouted], c[cScatter])
	out["plan.rows_examined_per_row"] = ratio(c[cRowsRead], float64(in.plain.rows))

	out["go.gc_pause_ms"] = float64(in.plain.gcPause) / 1e6
	out["go.bytes_per_op"] = ratio(float64(in.plain.bytes), ops)
	out["go.heap_mb_end"] = in.heapMB
	out["rows_per_s"] = ratio(float64(in.plain.rows), in.plain.wall.Seconds())
	out["p99_us"] = in.plain.h.quantile(0.99) / 1e3
	for k, v := range in.info.extra {
		out[k] = v
	}
	return out
}
