package core

import "dmx/internal/obs"

// MetricsSnapshot is the engine-wide observability snapshot: the obs
// per-extension dispatch vectors (resolved to registered extension names),
// lock manager, recovery log, and buffer pool statistics, plus the coarse
// call totals. It marshals to a single JSON document.
type MetricsSnapshot struct {
	obs.Snapshot
	Totals TotalsSnapshot `json:"totals"`
}

// TotalsSnapshot is the call volume through the two procedure vectors,
// summed over extensions from the snapshot's own cells — what the
// experiment harness reads to check the paper's tuple-at-a-time claims.
type TotalsSnapshot struct {
	SMCalls  int64 `json:"sm_calls"`  // storage-method inserts, updates and deletes
	AttCalls int64 `json:"att_calls"` // attached-procedure invocations
	Fetches  int64 `json:"fetches"`   // direct-by-key accesses (storage fetches, access-path lookups)
	Scans    int64 `json:"scans"`     // key-sequential accesses opened, on either vector
	Vetoes   int64 `json:"vetoes"`    // vetoed relation modifications
}

// calls sums the recorded calls of the given operations over exts.
func calls(exts []obs.ExtSnapshot, ops ...obs.Op) (n int64) {
	for _, e := range exts {
		for _, cell := range e.Ops {
			for _, op := range ops {
				if cell.Op == op.String() {
					n += cell.Count
				}
			}
		}
	}
	return n
}

// MetricsSnapshot captures a consistent-enough point-in-time view of every
// counter in the environment. Safe to call concurrently with traffic.
func (env *Env) MetricsSnapshot() MetricsSnapshot {
	s := env.Obs.Snapshot()
	for i := range s.SM {
		if ops := env.Reg.StorageOps(SMID(s.SM[i].ID)); ops != nil {
			s.SM[i].Name = ops.Name
		}
	}
	for i := range s.Att {
		if ops := env.Reg.AttachmentOps(AttID(s.Att[i].ID)); ops != nil {
			s.Att[i].Name = ops.Name
		}
	}
	return MetricsSnapshot{
		Snapshot: s,
		Totals: TotalsSnapshot{
			SMCalls:  calls(s.SM, obs.OpInsert, obs.OpUpdate, obs.OpDelete),
			AttCalls: calls(s.Att, obs.OpInsert, obs.OpUpdate, obs.OpDelete),
			Fetches:  calls(s.SM, obs.OpFetch) + calls(s.Att, obs.OpLookup),
			Scans:    calls(s.SM, obs.OpScan) + calls(s.Att, obs.OpScan),
			Vetoes:   env.vetoes.Load(),
		},
	}
}

// MetricFamilies is every metric the environment exposes — the engine
// snapshot and the tracer's counters — as the one list /metrics renders
// and sys.stat_metrics serves.
func (env *Env) MetricFamilies() []obs.Family {
	return obs.Families(env.MetricsSnapshot().Snapshot, env.Tracer.Stats())
}
