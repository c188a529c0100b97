package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dmx/internal/obs"
)

// RelStat is the per-relation dispatch rollup behind sys.stat_relations:
// call counts per operation, row counts, and cumulative storage-method
// dispatch time, accumulated in the Relation layer where every access
// funnels through. Counters are atomics because relations are operated on
// from many transactions concurrently and snapshotted by observers.
type RelStat struct {
	Calls       [obs.OpScan + 1]atomic.Int64 // storage-method calls by operation, insert through scan
	Errors      atomic.Int64
	RowsRead    atomic.Int64
	RowsWritten atomic.Int64
	SMNanos     atomic.Int64 // cumulative storage-method dispatch time
}

// observe books one storage-method call.
func (rs *RelStat) observe(op obs.Op, d time.Duration, failed bool) {
	if rs == nil {
		return
	}
	rs.SMNanos.Add(int64(d))
	if failed {
		rs.Errors.Add(1)
	}
	rs.Calls[op].Add(1)
}

// RelStatRow is one sys.stat_relations row (the tags name the columns): a
// point-in-time copy of one relation's rollup with the name resolved from
// the catalog ("" when the relation has since been dropped).
type RelStatRow struct {
	RelID       uint32 `json:"rel_id"`
	Name        string `json:"name"`
	Inserts     int64  `json:"inserts"`
	Updates     int64  `json:"updates"`
	Deletes     int64  `json:"deletes"`
	Fetches     int64  `json:"fetches"`
	Scans       int64  `json:"scans"`
	Errors      int64  `json:"errors"`
	RowsRead    int64  `json:"rows_read"`
	RowsWritten int64  `json:"rows_written"`
	SMNanos     int64  `json:"sm_nanos"`
}

// relStatsTable maps relation IDs to their rollups. Entries persist past
// relation drop (the rollup is historical, and RelIDs are never reused
// within a process).
type relStatsTable struct {
	mu sync.RWMutex
	m  map[uint32]*RelStat
}

// get returns the rollup for relID, creating it on first use.
func (t *relStatsTable) get(relID uint32) *RelStat {
	t.mu.RLock()
	rs := t.m[relID]
	t.mu.RUnlock()
	if rs != nil {
		return rs
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if rs = t.m[relID]; rs != nil {
		return rs
	}
	if t.m == nil {
		t.m = make(map[uint32]*RelStat)
	}
	rs = &RelStat{}
	t.m[relID] = rs
	return rs
}

// RelStatRows snapshots every relation rollup, sorted by relation ID,
// with names resolved from the catalog.
func (env *Env) RelStatRows() []RelStatRow {
	env.relStats.mu.RLock()
	stats := make(map[uint32]*RelStat, len(env.relStats.m))
	for id, rs := range env.relStats.m {
		stats[id] = rs
	}
	env.relStats.mu.RUnlock()
	rows := make([]RelStatRow, 0, len(stats))
	for id, rs := range stats {
		row := RelStatRow{
			RelID:       id,
			Inserts:     rs.Calls[obs.OpInsert].Load(),
			Updates:     rs.Calls[obs.OpUpdate].Load(),
			Deletes:     rs.Calls[obs.OpDelete].Load(),
			Fetches:     rs.Calls[obs.OpFetch].Load(),
			Scans:       rs.Calls[obs.OpScan].Load(),
			Errors:      rs.Errors.Load(),
			RowsRead:    rs.RowsRead.Load(),
			RowsWritten: rs.RowsWritten.Load(),
			SMNanos:     rs.SMNanos.Load(),
		}
		if rd, ok := env.Cat.Get(id); ok {
			row.Name = rd.Name
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].RelID < rows[j].RelID })
	return rows
}
