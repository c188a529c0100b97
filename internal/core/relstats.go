package core

import (
	"cmp"
	"slices"
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
	rs.SMNanos.Add(int64(d))
	if failed {
		rs.Errors.Add(1)
	}
	rs.Calls[op].Add(1)
}

// RelStatRow is one sys.stat_relations row (the tags name the columns): a
// point-in-time copy of one relation's rollup with its catalogued name
// ("" once the relation is dropped).
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

// RelStatRows snapshots the rollup of every relation catalogued in this
// process, dropped ones included, sorted by relation ID.
func (env *Env) RelStatRows() []RelStatRow {
	slots := env.Cat.allSlots()
	rows := make([]RelStatRow, 0, len(slots))
	for _, s := range slots {
		rd := s.rd.Load()
		if rd == nil {
			continue // a storage instance opened outside the catalog
		}
		rs := &s.stat
		row := RelStatRow{
			RelID:       rd.RelID,
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
		if !s.dropped.Load() {
			row.Name = rd.Name
		}
		rows = append(rows, row)
	}
	slices.SortFunc(rows, func(a, b RelStatRow) int { return cmp.Compare(a.RelID, b.RelID) })
	return rows
}
