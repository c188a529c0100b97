// Package syssm implements the system storage method: read-only virtual
// relations that materialize live engine state as ordinary rows.
//
// The extension architecture makes this almost free — a storage method is
// just a table of generic operations, so a method whose "storage" is the
// running engine itself plugs into the same procedure vectors as heap or
// B-tree storage. sys.stat_activity, sys.stat_locks and friends are
// genuine catalogued relations: scans, pushed-down predicates, field
// projection, cost estimates, the plan layer and the CLI all treat them
// exactly like stored tables. The engine observes itself through its own
// query machinery.
//
// Each scan materializes a consistent batch of rows at open (one snapshot
// of the underlying engine structure, taken under that structure's own
// locks) and then iterates without further coordination, so system scans
// never hold engine-internal mutexes across Next calls and never
// participate in lock-manager waits. Modifications are refused with
// core.ErrReadOnly and nothing is ever logged: the relations are process
// state, reinstalled by every Env construction and absent from
// checkpoints, recovery, and the WAL.
package syssm

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/sm/smutil"
	"dmx/internal/txn"
	"dmx/internal/types"
	"dmx/internal/wal"
)

// Name is the storage-method name. It is not creatable through DDL; the
// registry entry exists so catalogued system relations dispatch here.
const Name = "sys"

// viewFunc materializes one system relation's current rows.
type viewFunc func(env *core.Env) ([]types.Record, error)

// view couples a relation name, its schema, and its generator.
type view struct {
	name   string
	schema *types.Schema
	gen    viewFunc
}

var views = []view{
	{"sys.stat_activity", activitySchema, activityRows},
	{"sys.stat_history", historySchema, historyRows},
	{"sys.stat_relations", relationsSchema, relationsRows},
	{"sys.stat_locks", locksSchema, locksRows},
	{"sys.stat_lsm", lsmSchema, lsmRows},
	{"sys.stat_buffer", bufferSchema, bufferRows},
	{"sys.stat_traces", tracesSchema, tracesRows},
	{"sys.stat_shards", shardsSchema, shardsRows},
	{"sys.stat_metrics", metricsSchema, metricsRows},
}

func init() {
	core.RegisterStorageMethod(&core.StorageOps{
		ID:   core.SMSys,
		Name: Name,
		ValidateAttrs: func(schema *types.Schema, attrs core.AttrList) error {
			return fmt.Errorf("syssm: system relations are built in; CREATE with storage method %q is not supported", Name)
		},
		Create: func(env *core.Env, tx *txn.Txn, rd *core.RelDesc, attrs core.AttrList) ([]byte, error) {
			return nil, fmt.Errorf("syssm: system relations are built in and cannot be created")
		},
		Open: func(env *core.Env, rd *core.RelDesc) (core.StorageInstance, error) {
			for _, v := range views {
				if strings.EqualFold(v.name, rd.Name) {
					return &store{env: env, rd: rd, gen: v.gen}, nil
				}
			}
			return nil, fmt.Errorf("syssm: unknown system relation %q", rd.Name)
		},
	})
	for _, v := range views {
		core.RegisterSystemRelation(core.SystemRelation{
			Name:   v.name,
			SM:     core.SMSys,
			Schema: v.schema,
		})
	}
}

// store is the runtime instance of one system relation.
type store struct {
	env *core.Env
	rd  *core.RelDesc
	gen viewFunc
}

// ordKey encodes a row ordinal as the 8-byte big-endian record key, so
// record-key order is row order and scan Start/End bounds work unchanged.
func ordKey(i int) types.Key {
	k := make(types.Key, 8)
	binary.BigEndian.PutUint64(k, uint64(i))
	return k
}

func keyOrd(k types.Key) (int, error) {
	if len(k) != 8 {
		return 0, fmt.Errorf("syssm: bad record key length %d", len(k))
	}
	return int(binary.BigEndian.Uint64(k)), nil
}

// Insert implements core.StorageInstance: refused, the relation is virtual.
func (s *store) Insert(tx *txn.Txn, rec types.Record) (types.Key, error) {
	return nil, fmt.Errorf("syssm: %s: %w", s.rd.Name, core.ErrReadOnly)
}

// Update implements core.StorageInstance: refused.
func (s *store) Update(tx *txn.Txn, key types.Key, oldRec, newRec types.Record) (types.Key, error) {
	return nil, fmt.Errorf("syssm: %s: %w", s.rd.Name, core.ErrReadOnly)
}

// Delete implements core.StorageInstance: refused.
func (s *store) Delete(tx *txn.Txn, key types.Key, oldRec types.Record) error {
	return fmt.Errorf("syssm: %s: %w", s.rd.Name, core.ErrReadOnly)
}

// FetchByKey implements core.StorageInstance. Direct-by-key access
// re-materializes the view: ordinals are positional, so a row fetched by a
// key obtained from an earlier scan may have moved or vanished — the usual
// contract for monitoring views.
func (s *store) FetchByKey(tx *txn.Txn, key types.Key, fields []int, filter *expr.Expr) (types.Record, error) {
	ord, err := keyOrd(key)
	if err != nil {
		return nil, err
	}
	rows, err := s.gen(s.env)
	if err != nil {
		return nil, err
	}
	if ord < 0 || ord >= len(rows) {
		return nil, fmt.Errorf("syssm: %w: %s row %d", core.ErrNotFound, s.rd.Name, ord)
	}
	return smutil.QualifyFetch(s.env, rows[ord], fields, filter)
}

// OpenScan implements core.StorageInstance: the view is materialized once
// at open — a consistent snapshot of the engine structure it reflects —
// and iterated without touching live state again.
func (s *store) OpenScan(tx *txn.Txn, opts core.ScanOptions) (core.Scan, error) {
	rows, err := s.gen(s.env)
	if err != nil {
		return nil, err
	}
	sc := &scan{store: s, rows: rows, opts: opts}
	if opts.Start != nil {
		ord, err := keyOrd(opts.Start)
		if err != nil {
			return nil, err
		}
		sc.next = ord
	}
	sc.end = len(rows)
	if opts.End != nil {
		ord, err := keyOrd(opts.End)
		if err != nil {
			return nil, err
		}
		if ord < sc.end {
			sc.end = ord
		}
	}
	return sc, nil
}

// EstimateCost implements core.StorageInstance. System views are memory
// materializations: no I/O, CPU linear in the (small) row count.
func (s *store) EstimateCost(req core.CostRequest) core.CostEstimate {
	n := req.RecordCount
	if n <= 0 {
		n = s.RecordCount()
	}
	sel := 1.0
	if len(req.Conjuncts) > 0 {
		sel = 0.1
	}
	return core.CostEstimate{Usable: true, IO: 0, CPU: float64(n), Selectivity: sel}
}

// RecordCount implements core.StorageInstance by materializing the view.
// The views are bounded (active transactions, buffer frames, trace ring),
// so this stays cheap enough for planning.
func (s *store) RecordCount() int {
	rows, err := s.gen(s.env)
	if err != nil {
		return 0
	}
	return len(rows)
}

// ApplyLogged implements core.StorageInstance. System relations never log,
// so no record can ever dispatch here.
func (s *store) ApplyLogged(payload []byte, undo bool) error {
	return fmt.Errorf("syssm: %s: unexpected log record for a virtual relation", s.rd.Name)
}

// scan iterates a materialized view batch. Pos/Restore use the ordinal,
// satisfying the savepoint position contract trivially.
type scan struct {
	store *store
	rows  []types.Record
	opts  core.ScanOptions
	next  int // ordinal of the next row to consider
	end   int // exclusive ordinal bound
}

func (sc *scan) Next() (types.Key, types.Record, bool, error) {
	for sc.next < sc.end {
		ord := sc.next
		sc.next++
		rec, ok, err := smutil.Qualify(sc.store.env, sc.rows[ord], sc.opts.Filter, sc.opts.Params, sc.opts.Fields)
		if err != nil {
			return nil, nil, false, err
		}
		if ok {
			return ordKey(ord), rec, true, nil
		}
	}
	return nil, nil, false, nil
}

func (sc *scan) Pos() core.ScanPos {
	return core.ScanPos(ordKey(sc.next))
}

func (sc *scan) Restore(pos core.ScanPos) error {
	ord, err := keyOrd(types.Key(pos))
	if err != nil {
		return err
	}
	sc.next = ord
	return nil
}

func (sc *scan) Close() error { return nil }

// ---- sys.stat_activity ----

var activitySchema = types.MustSchema(
	types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "mode", Kind: types.KindString, NotNull: true},
	types.Column{Name: "state", Kind: types.KindString, NotNull: true},
	types.Column{Name: "username", Kind: types.KindString},
	types.Column{Name: "start_ns", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "rows_read", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "rows_written", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "lock_waits", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "lock_wait_ns", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "wal_records", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "wal_bytes", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "buffer_hits", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "buffer_misses", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "chain_walks", Kind: types.KindInt, NotNull: true},
)

func userVal(u string) types.Value {
	if u == "" {
		return types.Null()
	}
	return types.Str(u)
}

func statsTail(st txn.StatsSnapshot) []types.Value {
	return []types.Value{
		types.Int(st.RowsRead),
		types.Int(st.RowsWritten),
		types.Int(st.LockWaits),
		types.Int(st.LockWaitNanos),
		types.Int(st.WALRecords),
		types.Int(st.WALBytes),
		types.Int(st.BufferHits),
		types.Int(st.BufferMisses),
		types.Int(st.ChainWalks),
	}
}

func activityRows(env *core.Env) ([]types.Record, error) {
	infos := env.Txns.ActiveSnapshot()
	rows := make([]types.Record, 0, len(infos))
	for _, in := range infos {
		rec := types.Record{
			types.Int(int64(in.ID)),
			types.Str(in.Mode),
			types.Str(in.State),
			userVal(in.User),
			types.Int(in.Start.UnixNano()),
		}
		rows = append(rows, append(rec, statsTail(in.Stats)...))
	}
	return rows, nil
}

// ---- sys.stat_history ----

var historySchema = types.MustSchema(
	types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "mode", Kind: types.KindString, NotNull: true},
	types.Column{Name: "outcome", Kind: types.KindString, NotNull: true},
	types.Column{Name: "username", Kind: types.KindString},
	types.Column{Name: "start_ns", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "end_ns", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "commit_stamp", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "rows_read", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "rows_written", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "lock_waits", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "lock_wait_ns", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "wal_records", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "wal_bytes", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "buffer_hits", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "buffer_misses", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "chain_walks", Kind: types.KindInt, NotNull: true},
)

func historyRows(env *core.Env) ([]types.Record, error) {
	fins := env.Txns.History()
	rows := make([]types.Record, 0, len(fins))
	for _, f := range fins {
		rec := types.Record{
			types.Int(int64(f.ID)),
			types.Str(f.Mode),
			types.Str(f.Outcome),
			userVal(f.User),
			types.Int(f.Start.UnixNano()),
			types.Int(f.End.UnixNano()),
			types.Int(int64(f.CommitStamp)),
		}
		rows = append(rows, append(rec, statsTail(f.Stats)...))
	}
	return rows, nil
}

// ---- sys.stat_relations ----

var relationsSchema = types.MustSchema(
	types.Column{Name: "rel_id", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "name", Kind: types.KindString, NotNull: true},
	types.Column{Name: "inserts", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "updates", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "deletes", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "fetches", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "scans", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "errors", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "rows_read", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "rows_written", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "sm_nanos", Kind: types.KindInt, NotNull: true},
)

func relationsRows(env *core.Env) ([]types.Record, error) {
	stats := env.RelStatRows()
	rows := make([]types.Record, 0, len(stats))
	for _, r := range stats {
		rows = append(rows, types.Record{
			types.Int(int64(r.RelID)),
			types.Str(r.Name),
			types.Int(r.Inserts),
			types.Int(r.Updates),
			types.Int(r.Deletes),
			types.Int(r.Fetches),
			types.Int(r.Scans),
			types.Int(r.Errors),
			types.Int(r.RowsRead),
			types.Int(r.RowsWritten),
			types.Int(r.SMNanos),
		})
	}
	return rows, nil
}

// ---- sys.stat_locks ----

var locksSchema = types.MustSchema(
	types.Column{Name: "txn", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "resource", Kind: types.KindString, NotNull: true},
	types.Column{Name: "mode", Kind: types.KindString, NotNull: true},
	types.Column{Name: "state", Kind: types.KindString, NotNull: true},
	types.Column{Name: "blockers", Kind: types.KindString},
)

func locksRows(env *core.Env) ([]types.Record, error) {
	held, waiting := env.Locks.SnapshotLocks()
	rows := make([]types.Record, 0, len(held)+len(waiting))
	for _, h := range held {
		rows = append(rows, types.Record{
			types.Int(int64(h.Txn)),
			types.Str(h.Res.String()),
			types.Str(h.Mode.String()),
			types.Str("held"),
			types.Null(),
		})
	}
	for _, w := range waiting {
		rows = append(rows, types.Record{
			types.Int(int64(w.Txn)),
			types.Str(w.Res.String()),
			types.Str(w.Mode.String()),
			types.Str("waiting"),
			types.Str(joinTxnIDs(w.Blockers)),
		})
	}
	return rows, nil
}

func joinTxnIDs(ids []wal.TxnID) string {
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(uint64(id), 10))
	}
	return b.String()
}

// ---- sys.stat_lsm ----

var lsmSchema = types.MustSchema(
	types.Column{Name: "rel_id", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "name", Kind: types.KindString, NotNull: true},
	types.Column{Name: "memtable", Kind: types.KindBool, NotNull: true},
	types.Column{Name: "run", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "tier", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "entries", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "bytes", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "bloom_bits", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "min_seq", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "max_seq", Kind: types.KindInt, NotNull: true},
)

func lsmRows(env *core.Env) ([]types.Record, error) {
	names := env.Cat.List()
	sort.Strings(names)
	var rows []types.Record
	for _, name := range names {
		rd, ok := env.Cat.ByName(name)
		if !ok || core.IsSystemRelID(rd.RelID) {
			continue
		}
		// Opening an instance is a side effect (connections, state); only
		// do it for the LSM method, whose instances are local and cheap.
		if rd.SM != core.SMAppend {
			continue
		}
		inst, err := env.StorageInstance(rd)
		if err != nil {
			return nil, err
		}
		li, ok := inst.(core.LSMIntrospector)
		if !ok {
			continue
		}
		for _, ri := range li.RunInfos() {
			rows = append(rows, types.Record{
				types.Int(int64(rd.RelID)),
				types.Str(rd.Name),
				types.Bool(ri.Memtable),
				types.Int(int64(ri.Pos)),
				types.Int(int64(ri.Tier)),
				types.Int(int64(ri.Entries)),
				types.Int(int64(ri.Bytes)),
				types.Int(int64(ri.BloomBits)),
				types.Int(int64(ri.MinSeq)),
				types.Int(int64(ri.MaxSeq)),
			})
		}
	}
	return rows, nil
}

// ---- sys.stat_shards ----

var shardsSchema = types.MustSchema(
	types.Column{Name: "rel_id", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "name", Kind: types.KindString, NotNull: true},
	types.Column{Name: "shard", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "server", Kind: types.KindString, NotNull: true},
	types.Column{Name: "table_name", Kind: types.KindString, NotNull: true},
	types.Column{Name: "records", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "in_doubt", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "messages", Kind: types.KindInt, NotNull: true},
)

func shardsRows(env *core.Env) ([]types.Record, error) {
	names := env.Cat.List()
	sort.Strings(names)
	var rows []types.Record
	for _, name := range names {
		rd, ok := env.Cat.ByName(name)
		if !ok || core.IsSystemRelID(rd.RelID) {
			continue
		}
		if rd.SM != core.SMPart && rd.SM != core.SMRemote {
			continue
		}
		inst, err := env.StorageInstance(rd)
		if err != nil {
			if rd.SM == core.SMRemote {
				// A database reopened with Recover attaches its foreign
				// servers afterwards; until then the relation has no
				// shard to report, and the other relations still do.
				continue
			}
			return nil, err
		}
		si, ok := inst.(core.ShardIntrospector)
		if !ok {
			continue
		}
		// in_doubt and messages are per-server figures: one server may
		// host several shards or relations.
		for _, info := range si.ShardInfos() {
			rows = append(rows, types.Record{
				types.Int(int64(rd.RelID)),
				types.Str(rd.Name),
				types.Int(int64(info.Shard)),
				types.Str(info.Server),
				types.Str(info.Table),
				types.Int(int64(info.Records)),
				types.Int(int64(info.InDoubt)),
				types.Int(info.Messages),
			})
		}
	}
	return rows, nil
}

// ---- sys.stat_buffer ----

var bufferSchema = types.MustSchema(
	types.Column{Name: "page", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "shard", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "pins", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "pinned", Kind: types.KindBool, NotNull: true},
	types.Column{Name: "dirty", Kind: types.KindBool, NotNull: true},
	types.Column{Name: "lsn", Kind: types.KindInt, NotNull: true},
)

func bufferRows(env *core.Env) ([]types.Record, error) {
	frames := env.Pool.FrameInfos()
	rows := make([]types.Record, 0, len(frames))
	for _, f := range frames {
		rows = append(rows, types.Record{
			types.Int(int64(f.Page)),
			types.Int(int64(f.Shard)),
			types.Int(int64(f.Pins)),
			types.Bool(f.Pinned),
			types.Bool(f.Dirty),
			types.Int(int64(f.LSN)),
		})
	}
	return rows, nil
}

// ---- sys.stat_traces ----

var tracesSchema = types.MustSchema(
	types.Column{Name: "txn", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "state", Kind: types.KindString, NotNull: true},
	types.Column{Name: "slow", Kind: types.KindBool, NotNull: true},
	types.Column{Name: "sampled", Kind: types.KindBool, NotNull: true},
	types.Column{Name: "spans", Kind: types.KindInt, NotNull: true},
	types.Column{Name: "root", Kind: types.KindString, NotNull: true},
	types.Column{Name: "dur_ns", Kind: types.KindInt, NotNull: true},
)

func tracesRows(env *core.Env) ([]types.Record, error) {
	traces := env.Tracer.Traces(0)
	rows := make([]types.Record, 0, len(traces))
	for _, t := range traces {
		rows = append(rows, types.Record{
			types.Int(int64(t.TxnID)),
			types.Str(t.State),
			types.Bool(t.Slow),
			types.Bool(t.Sampled),
			types.Int(int64(t.Spans)),
			types.Str(t.Root.Name),
			types.Int(t.Root.DurNanos),
		})
	}
	return rows, nil
}

// ---- sys.stat_metrics ----

var metricsSchema = types.MustSchema(
	types.Column{Name: "name", Kind: types.KindString, NotNull: true},
	types.Column{Name: "kind", Kind: types.KindString, NotNull: true},
	types.Column{Name: "labels", Kind: types.KindString, NotNull: true},
	types.Column{Name: "value", Kind: types.KindFloat, NotNull: true},
)

// metricsRows serves the list /metrics renders, one row per sample; a
// histogram is its _sum and _count rows (the buckets stay on /metrics).
func metricsRows(env *core.Env) ([]types.Record, error) {
	var rows []types.Record
	for _, f := range env.MetricFamilies() {
		for _, s := range f.Samples {
			if f.Kind == "histogram" && strings.HasSuffix(s.Name, "_bucket") {
				continue
			}
			rows = append(rows, types.Record{types.Str(s.Name), types.Str(f.Kind), types.Str(s.Labels), types.Float(s.Value)})
		}
	}
	return rows, nil
}
