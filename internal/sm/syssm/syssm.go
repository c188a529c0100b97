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
// A view is declared once, by the Go type of its rows: each exported field
// is a column named by its json tag (see layout), so the schema and every
// row come from the struct the engine already fills.
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
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"dmx/internal/buffer"
	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/sm/appendsm"
	"dmx/internal/sm/partsm"
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
	newView("sys.stat_activity", func(env *core.Env) ([]txn.TxnInfo, error) { return env.Txns.ActiveSnapshot(), nil }),
	newView("sys.stat_history", func(env *core.Env) ([]txn.FinishedTxn, error) { return env.Txns.History(), nil }),
	newView("sys.stat_relations", func(env *core.Env) ([]core.RelStatRow, error) { return env.RelStatRows(), nil }),
	newView("sys.stat_locks", locksRows),
	newView("sys.stat_lsm", relationRows[appendsm.RunInfo](core.SMAppend)),
	newView("sys.stat_buffer", func(env *core.Env) ([]buffer.FrameInfo, error) { return env.Pool.FrameInfos(), nil }),
	newView("sys.stat_traces", tracesRows),
	newView("sys.stat_shards", relationRows[partsm.ShardInfo](core.SMPart, core.SMRemote)),
	newView("sys.stat_metrics", metricsRows),
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

// newView declares the system relation whose rows are the values rows
// returns: R's fields are its columns.
func newView[R any](name string, rows func(*core.Env) ([]R, error)) view {
	l := layout(reflect.TypeFor[R]())
	return view{name, types.MustSchema(l.cols...), func(env *core.Env) ([]types.Record, error) {
		rs, err := rows(env)
		if err != nil {
			return nil, err
		}
		recs := make([]types.Record, len(rs))
		for i := range rs {
			recs[i] = l.record(reflect.ValueOf(&rs[i]).Elem())
		}
		return recs, nil
	}}
}

// rowLayout is the column list of a row type and where each column's
// value lives in it.
type rowLayout struct {
	cols  []types.Column
	paths [][]int // reflect field index of each column
}

var timeType = reflect.TypeFor[time.Time]()

// layout walks a row type. Each exported field is one column, in field
// order, named by its json tag; an embedded struct adds its fields in
// place, as encoding/json does. Integers and time.Time (as Unix ns) are
// INT, plus bool, string and float64. omitempty makes the column nullable,
// its zero value reading as NULL; every other column is NOT NULL.
func layout(t reflect.Type) rowLayout {
	var l rowLayout
	for _, f := range reflect.VisibleFields(t) {
		if f.Anonymous || !f.IsExported() {
			continue
		}
		name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" {
			panic(fmt.Sprintf("syssm: %s.%s has no json column name", t, f.Name))
		}
		var c types.Column
		c.Name, c.NotNull = name, !strings.Contains(opts, "omitempty")
		switch k := f.Type.Kind(); {
		case f.Type == timeType, reflect.Int <= k && k <= reflect.Uint64:
			c.Kind = types.KindInt
		case k == reflect.Bool:
			c.Kind = types.KindBool
		case k == reflect.String:
			c.Kind = types.KindString
		case k == reflect.Float64:
			c.Kind = types.KindFloat
		default:
			panic(fmt.Sprintf("syssm: %s.%s: no column kind for %s", t, f.Name, f.Type))
		}
		l.cols = append(l.cols, c)
		l.paths = append(l.paths, f.Index)
	}
	return l
}

// record reads one row struct into its column values.
func (l rowLayout) record(row reflect.Value) types.Record {
	rec := make(types.Record, len(l.cols))
	for i, c := range l.cols {
		f := row.FieldByIndex(l.paths[i])
		switch {
		case !c.NotNull && f.IsZero():
			rec[i] = types.Null()
		case f.Type() == timeType:
			rec[i] = types.Int(f.Interface().(time.Time).UnixNano())
		case c.Kind == types.KindBool:
			rec[i] = types.Bool(f.Bool())
		case c.Kind == types.KindString:
			rec[i] = types.Str(f.String())
		case c.Kind == types.KindFloat:
			rec[i] = types.Float(f.Float())
		case f.CanInt():
			rec[i] = types.Int(f.Int())
		default:
			rec[i] = types.Int(int64(f.Uint()))
		}
	}
	return rec
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

// seek returns the ordinal of the first of n rows whose key is at least k
// (strictly after k when after is set). Keys compare as bytes, so any key
// is a bound, whatever its length.
func seek(n int, k types.Key, after bool) int {
	return sort.Search(n, func(i int) bool {
		c := ordKey(i).Compare(k)
		return c > 0 || c == 0 && !after
	})
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
func (s *store) FetchByKey(tx *txn.Txn, key types.Key, fields []int, filter *expr.Program) (types.Record, error) {
	if len(key) != 8 {
		return nil, fmt.Errorf("syssm: bad record key length %d", len(key))
	}
	rows, err := s.gen(s.env)
	if err != nil {
		return nil, err
	}
	ord := binary.BigEndian.Uint64(key)
	if ord >= uint64(len(rows)) {
		return nil, fmt.Errorf("syssm: %w: %s row %d", core.ErrNotFound, s.rd.Name, ord)
	}
	q := smutil.CompiledQualifier(filter, fields)
	return q.FetchRecord(rows[ord])
}

// OpenScan implements core.StorageInstance: the view is materialized once
// at open — a consistent snapshot of the engine structure it reflects —
// and iterated without touching live state again.
func (s *store) OpenScan(tx *txn.Txn, opts core.ScanOptions) (core.Scan, error) {
	rows, err := s.gen(s.env)
	if err != nil {
		return nil, err
	}
	sc := &scan{store: s, rows: rows, opts: opts, q: smutil.NewQualifier(s.env, opts), end: len(rows)}
	if opts.End != nil {
		sc.end = seek(len(rows), opts.End, false)
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
func (s *store) ApplyLogged(wal.TxnID, []byte, bool) error {
	return fmt.Errorf("syssm: %s: unexpected log record for a virtual relation", s.rd.Name)
}

// scan iterates a materialized view batch, on the key of the last row it
// returned like every other storage method's scan.
type scan struct {
	store *store
	rows  []types.Record
	opts  core.ScanOptions
	q     smutil.Qualifier
	end   int // exclusive ordinal bound
	smutil.Position
}

func (sc *scan) Next() (types.Key, types.Record, bool, error) {
	if sc.Closed {
		return nil, nil, false, fmt.Errorf("syssm: scan is closed")
	}
	i := seek(len(sc.rows), sc.opts.Start, false)
	if sc.Started {
		i = seek(len(sc.rows), sc.After, true)
	}
	for ; i < sc.end; i++ {
		key := ordKey(i)
		sc.Started, sc.After = true, key
		rec, ok, err := sc.q.Record(sc.rows[i])
		if err != nil {
			return nil, nil, false, err
		}
		if ok {
			return key, rec, true, nil
		}
	}
	return nil, nil, false, nil
}

// ---- row types without an engine struct of their own ----

// lockRow is one sys.stat_locks row.
type lockRow struct {
	Txn      wal.TxnID `json:"txn"`
	Resource string    `json:"resource"`
	Mode     string    `json:"mode"`
	State    string    `json:"state"`              // held | waiting
	Blockers string    `json:"blockers,omitempty"` // a waiter's blocking transactions, comma-separated
}

func locksRows(env *core.Env) ([]lockRow, error) {
	held, waiting := env.Locks.SnapshotLocks()
	rows := make([]lockRow, 0, len(held)+len(waiting))
	for _, h := range held {
		rows = append(rows, lockRow{Txn: h.Txn, Resource: h.Res.String(), Mode: h.Mode.String(), State: "held"})
	}
	for _, w := range waiting {
		ids := make([]string, len(w.Blockers))
		for i, id := range w.Blockers {
			ids[i] = strconv.FormatUint(uint64(id), 10)
		}
		rows = append(rows, lockRow{Txn: w.Txn, Resource: w.Res.String(), Mode: w.Mode.String(), State: "waiting",
			Blockers: strings.Join(ids, ",")})
	}
	return rows, nil
}

// relationRows serves a per-relation view: the SysRows of every relation
// stored by one of sms, in name order. The storage method declares the row
// type R in its own package. Opening an instance is a side effect
// (connections, state), so no other relation is opened.
func relationRows[R any](sms ...core.SMID) func(*core.Env) ([]R, error) {
	return func(env *core.Env) ([]R, error) {
		var out []R
		for _, rd := range env.Cat.Relations() {
			if !slices.Contains(sms, rd.SM) {
				continue
			}
			inst, err := env.StorageInstance(rd)
			if err != nil {
				return nil, err
			}
			if src, ok := inst.(interface{ SysRows() []R }); ok {
				out = append(out, src.SysRows()...)
			}
		}
		return out, nil
	}
}

// traceRow is one sys.stat_traces row: a completed trace and its root span.
type traceRow struct {
	Txn     uint64 `json:"txn"`
	State   string `json:"state"`
	Slow    bool   `json:"slow"`
	Sampled bool   `json:"sampled"`
	Spans   int    `json:"spans"`
	Root    string `json:"root"`
	DurNS   int64  `json:"dur_ns"`
}

func tracesRows(env *core.Env) ([]traceRow, error) {
	traces := env.Tracer.Traces(0)
	rows := make([]traceRow, 0, len(traces))
	for _, t := range traces {
		rows = append(rows, traceRow{Txn: t.TxnID, State: t.State, Slow: t.Slow, Sampled: t.Sampled,
			Spans: t.Spans, Root: t.Root.Name, DurNS: t.Root.DurNanos})
	}
	return rows, nil
}

// metricRow is one sys.stat_metrics row, a sample /metrics prints.
type metricRow struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Labels string  `json:"labels"`
	Value  float64 `json:"value"`
}

// metricsRows serves the list /metrics renders, one row per sample; a
// histogram is its _sum and _count rows (the buckets stay on /metrics).
func metricsRows(env *core.Env) ([]metricRow, error) {
	var rows []metricRow
	for _, f := range env.MetricFamilies() {
		for _, s := range f.Samples {
			if f.Kind == "histogram" && strings.HasSuffix(s.Name, "_bucket") {
				continue
			}
			rows = append(rows, metricRow{Name: s.Name, Kind: f.Kind, Labels: s.Labels, Value: s.Value})
		}
	}
	return rows, nil
}
