// Package plan implements the query planner and executor over the
// extension architecture's generic interfaces.
//
// The planner hands each storage method and access-path attachment the
// query's eligible predicates; the extensions judge their relevance and
// report estimated I/O and CPU costs, and the planner picks the cheapest
// path ("the query planner will be able to determine the cost of using a
// storage method or attachment to scan a relation"). Access path zero is
// the storage method itself; an access-path plan first obtains record
// keys from the attachment and then fetches the records directly through
// the storage method.
//
// Plans are *bound*: translation embeds the relation descriptors, so
// execution touches no catalogs. Each bound plan records the identities
// and versions of the relations and access paths it depends on;
// executing a plan whose dependencies have changed automatically
// re-translates it first.
package plan

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// Query is a select-project query over one table, optionally equi-joined
// with a second.
type Query struct {
	Table  string
	Filter *expr.Expr // over Table's columns
	// Params are values for the parameter markers (expr.Param) in Filter,
	// used to price the access paths. The plan does not keep them: each
	// Execute binds its own.
	Params []types.Value
	Fields []int // projection over Table's columns (nil = all)
	// OrderBy asks for records ordered (ascending) by these Table columns;
	// the planner prefers an access path that delivers the order (check
	// Bound.Ordered; the caller sorts when it reports false).
	OrderBy []int
	// Limit hints how many rows the caller will pull (0 = all). An ordered
	// access streams, so with a small limit it beats scan-plus-sort even
	// though a full ordered pass would not.
	Limit int
	Join  *JoinSpec
	// ForUpdate says the caller will modify the rows the plan returns (SQL
	// UPDATE and DELETE). The plan is single-table, so its cursor is keyed
	// (Bound.ExecuteKeyed), and it takes its write locks before it reads:
	// relation IX plus record X on each probed record when the access is a
	// point probe, relation SIX for scans and ranges.
	ForUpdate bool
	// ForcePath, when set, pins the access path for Table instead of
	// cost-based selection — the differential tests use it to prove every
	// viable path returns the same rows.
	ForcePath *ForcedPath
	// ForceJoin pins the join strategy instead of the cost-based choice:
	// "" = automatic, "nl" = nested loop over the inner storage method
	// (access path zero), "indexnl" = nested loop over an inner path that
	// handles the join equality, "hash" = hash join. ErrForcedUnusable when
	// the strategy cannot run.
	ForceJoin string
}

// ForcedPath names one access path: Att 0 is the storage method scan
// (access path zero), any other value is that attachment type. Planning
// fails with ErrForcedUnusable when the forced path cannot answer the
// query (e.g. a hash index without an equality conjunct).
type ForcedPath struct {
	Att core.AttID
}

// ErrForcedUnusable reports that a ForcePath cannot serve the query.
var ErrForcedUnusable = fmt.Errorf("plan: forced access path not usable for this query")

// JoinSpec describes an equi-join with an inner table. The result records
// are the outer projection followed by the inner projection.
type JoinSpec struct {
	Table    string
	OuterCol int        // join column in the outer table
	InnerCol int        // join column in the inner table
	Filter   *expr.Expr // over the inner table's columns
	Fields   []int      // projection over the inner table's columns
	// ForcePath pins the inner access path as Query.ForcePath pins the
	// outer's (a join index: Att core.AttJoin), which makes the join a
	// nested loop probing that path with each outer row's join value.
	ForcePath *ForcedPath
}

// Rows is a tuple-at-a-time result cursor.
type Rows interface {
	Next() (types.Record, bool, error)
	Close() error
}

// KeyedRows is the cursor of a single-table plan: every such operator
// reaches its records by record key, and NextKeyed hands that key back
// with the record.
type KeyedRows interface {
	Rows
	NextKeyed() (types.Key, types.Record, bool, error)
}

// Planner translates queries against an environment.
type Planner struct {
	env *core.Env
}

// New returns a planner over env.
func New(env *core.Env) *Planner { return &Planner{env: env} }

// dep is one (relation, version) a bound plan depends on.
type dep struct {
	relID   uint32
	version uint64
}

// Bound is a bound (translated) query plan.
type Bound struct {
	planner *Planner
	query   Query
	root    builder
	outer   *access // the chosen access to Table, handed to root
	slots   int     // parameter values an execution binds (expr.NumParams of Filter)
	deps    []dep
	explain string
	ordered bool
	stats   []*OperatorStats // per-operator counters, reset each Execute
	// Replans counts automatic re-translations (for the experiments).
	Replans int
}

// Ordered reports whether the current translation delivers records in the
// query's requested order (so the caller can skip its sort). Check it
// after Execute: a re-translation may change the answer.
func (b *Bound) Ordered() bool { return b.ordered }

// builder constructs the operator tree for one execution over the access
// to Table with that execution's parameter values filled in.
type builder func(tx *txn.Txn, outer *access) (Rows, error)

// Plan translates q into a bound plan.
func (p *Planner) Plan(q Query) (*Bound, error) {
	params := q.Params
	q.Params = nil
	if q.Join != nil && expr.NumParams(q.Join.Filter) > 0 {
		return nil, fmt.Errorf("plan: the join's inner filter takes no parameter markers")
	}
	b := &Bound{planner: p, query: q, slots: expr.NumParams(q.Filter)}
	if err := b.translate(params); err != nil {
		return nil, err
	}
	return b, nil
}

// Explain describes the chosen access paths.
func (b *Bound) Explain() string { return b.explain }

// Execute validates the plan's dependencies (re-translating if any
// relation or access path it uses changed or disappeared) and runs it with
// params as the values of the filter's parameter markers. A plan with
// markers asks only its chosen access path for the key range under these
// values; it is translated again when that path cannot serve them or they
// fall in another cardinality class than the plan was chosen for.
func (b *Bound) Execute(tx *txn.Txn, params ...types.Value) (Rows, error) {
	if len(params) < b.slots {
		return nil, fmt.Errorf("plan: %d parameter values for %d markers", len(params), b.slots)
	}
	if !b.Valid() {
		if err := b.replan(params); err != nil {
			return nil, err
		}
	}
	outer := b.outer
	if b.slots > 0 {
		var same bool
		var err error
		if outer, same, err = b.bindOuter(params); err == nil && !same {
			if err = b.replan(params); err == nil {
				outer, _, err = b.bindOuter(params)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	b.stats = nil
	return b.root(tx, outer)
}

// replan translates the plan again, pricing with params, and counts it.
func (b *Bound) replan(params []types.Value) error {
	if err := b.translate(params); err != nil {
		return fmt.Errorf("plan: re-translation failed: %w", err)
	}
	b.Replans++
	b.planner.env.Obs.Plan.Replans.Inc()
	return nil
}

// bindOuter returns the plan's outer access rebound to params. same
// reports that the path still serves them in the plan's cardinality class:
// the same point flag and power-of-4 bucket of expected rows as well.
func (b *Bound) bindOuter(params []types.Value) (a *access, same bool, err error) {
	o, p := b.outer, b.planner
	filter := expr.Bind(o.filter, params)
	req, _, err := p.costRequest(o.rd, filter, b.query.OrderBy)
	if err != nil {
		return nil, false, err
	}
	path, err := p.pathOf(o.rd, o.useAtt)
	if err != nil {
		return nil, false, err
	}
	a, serves := rebind(o, filter, params, req, path)
	return a, serves && a.estimate.Point == o.estimate.Point && rowClass(a.rows) == rowClass(o.rows), nil
}

// rebind returns the chosen access a with params filled in: filter is a's
// filter bound to them, req the relation's cost request over its
// conjuncts, and start, end and the point flag are path's answer to req.
// serves reports that the path still answers as planned — usable, the same
// instance, the same conjuncts handled, so the residual is complete. The
// outer access rebinds once per execution, a nested-loop join's inner
// access once per outer row.
func rebind(a *access, filter *expr.Expr, params []types.Value, req core.CostRequest, path costModel) (*access, bool) {
	bound := *a
	bound.filter, bound.pushdown = filter, expr.Bind(a.pushdown, params)
	est := path.EstimateCost(req)
	bound.start, bound.end, bound.estimate = est.Start, est.End, est
	bound.rows = expectedRows(req.RecordCount, est)
	return &bound, est.Usable && est.Instance == a.instance && slices.Equal(est.Handled, a.estimate.Handled)
}

// rowClass is the power-of-4 bucket of an expected row count.
func rowClass(rows float64) int {
	c := 0
	for ; rows >= 4 && c < 32; rows /= 4 {
		c++
	}
	return c
}

// ExecuteKeyed is Execute for plans whose cursor carries record keys:
// single-table plans, which a ForUpdate query always is.
func (b *Bound) ExecuteKeyed(tx *txn.Txn, params ...types.Value) (KeyedRows, error) {
	rows, err := b.Execute(tx, params...)
	if err != nil {
		return nil, err
	}
	keyed, ok := rows.(KeyedRows)
	if !ok {
		rows.Close()
		return nil, fmt.Errorf("plan: %s does not deliver record keys", b.explain)
	}
	return keyed, nil
}

// Valid reports whether every relation the plan depends on is still at the
// version it was translated against.
func (b *Bound) Valid() bool {
	for _, d := range b.deps {
		rd, ok := b.planner.env.Cat.Get(d.relID)
		if !ok || rd.Version != d.version {
			return false
		}
	}
	return true
}

// access describes a chosen single-table access path.
type access struct {
	rd       *core.RelDesc
	useAtt   core.AttID // 0 = storage method (access path zero)
	instance int
	start    types.Key
	end      types.Key
	filter   *expr.Expr // the whole single-table predicate
	pushdown *expr.Expr // conjuncts the path does NOT handle (re-applied)
	estimate core.CostEstimate
	rows     float64 // expected qualifying records (RecordCount × Selectivity)
	name     string  // the operator's name in every execution
}

// costRequest is what the planner asks rd's access paths about filter.
func (p *Planner) costRequest(rd *core.RelDesc, filter *expr.Expr, orderBy []int) (core.CostRequest, core.StorageInstance, error) {
	sm, err := p.env.StorageInstance(rd)
	if err != nil {
		return core.CostRequest{}, nil, err
	}
	conjuncts := expr.Conjuncts(filter)
	ts, hasStats := p.tableStatsFor(rd)
	return core.CostRequest{
		Conjuncts:   conjuncts,
		OrderBy:     orderBy,
		ConjunctSel: conjunctSels(ts, hasStats, conjuncts),
		RecordCount: sm.RecordCount(),
	}, sm, nil
}

// costModel is what the planner asks of an access path: the storage
// method (core.StorageInstance) or an attachment (core.AccessPath).
type costModel interface {
	EstimateCost(req core.CostRequest) core.CostEstimate
}

// pathOf returns rd's access path att, its storage method when att is 0.
func (p *Planner) pathOf(rd *core.RelDesc, att core.AttID) (costModel, error) {
	if att == 0 {
		return p.env.StorageInstance(rd)
	}
	inst, err := p.env.AttachmentInstance(rd, att)
	if err != nil {
		return nil, err
	}
	ap, ok := inst.(core.AccessPath)
	if !ok {
		return nil, fmt.Errorf("%w: attachment %d is not an access path", ErrForcedUnusable, att)
	}
	return ap, nil
}

func expectedRows(recordCount int, est core.CostEstimate) float64 {
	return float64(recordCount) * est.Selectivity
}

// chooseAccess asks the storage method and every access-path attachment
// for a cost estimate of filter with params filled in and picks the
// cheapest — or, when force is set, exactly the requested path. It returns
// the cost request the paths were asked.
func (p *Planner) chooseAccess(rd *core.RelDesc, filter *expr.Expr, params []types.Value, orderBy []int, limit int, force *ForcedPath) (*access, core.CostRequest, error) {
	bound := expr.Bind(filter, params)
	req, sm, err := p.costRequest(rd, bound, orderBy)
	if err != nil {
		return nil, req, err
	}
	conjuncts := req.Conjuncts // of filter itself when it has no parameter
	if bound != filter {
		conjuncts = expr.Conjuncts(filter)
	}
	pick := func(att core.AttID, est core.CostEstimate) *access {
		a := &access{rd: rd, useAtt: att, instance: est.Instance, start: est.Start, end: est.End,
			estimate: est, rows: expectedRows(req.RecordCount, est)}
		return withResidual(a, filter, conjuncts)
	}

	// When an order is requested, accesses that do not deliver it pay the
	// in-memory sort the caller will have to run; accesses that do deliver
	// it stream, so a row limit scales their cost down (top-k queries).
	adjusted := func(est core.CostEstimate) float64 {
		t := est.Total()
		if len(orderBy) == 0 {
			return t
		}
		expected := expectedRows(req.RecordCount, est)
		if !est.Ordered {
			return t + expected*math.Log2(expected+2)*0.1
		}
		if limit > 0 && expected > float64(limit) {
			t *= float64(limit) / expected
		}
		return t
	}

	if force != nil && force.Att != 0 {
		path, err := p.pathOf(rd, force.Att)
		if err != nil {
			return nil, req, err
		}
		est := path.EstimateCost(req)
		if !est.Usable {
			return nil, req, fmt.Errorf("%w: attachment %d", ErrForcedUnusable, force.Att)
		}
		return pick(force.Att, est), req, nil
	}

	bestAtt, best := core.AttID(0), sm.EstimateCost(req)
	if force != nil {
		if !best.Usable {
			return nil, req, fmt.Errorf("%w: storage method scan", ErrForcedUnusable)
		}
		return pick(0, best), req, nil
	}

	for _, attID := range rd.AttachmentTypes() {
		inst, err := p.env.AttachmentInstance(rd, attID)
		if err != nil {
			return nil, req, err
		}
		ap, ok := inst.(core.AccessPath)
		if !ok {
			continue
		}
		est := ap.EstimateCost(req)
		if !est.Usable {
			continue
		}
		if !best.Usable || adjusted(est) < adjusted(best) {
			bestAtt, best = attID, est
		}
	}
	return pick(bestAtt, best), req, nil
}

// withResidual records the conjuncts of filter the chosen path does not
// handle; the executor re-applies them against the fetched records.
// Binding parameters keeps the conjunct order, so the path's Handled
// indexes address the unbound filter's conjuncts too.
func withResidual(a *access, filter *expr.Expr, conjuncts []*expr.Expr) *access {
	a.filter = filter
	var residual []*expr.Expr
	for i, c := range conjuncts {
		if !slices.Contains(a.estimate.Handled, i) {
			residual = append(residual, c)
		}
	}
	a.pushdown = expr.And(residual...)
	return a
}

// via names a's path: "emp via heap" for the storage method, "emp via
// btree #0" for an attachment instance.
func (a *access) via(env *core.Env) string {
	if a.useAtt == 0 {
		return a.rd.Name + " via " + env.Reg.StorageOps(a.rd.SM).Name
	}
	return a.rd.Name + " via " + env.Reg.AttachmentOps(a.useAtt).Name + " #" + strconv.Itoa(a.instance)
}

func (a *access) describe(env *core.Env) string {
	if a.useAtt == 0 {
		return "scan(" + a.via(env) + ")"
	}
	return "access(" + a.via(env) + ")"
}

// translate plans the query, pricing with params, and captures
// dependencies.
func (b *Bound) translate(params []types.Value) error {
	p := b.planner
	b.deps = nil
	rd, ok := p.env.Cat.ByName(b.query.Table)
	if !ok {
		return fmt.Errorf("plan: %w: relation %q", core.ErrNotFound, b.query.Table)
	}
	b.deps = append(b.deps, dep{rd.RelID, rd.Version})
	if b.query.ForUpdate && b.query.Join != nil {
		return fmt.Errorf("plan: a ForUpdate query reads one table")
	}

	outer, _, err := p.chooseAccess(rd, b.query.Filter, params, b.query.OrderBy, b.query.Limit, b.query.ForcePath)
	if err != nil {
		return err
	}
	outer.name = outer.describe(p.env)
	b.outer = outer

	if b.query.Join == nil {
		q := &b.query
		b.ordered = outer.estimate.Ordered
		b.explain = outer.name
		if b.ordered {
			b.explain += " [ordered]"
		}
		b.root = func(tx *txn.Txn, outer *access) (Rows, error) {
			return p.openAccess(tx, b, outer, q.Fields, q.ForUpdate)
		}
		return nil
	}
	b.ordered = false

	// Join planning.
	q := b.query
	j := q.Join
	innerRD, ok := p.env.Cat.ByName(j.Table)
	if !ok {
		return fmt.Errorf("plan: %w: relation %q", core.ErrNotFound, j.Table)
	}
	b.deps = append(b.deps, dep{innerRD.RelID, innerRD.Version})
	if j.OuterCol < 0 || j.OuterCol >= len(rd.Schema.Cols) || j.InnerCol < 0 || j.InnerCol >= len(innerRD.Schema.Cols) {
		return fmt.Errorf("plan: join column out of range")
	}

	// The nested loop's inner side is an access chosen like the outer's, its
	// filter the join equality on the first free parameter slot, which each
	// outer row binds, plus the inner filter; j.ForcePath pins its path. The
	// inner is pinned to path zero over the inner filter alone, the join
	// equality re-applied to each record it scans, for ForceJoin "nl" and
	// for join columns of different kinds: Int(1) and Float(1) compare equal
	// but hash and encode differently, so neither a hash table nor a keyed
	// path matches them.
	kind := innerRD.Schema.Cols[j.InnerCol].Kind
	hashable := rd.Schema.Cols[j.OuterCol].Kind == kind
	pinned := q.ForceJoin == "nl" || !hashable
	if j.ForcePath != nil && (pinned || q.ForceJoin == "hash") {
		return fmt.Errorf("%w: a pinned inner path is probed by a nested loop over join columns of one kind", ErrForcedUnusable)
	}
	eq := expr.Eq(expr.Field(j.InnerCol), expr.Param(b.slots))
	var inner *access
	var req core.CostRequest
	if pinned {
		if inner, _, err = p.chooseAccess(innerRD, j.Filter, nil, nil, 0, &ForcedPath{Att: 0}); err != nil {
			return err
		}
		inner.filter, inner.pushdown = expr.And(eq, j.Filter), expr.And(eq, inner.pushdown)
	} else {
		// An equality's estimate depends on its column, not its value, so a
		// value of the column's kind prices the join slot.
		vals := make([]types.Value, b.slots+1)
		vals[b.slots] = types.Value{K: kind}
		if inner, req, err = p.chooseAccess(innerRD, expr.And(eq, j.Filter), vals, nil, 0, j.ForcePath); err != nil {
			return err
		}
	}
	keyed := !pinned && slices.Contains(inner.estimate.Handled, 0) // conjunct 0 is the join equality
	// A hash join's build is the inner filter's own planned access.
	build, _, err := p.chooseAccess(innerRD, j.Filter, nil, nil, 0, nil)
	if err != nil {
		return err
	}
	build.name = build.describe(p.env)

	strategy := q.ForceJoin
	switch strategy {
	case "":
		strategy = "nl"
		if nl, hash := joinCosts(outer, inner, build); j.ForcePath == nil && hashable && hash < nl {
			strategy = "hash"
		}
	case "nl":
	case "indexnl":
		if !keyed {
			return fmt.Errorf("%w: no path on %s handles the join column", ErrForcedUnusable, innerRD.Name)
		}
	case "hash":
		if !hashable {
			return fmt.Errorf("%w: join columns of %s and %s hash incompatibly",
				ErrForcedUnusable, rd.Name, innerRD.Name)
		}
	default:
		return fmt.Errorf("plan: unknown ForceJoin %q", q.ForceJoin)
	}

	nl := nlRows{q: q, inner: inner}
	if strategy == "hash" {
		b.explain = fmt.Sprintf("hash(%s ⋈ %s)", outer.name, build.name)
		inner.name = "hash(" + build.via(p.env) + ")"
		b.root = func(tx *txn.Txn, outer *access) (Rows, error) {
			return p.openHashJoin(tx, b, outer, nl, build)
		}
		return nil
	}
	b.explain = fmt.Sprintf("nestedloop(%s × %s)", outer.name, inner.describe(p.env))
	inner.name = "nestedloop(" + inner.via(p.env) + ")"
	if keyed {
		b.explain = fmt.Sprintf("indexNL(%s ⟕probe %s)", outer.name, inner.describe(p.env))
		inner.name = "probe(" + inner.via(p.env) + ")"
		if nl.path, err = p.pathOf(innerRD, inner.useAtt); err != nil {
			return err
		}
		nl.req = req
	}
	b.root = func(tx *txn.Txn, outer *access) (Rows, error) {
		return p.openNL(tx, b, outer, nl)
	}
	return nil
}

// --- executors ---

// openAccess opens a single-table cursor over the chosen access path,
// registered with b for per-operator execution counters.
func (p *Planner) openAccess(tx *txn.Txn, b *Bound, a *access, fields []int, forUpdate bool) (Rows, error) {
	rel, err := p.env.OpenRelation(a.rd)
	if err != nil {
		return nil, err
	}
	rows, err := openAccessRaw(tx, rel, a, fields, forUpdate)
	if err != nil {
		return nil, err
	}
	return b.trackKeyed(tx, a.name, rows), nil
}

// openAccessRaw opens the cursor of access a to rel, a's relation.
func openAccessRaw(tx *txn.Txn, rel *core.Relation, a *access, fields []int, forUpdate bool) (KeyedRows, error) {
	if forUpdate {
		if err := rel.LockForWrite(tx, !a.estimate.Point); err != nil {
			return nil, err
		}
	}
	if a.useAtt == 0 {
		scan, err := rel.OpenScan(tx, core.ScanOptions{
			Start: a.start, End: a.end, Filter: a.pushdown, Fields: fields,
		})
		if err != nil {
			return nil, err
		}
		return scanRows{scan: scan}, nil
	}
	// An equality on the path's whole key (CostEstimate.Point; the only
	// access a hash index offers) is a direct-by-key probe. The probe holds
	// only an intention lock on the relation, so each record is judged
	// against the whole predicate once its own lock is held: a record that
	// changed or vanished since the probe is skipped. A key-sequential
	// access hands the fetch its pushed-down residual.
	filter := a.pushdown
	if a.estimate.Point {
		filter = a.filter
	}
	f, err := rel.OpenAccessFetch(tx, a.useAtt, a.instance, a.estimate.Point,
		core.ScanOptions{Start: a.start, End: a.end, Filter: filter, Fields: fields}, forUpdate)
	if err != nil {
		return nil, err
	}
	return fetchRows{f}, nil
}

// scanRows adapts a storage-method scan.
type scanRows struct{ scan core.Scan }

func (r scanRows) NextKeyed() (types.Key, types.Record, bool, error) { return r.scan.Next() }

func (r scanRows) Next() (types.Record, bool, error) {
	_, rec, ok, err := r.scan.Next()
	return rec, ok, err
}

func (r scanRows) Close() error { return r.scan.Close() }

// fetchRows adapts an index-then-fetch cursor. It is one pointer, so it
// converts to KeyedRows without an allocation.
type fetchRows struct{ *core.AccessFetch }

func (r fetchRows) NextKeyed() (types.Key, types.Record, bool, error) { return r.AccessFetch.Next() }

func (r fetchRows) Next() (types.Record, bool, error) {
	_, rec, ok, err := r.AccessFetch.Next()
	return rec, ok, err
}

// openHashJoin reads the build access into one table keyed by join value,
// then opens the nested loop whose inner side, for each outer value, is
// that value's records in the table. The build decodes only the fields the
// join returns and the join column. A NULL key never matches, so it is not
// built.
func (p *Planner) openHashJoin(tx *txn.Txn, b *Bound, outer *access, r nlRows, build *access) (Rows, error) {
	tr := tx.Trace()
	var start time.Time
	if tr.Detailed() { // the clock is read, and the event formatted, only for the trace
		start = time.Now()
	}
	j := r.q.Join
	fields, col := withJoinCol(j.Fields, j.InnerCol)
	rows, err := p.openAccess(tx, b, build, fields, false)
	if err != nil {
		return nil, err
	}
	t := newHashTable(build.rows)
	rec, ok, err := rows.Next()
	for ; ok && err == nil; rec, ok, err = rows.Next() {
		if kv := rec[col]; !kv.IsNull() {
			if fields != nil {
				rec = rec[:col:col]
			}
			t.add(kv, rec)
		}
	}
	if cerr := rows.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	t.index()
	r.table = t
	p.env.Obs.Plan.HashJoins.Inc()
	if tr.Detailed() {
		tr.Event("plan.hashjoin", "plan", fmt.Sprintf("build rows=%d", len(t.recs)), start, time.Since(start), nil)
	}
	return p.openNL(tx, b, outer, r)
}

// withJoinCol is the field list a join side reads: the fields it returns,
// then its join column, which col indexes in what it reads. nil fields
// read the whole record, the join column in its own place.
func withJoinCol(fields []int, joinCol int) (read []int, col int) {
	if fields == nil {
		return nil, joinCol
	}
	return append(slices.Clip(fields), joinCol), len(fields)
}

// hashTable is a hash join's build: the built records in build order, and
// for each encoded join value the chain of its records through next.
// add collects them, their encoded values in one buffer; index then keys
// the map by substrings of one string made from it, so the build costs a
// few allocations, not one per record or per value.
type hashTable struct {
	recs  []types.Record
	next  []int32          // next[i]: the record after i with i's value, or -1
	chain map[string]chain // encoded join value → its first and last record
	enc   []byte           // add: the encoded join values, back to back
	ends  []int            // add: where each record's value ends in enc
}

type chain struct{ first, last int32 }

// newHashTable sizes a table for the build's estimated row count, up to
// 4 096 rows (128 KB): a build past that reads enough rows for a few
// doublings not to matter, and an estimate too high costs no more.
func newHashTable(estimate float64) *hashTable {
	n := 1
	if estimate > 0 {
		n += int(min(estimate, 1<<12))
	}
	return &hashTable{recs: make([]types.Record, 0, n), ends: make([]int, 0, n)}
}

func (t *hashTable) add(kv types.Value, rec types.Record) {
	t.enc = kv.AppendOrderedEncode(t.enc)
	t.recs, t.ends = append(t.recs, rec), append(t.ends, len(t.enc))
}

func (t *hashTable) index() {
	keys := string(t.enc)
	t.chain = make(map[string]chain, len(t.recs))
	t.next = make([]int32, len(t.recs))
	from := 0
	for i, end := range t.ends {
		k, at := keys[from:end], int32(i)
		from = end
		t.next[i] = -1
		if c, ok := t.chain[k]; ok {
			t.next[c.last] = at
			t.chain[k] = chain{c.first, at}
		} else {
			t.chain[k] = chain{at, at}
		}
	}
	t.enc, t.ends = nil, nil
}

// match is the cursor over the records whose encoded join value is key.
func (t *hashTable) match(key []byte) matchRows {
	if c, ok := t.chain[string(key)]; ok {
		return matchRows{t: t, at: c.first}
	}
	return matchRows{at: -1}
}

// openNL opens the nested-loop join from r, the cursor as translation left
// it: the inner access and, when its path handles the join equality, that
// path and the cost request it was chosen with. Each outer row then only
// binds its join value and asks the path for that value's key range (the
// tuple-at-a-time call volume of E2).
func (p *Planner) openNL(tx *txn.Txn, b *Bound, outer *access, r nlRows) (Rows, error) {
	rel, err := p.env.OpenRelation(r.inner.rd)
	if err != nil {
		return nil, err
	}
	fields, col := withJoinCol(r.q.Fields, r.q.Join.OuterCol)
	outerRows, err := p.openAccess(tx, b, outer, fields, false)
	if err != nil {
		return nil, err
	}
	r.tx, r.rel, r.outer, r.params, r.outerCol = tx, rel, outerRows, make([]types.Value, b.slots+1), col
	return b.track(tx, r.inner.name, &r), nil
}

// nlRows is the nested-loop join cursor: for each outer row it opens the
// inner access bound to the row's join value and drains it. A hash join's
// inner is its built table instead.
type nlRows struct {
	tx     *txn.Txn
	q      Query
	outer  Rows
	inner  *access // the join value unbound
	rel    *core.Relation
	path   costModel        // the inner path, when it handles the join equality
	req    core.CostRequest // what path was asked at translation
	params []types.Value    // the last slot takes the join value

	table *hashTable // a hash join's build
	key   []byte     // the encoded join value, reused
	match matchRows  // the table's cursor for curOuter

	outerCol int                     // the join column's index in an outer row (withJoinCol)
	out      types.Slab[types.Value] // the joined rows

	curOuter types.Record
	rows     Rows // the inner cursor for curOuter
}

func (r *nlRows) Next() (types.Record, bool, error) {
	for {
		if r.rows == nil {
			rec, ok, err := r.outer.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			v := rec[r.outerCol]
			if v.IsNull() {
				continue // NULL never equi-joins
			}
			if r.rows, err = r.open(v); err != nil {
				return nil, false, err
			}
			if r.q.Fields != nil {
				rec = rec[:len(r.q.Fields)] // the join column stays behind
			}
			r.curOuter = rec
		}
		inner, ok, err := r.rows.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			err := r.rows.Close()
			r.rows = nil
			if err != nil {
				return nil, false, err
			}
			continue
		}
		out := r.out.Take(len(r.curOuter) + len(inner))
		copy(out[copy(out, r.curOuter):], inner)
		return out, true, nil
	}
}

// open binds v and opens the inner access for it. A hash join's inner is
// v's slice of the table. An inner whose path handles the join equality
// asks the path for v's range, and scans the storage method under the
// whole predicate when the path cannot serve v; any other inner re-applies
// the bound equality to what it reads.
func (r *nlRows) open(v types.Value) (Rows, error) {
	if r.table != nil {
		r.key = v.AppendOrderedEncode(r.key[:0])
		r.match = r.table.match(r.key)
		return &r.match, nil
	}
	r.params[len(r.params)-1] = v
	filter := expr.Bind(r.inner.filter, r.params)
	var a *access
	if r.path == nil {
		bound := *r.inner
		bound.filter, bound.pushdown = filter, expr.Bind(r.inner.pushdown, r.params)
		a = &bound
	} else {
		req := r.req
		req.Conjuncts = expr.Conjuncts(filter)
		var serves bool
		if a, serves = rebind(r.inner, filter, r.params, req, r.path); !serves {
			a = &access{rd: a.rd, filter: filter, pushdown: filter}
		}
	}
	return openAccessRaw(r.tx, r.rel, a, r.q.Join.Fields, false)
}

func (r *nlRows) Close() error {
	err := r.outer.Close()
	if r.rows != nil {
		if cerr := r.rows.Close(); err == nil {
			err = cerr
		}
		r.rows = nil
	}
	return err
}

// matchRows is a hash join's inner cursor: the built records of one join
// value, in build order.
type matchRows struct {
	t  *hashTable
	at int32 // the next record, or -1
}

func (m *matchRows) Next() (types.Record, bool, error) {
	if m.at < 0 {
		return nil, false, nil
	}
	rec := m.t.recs[m.at]
	m.at = m.t.next[m.at]
	return rec, true, nil
}

func (m *matchRows) Close() error { return nil }

// Collect drains rows into a slice (test and example convenience).
func Collect(rows Rows, err error) ([]types.Record, error) {
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []types.Record
	for {
		rec, ok, err := rows.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, rec)
	}
}
