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
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/sm/smutil"
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
	// UPDATE and DELETE). The plan is single-table and serial, so its
	// cursor is keyed (Bound.ExecuteKeyed), and it takes its write locks
	// before it reads: relation IX plus record X on each probed record
	// when the access is a point probe, relation SIX for scans and ranges.
	ForUpdate bool
	// ForcePath, when set, pins the access path for Table instead of
	// cost-based selection — the differential tests use it to prove every
	// viable path returns the same rows.
	ForcePath *ForcedPath
	// ForceDegree pins the parallel-scan worker count instead of the
	// cardinality-based choice: 0 = automatic, 1 = serial, N = N workers
	// (the storage method may still deliver fewer partitions).
	ForceDegree int
	// ForceJoin pins the join strategy instead of the cost-based choice:
	// "" = automatic, "nl" = naive nested loop, "indexnl" = keyed probes,
	// "hash" = hash join. ErrForcedUnusable when the strategy cannot run.
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
	Table     string
	OuterCol  int        // join column in the outer table
	InnerCol  int        // join column in the inner table
	Filter    *expr.Expr // over the inner table's columns
	Fields    []int      // projection over the inner table's columns
	JoinIndex string     // name of a join index to prefer, if it exists
}

// Rows is a tuple-at-a-time result cursor.
type Rows interface {
	Next() (types.Record, bool, error)
	Close() error
}

// KeyedRows is the cursor of a serial single-table plan: every such
// operator reaches its records by record key, and NextKeyed hands that key
// back with the record.
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
		if outer, same, err = b.rebind(params); err == nil && !same {
			if err = b.replan(params); err == nil {
				outer, _, err = b.rebind(params)
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

// rebind returns the chosen access with params filled in: the filter and
// residual carry the values, and start, end and the point flag are the
// chosen path's answer for them. same reports that the path still serves
// them in the plan's cardinality class: the same point flag, handled
// conjuncts and power-of-4 bucket of expected rows.
func (b *Bound) rebind(params []types.Value) (a *access, same bool, err error) {
	o := b.outer
	bound := *o
	bound.filter = expr.Bind(o.filter, params)
	bound.pushdown = expr.Bind(o.pushdown, params)
	req, _, err := b.planner.costRequest(o.rd, bound.filter, b.query.OrderBy)
	if err != nil {
		return nil, false, err
	}
	est, err := b.planner.estimate(o.rd, o.useAtt, req)
	if err != nil {
		return nil, false, err
	}
	bound.start, bound.end, bound.estimate = est.Start, est.End, est
	bound.rows = expectedRows(req.RecordCount, est)
	same = est.Usable && est.Point == o.estimate.Point && est.Instance == o.instance &&
		slices.Equal(est.Handled, o.estimate.Handled) && rowClass(bound.rows) == rowClass(o.rows)
	return &bound, same, nil
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
// serial single-table plans, which a ForUpdate query always is.
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
	name     string  // describe's answer: the operator's name in every execution
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

// estimate prices req on rd's access path att, its storage method when att
// is 0.
func (p *Planner) estimate(rd *core.RelDesc, att core.AttID, req core.CostRequest) (core.CostEstimate, error) {
	if att == 0 {
		sm, err := p.env.StorageInstance(rd)
		if err != nil {
			return core.CostEstimate{}, err
		}
		return sm.EstimateCost(req), nil
	}
	inst, err := p.env.AttachmentInstance(rd, att)
	if err != nil {
		return core.CostEstimate{}, err
	}
	ap, ok := inst.(core.AccessPath)
	if !ok {
		return core.CostEstimate{}, fmt.Errorf("%w: attachment %d is not an access path", ErrForcedUnusable, att)
	}
	return ap.EstimateCost(req), nil
}

func expectedRows(recordCount int, est core.CostEstimate) float64 {
	return float64(recordCount) * est.Selectivity
}

// chooseAccess asks the storage method and every access-path attachment
// for a cost estimate of filter with params filled in and picks the
// cheapest — or, when force is set, exactly the requested path.
func (p *Planner) chooseAccess(rd *core.RelDesc, filter *expr.Expr, params []types.Value, orderBy []int, limit int, force *ForcedPath) (*access, error) {
	bound := expr.Bind(filter, params)
	req, sm, err := p.costRequest(rd, bound, orderBy)
	if err != nil {
		return nil, err
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
		est, err := p.estimate(rd, force.Att, req)
		if err != nil {
			return nil, err
		}
		if !est.Usable {
			return nil, fmt.Errorf("%w: attachment %d", ErrForcedUnusable, force.Att)
		}
		return pick(force.Att, est), nil
	}

	bestAtt, best := core.AttID(0), sm.EstimateCost(req)
	if force != nil {
		if !best.Usable {
			return nil, fmt.Errorf("%w: storage method scan", ErrForcedUnusable)
		}
		return pick(0, best), nil
	}

	for _, attID := range rd.AttachmentTypes() {
		inst, err := p.env.AttachmentInstance(rd, attID)
		if err != nil {
			return nil, err
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
	return pick(bestAtt, best), nil
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

func (a *access) describe(env *core.Env) string {
	if a.useAtt == 0 {
		return "scan(" + a.rd.Name + " via " + env.Reg.StorageOps(a.rd.SM).Name + ")"
	}
	return "access(" + a.rd.Name + " via " + env.Reg.AttachmentOps(a.useAtt).Name +
		" #" + strconv.Itoa(a.instance) + ")"
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

	outer, err := p.chooseAccess(rd, b.query.Filter, params, b.query.OrderBy, b.query.Limit, b.query.ForcePath)
	if err != nil {
		return err
	}
	outer.name = outer.describe(p.env)
	b.outer = outer

	if b.query.Join == nil {
		q := &b.query
		b.ordered = outer.estimate.Ordered
		// Partitioned parallel scan: only access path zero (the storage
		// method itself) partitions; the degree follows the estimated scan
		// work (CPU ≈ records touched). Partitions are drained in key order
		// when the plan's order matters, so Ordered is preserved.
		degree := 1
		if outer.useAtt == 0 && !q.ForUpdate {
			degree = chooseDegree(outer.estimate.CPU, q.ForceDegree)
			if degree > 1 {
				sm, err := p.env.StorageInstance(rd)
				if err != nil {
					return err
				}
				if _, ok := sm.(core.RangePartitioner); !ok {
					degree = 1
				}
			}
		}
		if degree > 1 {
			ops := p.env.Reg.StorageOps(rd.SM)
			b.explain = fmt.Sprintf("pscan(%s via %s, workers=%d)", rd.Name, ops.Name, degree)
			if b.ordered {
				b.explain += " [ordered]"
			}
			deg := degree
			b.root = func(tx *txn.Txn, outer *access) (Rows, error) {
				return p.openParallelScan(tx, b, outer, q.Fields, deg)
			}
			return nil
		}
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
	j := b.query.Join
	innerRD, ok := p.env.Cat.ByName(j.Table)
	if !ok {
		return fmt.Errorf("plan: %w: relation %q", core.ErrNotFound, j.Table)
	}
	b.deps = append(b.deps, dep{innerRD.RelID, innerRD.Version})

	// Strategy 1: a join index connecting the two relations.
	if j.JoinIndex != "" && rd.HasAttachment(core.AttJoin) && b.query.ForceJoin == "" {
		b.explain = fmt.Sprintf("joinindex(%s ⋈ %s via %q)", rd.Name, innerRD.Name, j.JoinIndex)
		q := b.query
		b.root = func(tx *txn.Txn, outer *access) (Rows, error) {
			return p.openJoinIndex(tx, b, outer, innerRD, q)
		}
		return nil
	}

	// Generic strategies, priced against each other: index nested loops
	// (attachment probe or the inner storage method's own keyed path),
	// hash join, and the naive re-scan nested loop.
	innerStats, innerHasStats := p.tableStatsFor(innerRD)
	innerEqConjs := append(
		expr.Conjuncts(j.Filter),
		// A placeholder equality on the join column stands in for the
		// outer value bound at run time.
		expr.Eq(expr.Field(j.InnerCol), expr.Const(types.Int(0))),
	)
	innerEqReq := core.CostRequest{
		Conjuncts:   innerEqConjs,
		ConjunctSel: conjunctSels(innerStats, innerHasStats, innerEqConjs),
	}
	var probe *probeSpec
	for _, attID := range innerRD.AttachmentTypes() {
		inst, err := p.env.AttachmentInstance(innerRD, attID)
		if err != nil {
			return err
		}
		ap, ok := inst.(core.AccessPath)
		if !ok {
			continue
		}
		est := ap.EstimateCost(innerEqReq)
		if !est.Usable {
			continue
		}
		if probe == nil || est.Total() < probe.est.Total() {
			probe = &probeSpec{attID: attID, instance: est.Instance, est: est}
		}
	}
	// Also consider the inner storage method itself as a keyed path:
	// B-tree-organised relations answer join-column probes directly when
	// the run-time-bound join equality lands on their key prefix.
	innerSM, err := p.env.StorageInstance(innerRD)
	if err != nil {
		return err
	}
	smEst := innerSM.EstimateCost(innerEqReq)
	phIdx := len(innerEqConjs) - 1
	smKeyed := false
	for _, h := range smEst.Handled {
		if h == phIdx {
			smKeyed = true
		}
	}
	if smEst.Usable && smKeyed && (probe == nil || smEst.Total() < probe.est.Total()) {
		probe = &probeSpec{viaSM: true, est: smEst}
	}
	innerN := innerSM.RecordCount()

	innerScanConjs := expr.Conjuncts(j.Filter)
	innerScanEst := innerSM.EstimateCost(core.CostRequest{
		Conjuncts:   innerScanConjs,
		RecordCount: innerN,
		ConjunctSel: conjunctSels(innerStats, innerHasStats, innerScanConjs),
	})

	outerSM, err := p.env.StorageInstance(rd)
	if err != nil {
		return err
	}
	probeCost := math.Inf(1)
	if probe != nil {
		probeCost = probe.est.Total()
	}
	hashable := hashCompatible(rd.Schema, innerRD.Schema, j.OuterCol, j.InnerCol)
	costs := estimateJoinCosts(outer.estimate, outerSM.RecordCount(), innerScanEst,
		float64(innerN), probeCost, hashable)

	q := b.query
	strategy := q.ForceJoin
	switch strategy {
	case "":
		strategy = "nl"
		bestCost := costs.naiveNL
		if costs.indexNL < bestCost {
			strategy, bestCost = "indexnl", costs.indexNL
		}
		if costs.hash < bestCost {
			strategy = "hash"
		}
	case "nl":
	case "indexnl":
		if probe == nil {
			return fmt.Errorf("%w: no keyed probe path on %s", ErrForcedUnusable, innerRD.Name)
		}
	case "hash":
		if !hashable {
			return fmt.Errorf("%w: join columns of %s and %s hash incompatibly",
				ErrForcedUnusable, rd.Name, innerRD.Name)
		}
	default:
		return fmt.Errorf("plan: unknown ForceJoin %q", q.ForceJoin)
	}

	switch strategy {
	case "indexnl":
		pr := *probe
		if pr.viaSM {
			b.explain = fmt.Sprintf("indexNL(%s ⟕probe %s via sm-key)", outer.name, innerRD.Name)
		} else {
			b.explain = fmt.Sprintf("indexNL(%s ⟕probe %s via %s #%d)",
				outer.name, innerRD.Name, p.env.Reg.AttachmentOps(pr.attID).Name, pr.instance)
		}
		b.root = func(tx *txn.Txn, outer *access) (Rows, error) {
			return p.openIndexNL(tx, b, outer, innerRD, pr, q)
		}
	case "hash":
		degree := chooseDegree(float64(innerN), q.ForceDegree)
		b.explain = fmt.Sprintf("hash(%s ⋈ %s, inner=%d)", outer.name, innerRD.Name, innerN)
		b.root = func(tx *txn.Txn, outer *access) (Rows, error) {
			return p.openHashJoin(tx, b, outer, innerRD, q, degree)
		}
	default:
		b.explain = fmt.Sprintf("nestedloop(%s × scan(%s), inner=%d)", outer.name, innerRD.Name, innerN)
		b.root = func(tx *txn.Txn, outer *access) (Rows, error) {
			return p.openNL(tx, b, outer, innerRD, q)
		}
	}
	return nil
}

type probeSpec struct {
	attID    core.AttID
	instance int
	est      core.CostEstimate
	// viaSM probes the inner storage method's own key order (no
	// attachment): each outer join value opens a keyed range scan.
	viaSM bool
}

// --- executors ---

// openAccess opens a single-table cursor over the chosen access path,
// registered with b for per-operator execution counters.
func (p *Planner) openAccess(tx *txn.Txn, b *Bound, a *access, fields []int, forUpdate bool) (Rows, error) {
	rows, err := p.openAccessRaw(tx, a, fields, forUpdate)
	if err != nil {
		return nil, err
	}
	return b.trackKeyed(tx, a.name, rows), nil
}

func (p *Planner) openAccessRaw(tx *txn.Txn, a *access, fields []int, forUpdate bool) (KeyedRows, error) {
	rel, err := p.env.OpenRelation(a.rd)
	if err != nil {
		return nil, err
	}
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
	// changed or vanished since the probe is skipped.
	if a.estimate.Point {
		keys, err := rel.LookupAccess(tx, a.useAtt, a.instance, a.start)
		if err != nil {
			return nil, err
		}
		return &fetchRows{tx: tx, rel: rel, forUpdate: forUpdate, keys: keys, filter: a.filter, fields: fields}, nil
	}
	scan, err := rel.OpenAccessScan(tx, a.useAtt, a.instance, core.ScanOptions{Start: a.start, End: a.end})
	if err != nil {
		return nil, err
	}
	return &fetchRows{tx: tx, rel: rel, forUpdate: forUpdate, scan: scan, filter: a.pushdown, fields: fields}, nil
}

// scanRows adapts a storage-method scan.
type scanRows struct{ scan core.Scan }

func (r scanRows) NextKeyed() (types.Key, types.Record, bool, error) { return r.scan.Next() }

func (r scanRows) Next() (types.Record, bool, error) {
	_, rec, ok, err := r.scan.Next()
	return rec, ok, err
}

func (r scanRows) Close() error { return r.scan.Close() }

// fetchRows takes record keys from an access path — a key-sequential
// access (scan) or the key list of a direct-by-key probe (keys) — and
// fetches each record directly via the storage method, tuple at a time.
// forUpdate fetches under the record's X lock (Relation.FetchForUpdate).
type fetchRows struct {
	tx        *txn.Txn
	rel       *core.Relation
	forUpdate bool
	scan      core.Scan
	keys      []types.Key
	filter    *expr.Expr
	fields    []int
}

func (r *fetchRows) nextKey() (types.Key, bool, error) {
	if r.scan != nil {
		key, _, ok, err := r.scan.Next()
		return key, ok, err
	}
	if len(r.keys) == 0 {
		return nil, false, nil
	}
	key := r.keys[0]
	r.keys = r.keys[1:]
	return key, true, nil
}

func (r *fetchRows) NextKeyed() (types.Key, types.Record, bool, error) {
	for {
		key, ok, err := r.nextKey()
		if err != nil || !ok {
			return nil, nil, false, err
		}
		fetch := r.rel.Fetch
		if r.forUpdate {
			fetch = r.rel.FetchForUpdate
		}
		rec, err := fetch(r.tx, key, r.fields, r.filter)
		// A probe's keys were read without a lock that keeps their records
		// in place: one deleted since is passed over, not an error.
		if err == core.ErrFiltered || (r.scan == nil && errors.Is(err, core.ErrNotFound)) {
			continue
		}
		if err != nil {
			return nil, nil, false, err
		}
		return key, rec, true, nil
	}
}

func (r *fetchRows) Next() (types.Record, bool, error) {
	_, rec, ok, err := r.NextKeyed()
	return rec, ok, err
}

func (r *fetchRows) Close() error {
	if r.scan != nil {
		return r.scan.Close()
	}
	return nil
}

// openNL opens a naive nested-loop join: the inner relation is re-scanned
// for every outer record (the tuple-at-a-time call volume of E2).
func (p *Planner) openNL(tx *txn.Txn, b *Bound, outer *access, innerRD *core.RelDesc, q Query) (Rows, error) {
	outerRows, err := p.openAccess(tx, b, outer, nil, false)
	if err != nil {
		return nil, err
	}
	innerRel, err := p.env.OpenRelation(innerRD)
	if err != nil {
		return nil, err
	}
	return b.track(tx, fmt.Sprintf("nestedloop(%s)", innerRD.Name), &nlRows{
		p: p, tx: tx, q: q, outer: outerRows, innerRel: innerRel,
	}), nil
}

type nlRows struct {
	p        *Planner
	tx       *txn.Txn
	q        Query
	outer    Rows
	innerRel *core.Relation

	curOuter  types.Record
	innerScan core.Scan
}

func (r *nlRows) Next() (types.Record, bool, error) {
	j := r.q.Join
	for {
		if r.curOuter == nil {
			rec, ok, err := r.outer.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				return nil, false, nil
			}
			r.curOuter = rec
			filter := expr.And(
				expr.Eq(expr.Field(j.InnerCol), expr.Const(rec[j.OuterCol])),
				j.Filter,
			)
			scan, err := r.innerRel.OpenScan(r.tx, core.ScanOptions{Filter: filter, Fields: j.Fields})
			if err != nil {
				return nil, false, err
			}
			r.innerScan = scan
		}
		_, inner, ok, err := r.innerScan.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			r.innerScan.Close()
			r.curOuter, r.innerScan = nil, nil
			continue
		}
		return joinRecords(r.curOuter, r.q.Fields, inner), true, nil
	}
}

func (r *nlRows) Close() error {
	if r.innerScan != nil {
		r.innerScan.Close()
	}
	return r.outer.Close()
}

// joinRecords projects the outer record and appends the (already
// projected) inner record.
func joinRecords(outer types.Record, outerFields []int, inner types.Record) types.Record {
	var out types.Record
	if outerFields != nil {
		out = outer.Project(outerFields)
	} else {
		out = append(types.Record(nil), outer...)
	}
	return append(out, inner...)
}

// openIndexNL opens an index nested-loop join probing the inner access
// path with each outer join value.
func (p *Planner) openIndexNL(tx *txn.Txn, b *Bound, outer *access, innerRD *core.RelDesc, probe probeSpec, q Query) (Rows, error) {
	outerRows, err := p.openAccess(tx, b, outer, nil, false)
	if err != nil {
		return nil, err
	}
	innerRel, err := p.env.OpenRelation(innerRD)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("probe(%s via sm-key)", innerRD.Name)
	if !probe.viaSM {
		name = fmt.Sprintf("probe(%s via %s #%d)",
			innerRD.Name, p.env.Reg.AttachmentOps(probe.attID).Name, probe.instance)
	}
	return b.track(tx, name, &indexNLRows{
		tx: tx, q: q, outer: outerRows, innerRel: innerRel, probe: probe,
	}), nil
}

type indexNLRows struct {
	tx       *txn.Txn
	q        Query
	outer    Rows
	innerRel *core.Relation
	probe    probeSpec

	curOuter  types.Record
	pending   []types.Key
	innerScan core.Scan // viaSM mode: keyed range scan for the current outer
}

func (r *indexNLRows) Next() (types.Record, bool, error) {
	if r.probe.viaSM {
		return r.nextViaSM()
	}
	j := r.q.Join
	for {
		if r.curOuter == nil {
			rec, ok, err := r.outer.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				return nil, false, nil
			}
			r.curOuter = rec
			keys, err := r.innerRel.LookupAccess(r.tx, r.probe.attID, r.probe.instance,
				types.EncodeKeyValues(rec[j.OuterCol]))
			if err != nil {
				return nil, false, err
			}
			r.pending = keys
		}
		if len(r.pending) == 0 {
			r.curOuter = nil
			continue
		}
		key := r.pending[0]
		r.pending = r.pending[1:]
		inner, err := r.innerRel.Fetch(r.tx, key, j.Fields, j.Filter)
		if err == core.ErrFiltered {
			continue
		}
		if err != nil {
			return nil, false, err
		}
		return joinRecords(r.curOuter, r.q.Fields, inner), true, nil
	}
}

// nextViaSM probes the inner storage method's own key order: each outer
// join value bounds a keyed range scan [enc(v), succ(enc(v))). The explicit
// equality in the filter guards prefix matches when the inner record key
// extends beyond the join column.
func (r *indexNLRows) nextViaSM() (types.Record, bool, error) {
	j := r.q.Join
	for {
		if r.innerScan == nil {
			rec, ok, err := r.outer.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				return nil, false, nil
			}
			kv := rec[j.OuterCol]
			if kv.IsNull() {
				continue // NULL never equi-joins
			}
			r.curOuter = rec
			start := types.EncodeKeyValues(kv)
			filter := expr.And(expr.Eq(expr.Field(j.InnerCol), expr.Const(kv)), j.Filter)
			scan, err := r.innerRel.OpenScan(r.tx, core.ScanOptions{
				Start: start, End: smutil.PrefixSuccessor(start), Filter: filter, Fields: j.Fields,
			})
			if err != nil {
				return nil, false, err
			}
			r.innerScan = scan
		}
		_, inner, ok, err := r.innerScan.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			r.innerScan.Close()
			r.innerScan, r.curOuter = nil, nil
			continue
		}
		return joinRecords(r.curOuter, r.q.Fields, inner), true, nil
	}
}

func (r *indexNLRows) Close() error {
	if r.innerScan != nil {
		r.innerScan.Close()
	}
	return r.outer.Close()
}

// openJoinIndex executes the join by enumerating the join index's matched
// record-key pairs and fetching both sides directly; outer carries the
// outer filter. The attachment is addressed structurally (any attachment
// exposing PairKeys qualifies), so the planner stays decoupled from the
// concrete join-index package.
func (p *Planner) openJoinIndex(tx *txn.Txn, b *Bound, outer *access, innerRD *core.RelDesc, q Query) (Rows, error) {
	outerRD := outer.rd
	inst, err := p.env.AttachmentInstance(outerRD, core.AttJoin)
	if err != nil {
		return nil, err
	}
	lister, ok := inst.(interface {
		PairKeys(name string) ([][2]types.Key, error)
	})
	if !ok {
		return nil, fmt.Errorf("plan: join index attachment does not enumerate pairs")
	}
	pairs, err := lister.PairKeys(q.Join.JoinIndex)
	if err != nil {
		return nil, err
	}
	outerRel, err := p.env.OpenRelation(outerRD)
	if err != nil {
		return nil, err
	}
	innerRel, err := p.env.OpenRelation(innerRD)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("joinindex(%s ⋈ %s)", outerRD.Name, innerRD.Name)
	return b.track(tx, name, &joinIndexRows{tx: tx, q: q, filter: outer.filter,
		outerRel: outerRel, innerRel: innerRel, pairs: pairs}), nil
}

type joinIndexRows struct {
	tx       *txn.Txn
	q        Query
	filter   *expr.Expr // over the outer relation
	outerRel *core.Relation
	innerRel *core.Relation
	pairs    [][2]types.Key
}

func (r *joinIndexRows) Next() (types.Record, bool, error) {
	for len(r.pairs) > 0 {
		pair := r.pairs[0]
		r.pairs = r.pairs[1:]
		outer, err := r.outerRel.Fetch(r.tx, pair[0], nil, r.filter)
		if err == core.ErrFiltered {
			continue
		}
		if err != nil {
			return nil, false, err
		}
		inner, err := r.innerRel.Fetch(r.tx, pair[1], r.q.Join.Fields, r.q.Join.Filter)
		if err == core.ErrFiltered {
			continue
		}
		if err != nil {
			return nil, false, err
		}
		return joinRecords(outer, r.q.Fields, inner), true, nil
	}
	return nil, false, nil
}

func (r *joinIndexRows) Close() error { return nil }

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
