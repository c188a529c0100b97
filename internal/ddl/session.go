package ddl

import (
	"fmt"
	"sort"
	"strings"

	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/plan"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// Result is the outcome of executing one statement.
type Result struct {
	Columns  []string
	Rows     []types.Record
	Affected int
	Message  string
	Explain  string
}

// Session executes statements against an environment. A statement's
// literals are parameters: statements of one shape — the same text but for
// the literals — share one parsed statement and one bound plan, which runs
// with each statement's values; invalidated plans are bound again from the
// parsed statement. A session is confined to one goroutine.
type Session struct {
	env     *core.Env
	planner *plan.Planner
	tx      *txn.Txn
	lx      lexer                  // reused by every statement
	plans   map[string][]*stmtPlan // by shape (lexer.key); one entry per pinned-value variant
	nplans  int
	user    string
	keys    []types.Key    // matched: the statement's record keys,
	recs    []types.Record // and records, reused by the next statement
}

// planCacheCap bounds the entries in Session.plans; a full cache is simply
// emptied.
const planCacheCap = 1024

// stmtPlan is one cached statement shape: the parsed statement, the values
// its pinned slots must hold for the entry to apply, and for SELECT, UPDATE
// and DELETE the bound plan plus what the statement kind binds beside it.
type stmtPlan struct {
	stmt   Stmt
	pinned []int         // slots whose values are part of the shape,
	pins   []types.Value // and those values
	bound  *plan.Bound
	cols   []string    // SELECT: result column names
	set    []setClause // UPDATE: bound SET expressions
}

// setClause is one bound "col = expr" of an UPDATE.
type setClause struct {
	col int
	val *expr.Expr
}

// SetUser attaches a user identity to the session; transactions the
// session starts carry it for the uniform authorization facility.
func (s *Session) SetUser(user string) { s.user = user }

// NewSession returns a session over env.
func NewSession(env *core.Env) *Session {
	return &Session{env: env, planner: plan.New(env), plans: make(map[string][]*stmtPlan)}
}

// Env exposes the underlying environment.
func (s *Session) Env() *core.Env { return s.env }

// InTxn reports whether an explicit transaction is open.
func (s *Session) InTxn() bool { return s.tx != nil }

// Exec executes one statement, with args as the values of its ? markers.
// Outside an explicit BEGIN, each statement runs in its own transaction.
func (s *Session) Exec(src string, args ...types.Value) (*Result, error) {
	entry, err := s.statement(src, args)
	if err != nil {
		return nil, err
	}
	stmt, params := entry.stmt, s.lx.params
	switch st := stmt.(type) {
	case Begin:
		if s.tx != nil {
			return nil, fmt.Errorf("ddl: transaction already open")
		}
		s.tx = s.env.Begin()
		s.tx.SetUser(s.user)
		return &Result{Message: "BEGIN"}, nil
	case Commit:
		if s.tx == nil {
			return nil, fmt.Errorf("ddl: no open transaction")
		}
		err := s.tx.Commit()
		s.tx = nil
		if err != nil {
			return nil, err
		}
		return &Result{Message: "COMMIT"}, nil
	case Rollback:
		if s.tx == nil {
			return nil, fmt.Errorf("ddl: no open transaction")
		}
		err := s.tx.Abort()
		s.tx = nil
		if err != nil {
			return nil, err
		}
		return &Result{Message: "ROLLBACK"}, nil
	case Savepoint:
		if s.tx == nil {
			return nil, fmt.Errorf("ddl: SAVEPOINT requires an open transaction")
		}
		if _, err := s.tx.Savepoint(st.Name); err != nil {
			return nil, err
		}
		return &Result{Message: "SAVEPOINT " + st.Name}, nil
	case RollbackTo:
		if s.tx == nil {
			return nil, fmt.Errorf("ddl: ROLLBACK TO requires an open transaction")
		}
		if err := s.tx.RollbackTo(st.Name); err != nil {
			return nil, err
		}
		return &Result{Message: "ROLLBACK TO " + st.Name}, nil
	case SetUser:
		s.user = st.Name
		if s.tx != nil {
			s.tx.SetUser(st.Name)
		}
		return &Result{Message: "SET USER " + st.Name}, nil
	case Grant:
		return s.execGrant(st)
	case Revoke:
		rd, ok := s.env.Cat.ByName(st.Table)
		if !ok {
			return nil, fmt.Errorf("ddl: %w: table %q", core.ErrNotFound, st.Table)
		}
		s.env.Authz.Revoke(st.User, rd.RelID)
		return &Result{Message: fmt.Sprintf("REVOKE ON %s FROM %s", st.Table, st.User)}, nil
	case ShowCatalog:
		res := &Result{Columns: []string{"table"}}
		for _, rd := range s.env.Cat.Relations() {
			res.Rows = append(res.Rows, types.Record{types.Str(rd.Name)})
		}
		return res, nil
	}

	var res *Result
	runErr := s.withTxn(func(tx *txn.Txn) (err error) {
		// Each DML/query statement is one span under the transaction root,
		// tagged with the (truncated) statement text.
		if tx.Trace().Detailed() {
			sp := tx.Trace().StartSpan("stmt", "", stmtOp(stmt))
			sp.SetNote(truncateSrc(src))
			defer func() { sp.End(err) }()
		}
		res, err = s.execInTxn(tx, entry, params)
		return err
	})
	if runErr != nil {
		return nil, runErr
	}
	return res, nil
}

// stmtOp names the statement kind for span tagging.
func stmtOp(stmt Stmt) string {
	switch stmt.(type) {
	case Insert:
		return "insert"
	case Update:
		return "update"
	case Delete:
		return "delete"
	case Select:
		return "select"
	case CreateTable, CreateAttachment, DropTable, DropAttachment:
		return "ddl"
	default:
		return fmt.Sprintf("%T", stmt)
	}
}

// truncateSrc bounds the statement text carried on a span.
func truncateSrc(src string) string {
	src = strings.TrimSpace(src)
	if len(src) > 120 {
		return src[:117] + "..."
	}
	return src
}

// execGrant applies a GRANT statement; granting requires ADMIN on the
// relation when authorization is enabled.
func (s *Session) execGrant(st Grant) (*Result, error) {
	rd, ok := s.env.Cat.ByName(st.Table)
	if !ok {
		return nil, fmt.Errorf("ddl: %w: table %q", core.ErrNotFound, st.Table)
	}
	var priv core.Privilege
	switch strings.ToLower(st.Privilege) {
	case "read":
		priv = core.PrivRead
	case "write":
		priv = core.PrivWrite
	case "admin":
		priv = core.PrivAdmin
	default:
		return nil, fmt.Errorf("ddl: privilege must be READ, WRITE, or ADMIN, got %q", st.Privilege)
	}
	if s.env.Authz.Enabled() {
		tx := s.env.Begin()
		tx.SetUser(s.user)
		err := s.env.Authz.Check(tx, rd, core.PrivAdmin)
		tx.Commit()
		if err != nil {
			return nil, err
		}
	}
	s.env.Authz.Grant(st.User, rd.RelID, priv)
	return &Result{Message: fmt.Sprintf("GRANT %s ON %s TO %s",
		strings.ToUpper(st.Privilege), st.Table, st.User)}, nil
}

// withTxn runs fn in the session's open transaction, or in a fresh
// autocommit transaction.
func (s *Session) withTxn(fn func(tx *txn.Txn) error) error {
	if s.tx != nil {
		return fn(s.tx)
	}
	tx := s.env.Begin()
	tx.SetUser(s.user)
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// statement lexes src and returns its shape's cache entry, parsing and
// binding only when no valid entry exists. Statements without a plan to
// reuse (DDL, transaction control) are parsed every time.
func (s *Session) statement(src string, args []types.Value) (*stmtPlan, error) {
	l := &s.lx
	if err := l.lex(src, args); err != nil {
		return nil, err
	}
	sp := s.lookup(l.key)
	if sp != nil && (sp.bound == nil || sp.bound.Valid()) {
		s.env.Obs.Plan.CacheHits.Inc()
		return sp, nil
	}
	fresh := sp == nil
	if fresh {
		stmt, pinned, err := parse(l)
		if err != nil {
			return nil, err
		}
		switch stmt.(type) {
		case Select, Insert, Update, Delete:
		default:
			return &stmtPlan{stmt: stmt}, nil
		}
		sp = &stmtPlan{stmt: stmt, pinned: pinned}
		for _, i := range pinned {
			sp.pins = append(sp.pins, l.params[i])
		}
	}
	s.env.Obs.Plan.CacheMisses.Inc()
	if err := s.bind(sp, l.params); err != nil {
		return nil, err
	}
	if fresh {
		s.store(l.key, sp)
	}
	return sp, nil
}

// lookup returns the entry for the statement just lexed: the same shape
// with the same pinned values.
func (s *Session) lookup(key []byte) *stmtPlan {
	for _, sp := range s.plans[string(key)] {
		match := true
		for i, slot := range sp.pinned {
			v := s.lx.params[slot]
			match = match && v.K == sp.pins[i].K && types.Compare(v, sp.pins[i]) == 0
		}
		if match {
			return sp
		}
	}
	return nil
}

// store caches sp under shape key.
func (s *Session) store(key []byte, sp *stmtPlan) {
	if s.nplans >= planCacheCap {
		clear(s.plans)
		s.nplans = 0
	}
	k := string(key)
	s.plans[k] = append(s.plans[k], sp)
	s.nplans++
}

// bind resolves the entry's statement against the catalog and translates
// it, pricing the access paths with params (INSERT has nothing to bind).
func (s *Session) bind(sp *stmtPlan, params []types.Value) error {
	var q plan.Query
	var err error
	switch st := sp.stmt.(type) {
	case Select:
		q, sp.cols, err = s.buildQuery(st)
	case Update:
		q, sp.set, err = s.updateQuery(st)
	case Delete:
		q, _, err = s.dmlQuery(st.Table, st.Where, []int{})
	default:
		return nil
	}
	if err != nil {
		return err
	}
	q.Params = params
	b, err := s.planner.Plan(q)
	if err != nil {
		return err
	}
	sp.bound = b
	return nil
}

func (s *Session) execInTxn(tx *txn.Txn, sp *stmtPlan, params []types.Value) (*Result, error) {
	switch st := sp.stmt.(type) {
	case CreateTable:
		if _, err := s.env.CreateRelation(tx, st.Name, st.Schema, st.Using, st.Attrs); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("CREATE TABLE %s (USING %s)", st.Name, st.Using)}, nil
	case CreateAttachment:
		if _, err := s.env.CreateAttachment(tx, st.Table, st.Type, st.Attrs); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("CREATE ATTACHMENT %s ON %s", st.Type, st.Table)}, nil
	case DropTable:
		if err := s.env.DropRelation(tx, st.Name); err != nil {
			return nil, err
		}
		return &Result{Message: "DROP TABLE " + st.Name}, nil
	case DropAttachment:
		if _, err := s.env.DropAttachment(tx, st.Table, st.Type, st.Attrs); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("DROP ATTACHMENT %s ON %s", st.Type, st.Table)}, nil
	case Insert:
		return s.atomic(tx, func() (*Result, error) { return s.execInsert(tx, st, params) })
	case Select:
		return s.execSelect(tx, st, sp, params)
	case Update:
		return s.atomic(tx, func() (*Result, error) { return s.execUpdate(tx, st, sp, params) })
	case Delete:
		return s.atomic(tx, func() (*Result, error) { return s.execDelete(tx, st, sp, params) })
	default:
		return nil, fmt.Errorf("ddl: unhandled statement %T", st)
	}
}

// atomic runs one data-modifying statement so that it takes effect whole
// or not at all. Relation.vetoed undoes only the single modification that
// was vetoed; the rows the statement modified before it stay changed, and
// inside BEGIN…COMMIT the transaction lives on with them. On any error the
// statement is rolled back to its start through the common log.
func (s *Session) atomic(tx *txn.Txn, run func() (*Result, error)) (*Result, error) {
	mark := s.env.Log.LastLSN(tx.ID())
	res, err := run()
	if err == nil {
		return res, nil
	}
	if rerr := s.env.Log.Rollback(tx.ID(), mark, s.env); rerr != nil {
		return nil, fmt.Errorf("ddl: statement rollback failed: %v (statement: %w)", rerr, err)
	}
	return nil, err
}

func (s *Session) execInsert(tx *txn.Txn, st Insert, params []types.Value) (*Result, error) {
	rel, err := s.env.OpenRelationByName(st.Table)
	if err != nil {
		return nil, err
	}
	for _, row := range st.Rows {
		rec := make(types.Record, len(row))
		for i, v := range row {
			rec[i] = v.value(params)
		}
		if _, err := rel.Insert(tx, rec); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(st.Rows), Message: fmt.Sprintf("INSERT %d", len(st.Rows))}, nil
}

func (s *Session) execSelect(tx *txn.Txn, st Select, sp *stmtPlan, params []types.Value) (*Result, error) {
	b, cols := sp.bound, sp.cols
	rs, rerr := b.Execute(tx, params...)
	// Pull only LIMIT rows when no sort will reorder them afterwards. Ask
	// after Execute: params may have moved the plan to another path.
	pullLimit := -1
	if st.Limit >= 0 && !st.Count &&
		(st.OrderBy == nil || (b.Ordered() && !st.OrderDesc)) {
		pullLimit = st.Limit
	}
	rows, err := collectLimit(rs, rerr, pullLimit)
	if err != nil {
		return nil, err
	}
	if st.Count {
		return &Result{
			Columns: []string{"count"},
			Rows:    []types.Record{{types.Int(int64(len(rows)))}},
			Explain: b.Explain(),
		}, nil
	}
	if st.OrderBy != nil && !(b.Ordered() && !st.OrderDesc) {
		idx, err := orderColumn(cols, *st.OrderBy)
		if err != nil {
			return nil, err
		}
		sort.SliceStable(rows, func(i, j int) bool {
			c := types.Compare(rows[i][idx], rows[j][idx])
			if st.OrderDesc {
				return c > 0
			}
			return c < 0
		})
	}
	if st.Limit >= 0 && len(rows) > st.Limit {
		rows = rows[:st.Limit]
	}
	return &Result{Columns: cols, Rows: rows, Explain: b.Explain()}, nil
}

// collectLimit drains up to limit rows (all when limit < 0).
func collectLimit(rows plan.Rows, err error, limit int) ([]types.Record, error) {
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []types.Record
	for limit < 0 || len(out) < limit {
		rec, ok, err := rows.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, rec)
	}
	return out, nil
}

// orderColumn resolves an ORDER BY reference against the result columns
// (which are plain names for single-table queries and table.column names
// for joins).
func orderColumn(cols []string, ref colRef) (int, error) {
	want := ref.Column
	if ref.Table != "" {
		want = ref.Table + "." + ref.Column
	}
	for i, c := range cols {
		if strings.EqualFold(c, want) {
			return i, nil
		}
		// Unqualified references match a qualified output column by suffix.
		if ref.Table == "" && strings.HasSuffix(strings.ToLower(c), "."+strings.ToLower(want)) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("ddl: ORDER BY column %q is not in the select list", want)
}

// buildQuery resolves a Select statement into a planner query.
func (s *Session) buildQuery(st Select) (plan.Query, []string, error) {
	outerRD, ok := s.env.Cat.ByName(st.Table)
	if !ok {
		return plan.Query{}, nil, fmt.Errorf("ddl: %w: table %q", core.ErrNotFound, st.Table)
	}
	q := plan.Query{Table: st.Table}
	where, err := st.Where.bind(outerRD.Schema, st.Table)
	if err != nil {
		return plan.Query{}, nil, err
	}
	q.Filter = where
	// Ascending single-table ORDER BY is offered to the planner, which may
	// pick an access path that delivers the order and saves the sort; a
	// LIMIT makes a streaming ordered access attractive (top-k).
	if st.Join == nil && st.OrderBy != nil && !st.OrderDesc {
		if i := outerRD.Schema.ColIndex(st.OrderBy.Column); i >= 0 {
			q.OrderBy = []int{i}
			if st.Limit > 0 {
				q.Limit = st.Limit
			}
		}
	}

	if st.Join == nil {
		var cols []string
		if st.Columns == nil {
			for _, c := range outerRD.Schema.Cols {
				cols = append(cols, c.Name)
			}
		} else {
			q.Fields = nil
			for _, ref := range st.Columns {
				i := outerRD.Schema.ColIndex(ref.Column)
				if i < 0 {
					return plan.Query{}, nil, fmt.Errorf("ddl: unknown column %q", ref.Column)
				}
				q.Fields = append(q.Fields, i)
				cols = append(cols, ref.Column)
			}
		}
		return q, cols, nil
	}

	// Join: resolve the ON columns to sides.
	j := st.Join
	innerRD, ok := s.env.Cat.ByName(j.Table)
	if !ok {
		return plan.Query{}, nil, fmt.Errorf("ddl: %w: table %q", core.ErrNotFound, j.Table)
	}
	spec := &plan.JoinSpec{Table: j.Table}
	if j.JoinIndex != "" { // a hint: the inner's join index, whichever instance
		spec.ForcePath = &plan.ForcedPath{Att: core.AttJoin}
	}
	resolve := func(ref colRef) (side string, idx int, err error) {
		if ref.Table != "" {
			switch {
			case strings.EqualFold(ref.Table, st.Table):
				side = "outer"
			case strings.EqualFold(ref.Table, j.Table):
				side = "inner"
			default:
				return "", 0, fmt.Errorf("ddl: unknown table qualifier %q", ref.Table)
			}
		} else {
			if outerRD.Schema.ColIndex(ref.Column) >= 0 {
				side = "outer"
			} else {
				side = "inner"
			}
		}
		if side == "outer" {
			idx = outerRD.Schema.ColIndex(ref.Column)
		} else {
			idx = innerRD.Schema.ColIndex(ref.Column)
		}
		if idx < 0 {
			return "", 0, fmt.Errorf("ddl: unknown column %q", ref.Column)
		}
		return side, idx, nil
	}
	lSide, lIdx, err := resolve(j.LeftCol)
	if err != nil {
		return plan.Query{}, nil, err
	}
	rSide, rIdx, err := resolve(j.RightCol)
	if err != nil {
		return plan.Query{}, nil, err
	}
	switch {
	case lSide == "outer" && rSide == "inner":
		spec.OuterCol, spec.InnerCol = lIdx, rIdx
	case lSide == "inner" && rSide == "outer":
		spec.OuterCol, spec.InnerCol = rIdx, lIdx
	default:
		return plan.Query{}, nil, fmt.Errorf("ddl: join ON must relate the two tables")
	}

	// Projection: outer columns first, then inner (result record layout).
	var cols []string
	if st.Columns == nil {
		for _, c := range outerRD.Schema.Cols {
			cols = append(cols, st.Table+"."+c.Name)
		}
		for _, c := range innerRD.Schema.Cols {
			cols = append(cols, j.Table+"."+c.Name)
		}
	} else {
		var outerRefs, innerRefs []colRef
		for _, ref := range st.Columns {
			side, _, err := resolve(ref)
			if err != nil {
				return plan.Query{}, nil, err
			}
			if side == "outer" {
				outerRefs = append(outerRefs, ref)
			} else {
				innerRefs = append(innerRefs, ref)
			}
		}
		for _, ref := range outerRefs {
			q.Fields = append(q.Fields, outerRD.Schema.ColIndex(ref.Column))
			cols = append(cols, st.Table+"."+ref.Column)
		}
		for _, ref := range innerRefs {
			spec.Fields = append(spec.Fields, innerRD.Schema.ColIndex(ref.Column))
			cols = append(cols, j.Table+"."+ref.Column)
		}
	}
	q.Join = spec
	return q, cols, nil
}

// dmlQuery resolves the target and WHERE clause of an UPDATE or DELETE into
// a planner query, so the statement finds its rows through whichever access
// path the planner prices cheapest — the same binding a SELECT gets.
func (s *Session) dmlQuery(table string, where *rawExpr, fields []int) (plan.Query, *types.Schema, error) {
	rd, ok := s.env.Cat.ByName(table)
	if !ok {
		return plan.Query{}, nil, fmt.Errorf("ddl: %w: table %q", core.ErrNotFound, table)
	}
	filter, err := where.bind(rd.Schema, table)
	if err != nil {
		return plan.Query{}, nil, err
	}
	return plan.Query{Table: table, Filter: filter, Fields: fields, ForUpdate: true}, rd.Schema, nil
}

// matched drains the statement's keyed cursor: every qualifying record key
// (and the selected fields of its record) is collected before the first
// modification, so a statement that moves rows along the access path it is
// reading — SET on the index key, or on the record key itself — meets each
// row exactly once. The slices are the session's: they hold until the
// session's next UPDATE or DELETE.
func (s *Session) matched(b *plan.Bound, tx *txn.Txn, params []types.Value) ([]types.Key, []types.Record, error) {
	rows, err := b.ExecuteKeyed(tx, params...)
	if err != nil {
		return nil, nil, err
	}
	defer rows.Close()
	clear(s.keys)
	clear(s.recs)
	keys, recs := s.keys[:0], s.recs[:0]
	for {
		key, rec, ok, err := rows.NextKeyed()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			s.keys, s.recs = keys, recs
			return keys, recs, nil
		}
		keys = append(keys, key)
		recs = append(recs, rec)
	}
}

// updateQuery resolves an UPDATE: the query locating its rows and its SET
// clauses.
func (s *Session) updateQuery(st Update) (plan.Query, []setClause, error) {
	q, schema, err := s.dmlQuery(st.Table, st.Where, nil)
	if err != nil {
		return q, nil, err
	}
	var set []setClause
	for _, a := range st.Set {
		i := schema.ColIndex(a.col)
		if i < 0 {
			return q, nil, fmt.Errorf("ddl: unknown column %q", a.col)
		}
		e, err := a.val.bind(schema, st.Table)
		if err != nil {
			return q, nil, err
		}
		set = append(set, setClause{col: i, val: e})
	}
	return q, set, nil
}

func (s *Session) execUpdate(tx *txn.Txn, st Update, sp *stmtPlan, params []types.Value) (*Result, error) {
	keys, recs, err := s.matched(sp.bound, tx, params)
	if err != nil {
		return nil, err
	}
	rel, err := s.env.OpenRelationByName(st.Table)
	if err != nil {
		return nil, err
	}
	for i, key := range keys {
		oldRec := recs[i]
		newRec := oldRec.Clone()
		for _, c := range sp.set {
			v, err := s.env.Eval.Eval(c.val, oldRec, params)
			if err != nil {
				return nil, err
			}
			newRec[c.col] = v
		}
		if _, err := rel.Update(tx, key, newRec); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(keys), Message: fmt.Sprintf("UPDATE %d", len(keys)), Explain: sp.bound.Explain()}, nil
}

func (s *Session) execDelete(tx *txn.Txn, st Delete, sp *stmtPlan, params []types.Value) (*Result, error) {
	keys, _, err := s.matched(sp.bound, tx, params)
	if err != nil {
		return nil, err
	}
	rel, err := s.env.OpenRelationByName(st.Table)
	if err != nil {
		return nil, err
	}
	for _, key := range keys {
		if err := rel.Delete(tx, key); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(keys), Message: fmt.Sprintf("DELETE %d", len(keys)), Explain: sp.bound.Explain()}, nil
}
