package main

import (
	"fmt"
	"strconv"
	"time"

	"dmx"
	"dmx/internal/core"
	"dmx/internal/ddl"
	"dmx/internal/expr"
	"dmx/internal/types"
)

// oltp-sql: autocommit SQL text against a heap table carrying btree,
// unique, check and hash attachments. It is the only workload that pays
// parse, bind and plan on every op and fans every write out to four
// attachment types.
//
// One client: the engine's SQL UPDATE and DELETE locate rows with a
// filtered scan under a relation S lock and then upgrade to IX, so two
// sessions updating one table make each other deadlock victims, and a
// benchmark workload is one on which no op fails.

const (
	oltpRows = 10000
	oltpPad  = 60
)

const (
	oltpSelect = iota
	oltpUpdate
	oltpInsert
	oltpDelete
)

var oltpWorkload = workload{
	name:    "oltp-sql",
	why:     "autocommit SQL text on a heap with btree, unique, check and hash attachments: the only workload that pays parse, bind and plan per op and notifies four attachment types per write",
	op:      "statement",
	clients: 1,
	setup:   setupOLTP,
	newGens: func(cfg config) []generator { return []generator{newOLTPGen(cfg)} },
}

// oltpGen yields 60 % point SELECT, 24 % UPDATE of a non-indexed column,
// 8 % INSERT and 8 % DELETE, so the table size is steady. Live keys are
// the window [low, high); sal shadows the salary of every key ever live.
type oltpGen struct {
	r         *rng
	low, high int64
	sal       []int64
	pos       int64 // SELECT keys walk the window with a stride, so one
	stride    int64 // statement text rarely repeats and the session's
	// exact-text plan cache misses, as it does for literal-bearing SQL.
}

func oltpSalary(eno int64) int64 { return int64(mix(uint64(eno), 17) % 100000) }

func newOLTPGen(cfg config) *oltpGen {
	rows := int64(cfg.scaled(oltpRows, 200))
	g := &oltpGen{r: newRNG(cfg.seed, 0), high: rows, sal: make([]int64, rows, 2*rows)}
	for i := range g.sal {
		g.sal[i] = oltpSalary(int64(i))
	}
	g.stride = 7919 + 2*g.r.intn(1000)
	for gcd(g.stride, rows) != 1 {
		g.stride += 2
	}
	return g
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (g *oltpGen) next() op {
	live := g.high - g.low
	switch p := g.r.intn(100); {
	case p < 60:
		g.pos = (g.pos + g.stride) % live
		k := g.low + g.pos
		return op{kind: oltpSelect, a: k, b: g.sal[k]}
	case p < 84:
		k := g.low + g.r.intn(live)
		v := g.r.intn(100000)
		g.sal[k] = v
		return op{kind: oltpUpdate, a: k, b: v}
	case p < 92:
		k := g.high
		g.high++
		g.sal = append(g.sal, oltpSalary(k))
		return op{kind: oltpInsert, a: k, b: g.sal[k]}
	default:
		k := g.low
		g.low++
		return op{kind: oltpDelete, a: k}
	}
}

const oltpTable = "emp"

type oltpInst struct {
	d     *dmx.DB
	gen   *oltpGen
	sess  *dmx.Session
	rel   *dmx.Relation
	btree core.AttID
	path  core.AccessPath // the btree index on eno, for the ladder's direct probe
	buf   []byte
}

func setupOLTP(cfg config) (instance, error) {
	db, err := dmx.Open(dmx.Config{PoolFrames: 4096})
	if err != nil {
		return nil, err
	}
	db.RegisterCheckPredicate("bench_sal_nonneg", expr.Ge(expr.Field(2), expr.Const(types.Int(0))))
	in := &oltpInst{d: db, gen: newOLTPGen(cfg), sess: db.NewSession(),
		btree: db.Env.Reg.AttachmentByName("btree").ID}
	if err := mustExec(db,
		"CREATE TABLE emp (eno INT NOT NULL, dno INT, salary INT, name STRING) USING heap"); err != nil {
		return nil, err
	}
	rel, err := db.Relation(oltpTable)
	if err != nil {
		return nil, err
	}
	tx := db.Begin()
	for i := int64(0); i < in.gen.high; i++ {
		if _, err := rel.Insert(tx, oltpRecord(i, in.gen.sal[i])); err != nil {
			return nil, err
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	// Attachments are created over the loaded table, so set-up pays four
	// index builds.
	if err := mustExec(db,
		"CREATE INDEX emp_eno ON emp (eno)",
		"CREATE ATTACHMENT unique ON emp WITH (name=u, on=eno)",
		"CREATE ATTACHMENT check ON emp WITH (name=c, predicate=bench_sal_nonneg)",
		"CREATE ATTACHMENT hash ON emp WITH (name=h, on=dno)"); err != nil {
		return nil, err
	}
	if in.rel, err = db.Relation(oltpTable); err != nil {
		return nil, err
	}
	ai, err := db.Env.AttachmentInstance(in.rel.Desc(), in.btree)
	if err != nil {
		return nil, err
	}
	in.path = ai.(core.AccessPath)
	return in, nil
}

func oltpRecord(eno, sal int64) dmx.Record {
	return dmx.Record{dmx.Int(eno), dmx.Int(eno % 100), dmx.Int(sal), dmx.Str(pad(oltpPad, eno))}
}

// text renders the statement for o into the reused buffer.
func (in *oltpInst) text(o op) string {
	b := in.buf[:0]
	switch o.kind {
	case oltpSelect:
		b = append(b, "SELECT salary, dno FROM "...)
		b = append(b, oltpTable...)
		b = append(b, " WHERE eno = "...)
		b = strconv.AppendInt(b, o.a, 10)
	case oltpUpdate:
		b = append(b, "UPDATE "...)
		b = append(b, oltpTable...)
		b = append(b, " SET salary = "...)
		b = strconv.AppendInt(b, o.b, 10)
		b = append(b, " WHERE eno = "...)
		b = strconv.AppendInt(b, o.a, 10)
	case oltpInsert:
		b = append(b, "INSERT INTO "...)
		b = append(b, oltpTable...)
		b = append(b, " VALUES ("...)
		b = strconv.AppendInt(b, o.a, 10)
		b = append(b, ", "...)
		b = strconv.AppendInt(b, o.a%100, 10)
		b = append(b, ", "...)
		b = strconv.AppendInt(b, o.b, 10)
		b = append(b, ", '"...)
		b = append(b, pad(oltpPad, o.a)...)
		b = append(b, "')"...)
	case oltpDelete:
		b = append(b, "DELETE FROM "...)
		b = append(b, oltpTable...)
		b = append(b, " WHERE eno = "...)
		b = strconv.AppendInt(b, o.a, 10)
	}
	in.buf = b
	return string(b)
}

func oltpOK(o op, res *dmx.Result, err error) bool {
	if err != nil {
		return false
	}
	if o.kind == oltpSelect {
		return len(res.Rows) == 1 && res.Rows[0][0].I == o.b && res.Rows[0][1].I == o.a%100
	}
	return res.Affected == 1
}

func (in *oltpInst) step(_ int, m *meter) {
	o := in.gen.next()
	text := in.text(o)
	if m.tr == nil {
		t0 := time.Now()
		res, err := in.sess.Exec(text)
		m.done(t0, oltpOK(o, res, err))
	} else {
		in.tracedStep(o, text, m)
	}
	if o.kind != oltpSelect {
		m.writes++
		m.userB += oltpPad + 24
	}
}

// tracedStep runs the op under a span, then climbs down the ladder.
func (in *oltpInst) tracedStep(o op, text string, m *meter) {
	tr := m.tr
	root := tr.begin(layOp, -1)
	exec := tr.begin(layDDLExec, root)
	t0 := time.Now()
	res, err := in.sess.Exec(text)
	tr.end(exec)
	tr.end(root)
	m.done(t0, oltpOK(o, res, err))
	if !in.ladder(o, text, root, exec, tr) {
		m.failed++
	}
	tr.flush()
}

// ladder repeats the statement through ddl.Parse alone and, for a SELECT,
// the same read through Planner.Plan, Bound.Execute,
// Relation.LookupAccess+Fetch, and the access path and the storage method
// called directly. A rung's self time is its span minus the rungs below.
func (in *oltpInst) ladder(o op, text string, root, exec int, tr *tracer) bool {
	// Only a SELECT has the whole ladder under its Exec span; a write's
	// parse rung hangs off the root, so Exec self time means the same
	// thing on every span that reports it.
	parent := root
	if o.kind == oltpSelect {
		parent = exec
	}
	s := tr.begin(layDDLParse, parent)
	_, err := ddl.Parse(text)
	tr.endRung(s)
	if err != nil || o.kind != oltpSelect {
		return err == nil
	}

	fields := []int{2, 1}
	s = tr.begin(layPlanBind, exec)
	bound, err := in.d.Plan(dmx.Query{Table: oltpTable, Fields: fields,
		Filter: expr.Eq(expr.Field(0), expr.Const(types.Int(o.a)))})
	tr.endRung(s)
	if err != nil {
		return false
	}
	tx := in.d.Begin()
	defer tx.Commit()

	px := tr.begin(layPlanExec, exec)
	var n int64
	rows, err := bound.Execute(tx)
	if err == nil {
		n, _, _, err = drain(rows)
	}
	tr.endRung(px)
	if err != nil || n != 1 {
		return false
	}

	ikey := types.EncodeKeyValues(types.Int(o.a))
	ro := tr.begin(layRelOp, px)
	keys, err := in.rel.LookupAccess(tx, in.btree, 0, ikey)
	if err == nil && len(keys) == 1 {
		_, err = in.rel.Fetch(tx, keys[0], fields, nil)
	}
	tr.endRung(ro)
	if err != nil || len(keys) != 1 {
		return false
	}

	s = tr.begin(layAttRead, ro)
	_, aerr := in.path.LookupByKey(tx, 0, ikey)
	tr.endRung(s)
	s = tr.begin(laySMRead, ro)
	_, serr := in.rel.Storage().FetchByKey(tx, keys[0], fields, nil)
	tr.endRung(s)
	return aerr == nil && serr == nil
}

func (in *oltpInst) pause(int, *meter) {}

func (in *oltpInst) quiesce(m *meter) error { return checkpoint(in.d, m) }

// finish compares a full scan of the table with the shadow: row count and
// an order-independent checksum over (eno, salary).
func (in *oltpInst) finish() (checks, failed int64, err error) {
	g := in.gen
	var want uint64
	for k := g.low; k < g.high; k++ {
		want += mix(uint64(k), uint64(g.sal[k]))
	}
	n, got, err := scanChecksum(in.d, oltpTable, 0, 2)
	if err != nil {
		return 0, 0, err
	}
	if n != g.high-g.low {
		failed++
	}
	if got != want {
		failed++
	}
	return 2, failed, nil
}

func (in *oltpInst) close() error { return in.d.Close() }
func (in *oltpInst) db() *dmx.DB  { return in.d }
func (in *oltpInst) info() info   { return info{} }

// scanChecksum scans a whole relation through the generic interface and
// returns the row count and the sum of mix(idCol, valCol) over its rows.
func scanChecksum(db *dmx.DB, table string, idCol, valCol int) (int64, uint64, error) {
	rel, err := db.Relation(table)
	if err != nil {
		return 0, 0, err
	}
	tx := db.Begin()
	defer tx.Commit()
	scan, err := rel.OpenScan(tx, core.ScanOptions{Fields: []int{idCol, valCol}})
	if err != nil {
		return 0, 0, err
	}
	defer scan.Close()
	var n int64
	var sum uint64
	for {
		_, rec, ok, err := scan.Next()
		if err != nil {
			return 0, 0, fmt.Errorf("scan %s: %w", table, err)
		}
		if !ok {
			return n, sum, nil
		}
		n++
		sum += mix(uint64(rec[0].I), uint64(rec[1].I))
	}
}

// checkpoint bounds the (in-memory) log between phases; in a traced run
// the call is a span.
func checkpoint(db *dmx.DB, m *meter) error {
	s := m.tr.begin(layCheckpoint, -1)
	err := db.Checkpoint()
	m.tr.end(s)
	m.tr.flush()
	return err
}
