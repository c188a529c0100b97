package main

import (
	"time"

	"dmx"
	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/plan"
	"dmx/internal/types"
)

// scan-filter: one client on read-only snapshots runs three plans, bound
// once in set-up and reused round-robin, over a heap ten times larger
// than the buffer pool. No ddl, no lock requests, no log appends: all
// time is storage-method scan, predicate evaluation, buffer replacement
// and plan operators.
//
//	Q1  1 %-selective pushed-down filter, 2-field projection (paper E4)
//	Q2  10 % btree range with ORDER BY
//	Q3  1 % filter hash-joined to the 1 000-row dept

const (
	scanRows   = 50000 // × ~200 B ≈ 10 MB
	scanFrames = 256   // × 4 KB = 1 MB pool, a tenth of the data
	scanPad    = 150
	scanDepts  = 1000
	scanBands  = 100
)

var scanWorkload = workload{
	name:    "scan-filter",
	why:     "bound plans over a heap 10x the buffer pool on a read-only snapshot: zero ddl, locks and WAL, so per-row scan, predicate and buffer-replacement cost shows here and nowhere else",
	op:      "query drained to the end",
	clients: 1,
	setup:   setupScan,
	newGens: func(cfg config) []generator { return []generator{newScanGen(cfg)} },
}

// scanGen picks the three queries' constants from the seed and then
// yields them round-robin: a is the query, b its constant.
type scanGen struct {
	rows   int64
	consts [3]int64
	i      int64
}

func newScanGen(cfg config) *scanGen {
	r := newRNG(cfg.seed, 0)
	rows := int64(cfg.scaled(scanRows, 1000)) / scanBands * scanBands
	g := &scanGen{rows: rows}
	g.consts[0] = r.intn(scanBands)
	g.consts[1] = r.intn(rows - rows/10)
	g.consts[2] = r.intn(scanBands)
	return g
}

func (g *scanGen) next() op {
	q := g.i % 3
	g.i++
	return op{kind: uint8(q), a: q, b: g.consts[q]}
}

// Row i of emp_big: the band column takes every value equally often, so
// the generator knows each query's row count without running it.
func scanBand(i int64) int64   { return i * 7919 % scanBands }
func scanDept(i int64) int64   { return int64(mix(uint64(i), 3) % scanDepts) }
func scanSalary(i int64) int64 { return int64(mix(uint64(i), 5) % 100000) }

type scanInst struct {
	d     *dmx.DB
	gen   *scanGen
	rel   *dmx.Relation
	q     [3]dmx.Query
	bound [3]*plan.Bound
	wantN [3]int64
	wantS [3]uint64
	// q1 is Q1 expressed one layer down, for the traced ladder.
	q1      core.ScanOptions
	scanned int64
}

func setupScan(cfg config) (instance, error) {
	db, err := dmx.Open(dmx.Config{PoolFrames: scanFrames})
	if err != nil {
		return nil, err
	}
	g := newScanGen(cfg)
	in := &scanInst{d: db, gen: g}
	if err := mustExec(db,
		"CREATE TABLE emp_big (eno INT NOT NULL, dno INT, band INT, salary INT, pad STRING) USING heap",
		"CREATE TABLE dept (dno INT NOT NULL, name STRING) USING heap"); err != nil {
		return nil, err
	}
	emp, err := db.Relation("emp_big")
	if err != nil {
		return nil, err
	}
	dept, err := db.Relation("dept")
	if err != nil {
		return nil, err
	}
	tx := db.Begin()
	for i := int64(0); i < scanDepts; i++ {
		if _, err := dept.Insert(tx, dmx.Record{dmx.Int(i), dmx.Str(pad(20, i))}); err != nil {
			return nil, err
		}
	}
	lo := g.consts[1]
	for i := int64(0); i < g.rows; i++ {
		sal := scanSalary(i)
		if _, err := emp.Insert(tx, dmx.Record{dmx.Int(i), dmx.Int(scanDept(i)),
			dmx.Int(scanBand(i)), dmx.Int(sal), dmx.Str(pad(scanPad, i))}); err != nil {
			return nil, err
		}
		term := mix(uint64(i), uint64(sal))
		if scanBand(i) == g.consts[0] {
			in.wantN[0]++
			in.wantS[0] += term
		}
		if i >= lo && i < lo+g.rows/10 {
			in.wantN[1]++
			in.wantS[1] += term
		}
		if scanBand(i) == g.consts[2] {
			in.wantN[2]++
			in.wantS[2] += term
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	if err := mustExec(db, "CREATE INDEX emp_big_eno ON emp_big (eno)"); err != nil {
		return nil, err
	}
	if in.rel, err = db.Relation("emp_big"); err != nil {
		return nil, err
	}

	band := func(b int64) *dmx.Expr { return expr.Eq(expr.Field(2), expr.Const(types.Int(b))) }
	in.q[0] = dmx.Query{Table: "emp_big", Filter: band(g.consts[0]), Fields: []int{0, 3}}
	in.q[1] = dmx.Query{Table: "emp_big", Fields: []int{0, 3}, OrderBy: []int{0},
		Filter: expr.And(expr.Ge(expr.Field(0), expr.Const(types.Int(lo))),
			expr.Lt(expr.Field(0), expr.Const(types.Int(lo+g.rows/10))))}
	in.q[2] = dmx.Query{Table: "emp_big", Filter: band(g.consts[2]), Fields: []int{0, 3},
		Join: &dmx.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0, Fields: []int{0}}, ForceJoin: "hash"}
	in.q1 = core.ScanOptions{Filter: in.q[0].Filter, Fields: in.q[0].Fields}
	for i := range in.q {
		if in.bound[i], err = db.Plan(in.q[i]); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// drain reads a cursor to the end, returning the row count, the
// checksum over (field 0, field 1) and whether field 0 ascended.
func drain(rows plan.Rows) (n int64, sum uint64, ordered bool, err error) {
	defer rows.Close()
	ordered = true
	last := int64(-1)
	for {
		rec, ok, err := rows.Next()
		if err != nil || !ok {
			return n, sum, ordered, err
		}
		n++
		sum += mix(uint64(rec[0].I), uint64(rec[1].I))
		if rec[0].I < last {
			ordered = false
		}
		last = rec[0].I
	}
}

func (in *scanInst) check(q int, n int64, sum uint64, ordered bool, err error) bool {
	return err == nil && n == in.wantN[q] && sum == in.wantS[q] && (q != 1 || ordered)
}

func (in *scanInst) step(_ int, m *meter) {
	q := int(in.gen.next().a)
	tr := m.tr
	t0 := time.Now()
	root := tr.begin(layOp, -1)
	px := tr.begin(layPlanExec, root)
	tx := in.d.BeginReadOnly()
	rows, err := in.bound[q].Execute(tx)
	var n int64
	var sum uint64
	ordered := false
	if err == nil {
		n, sum, ordered, err = drain(rows)
	}
	if cerr := tx.Commit(); err == nil {
		err = cerr
	}
	tr.end(px)
	tr.end(root)
	m.done(t0, in.check(q, n, sum, ordered, err))
	m.rows += n
	if tr != nil {
		in.ladder(q, root, px, m)
		tr.flush()
	}
}

// ladder re-binds the query (what a caller without bound plans would pay
// per op) and, for Q1, repeats the scan through Relation.OpenScan and
// through the storage method directly with the same pushed-down filter.
func (in *scanInst) ladder(q, root, px int, m *meter) {
	tr := m.tr
	s := tr.begin(layPlanBind, root)
	_, err := in.d.Plan(in.q[q])
	tr.endRung(s)
	if err != nil {
		m.failed++
		return
	}
	if q != 0 {
		return
	}
	tx := in.d.BeginReadOnly()
	defer tx.Commit()
	ro := tr.begin(layRelOp, px)
	scan, err := in.rel.OpenScan(tx, in.q1)
	n, sum := int64(0), uint64(0)
	if err == nil {
		n, sum, err = drainScan(scan)
	}
	tr.endRung(ro)
	ok := in.check(0, n, sum, true, err)
	sm := tr.begin(laySMRead, ro)
	scan, err = in.rel.Storage().OpenScan(tx, in.q1)
	if err == nil {
		n, sum, err = drainScan(scan)
	}
	tr.endRung(sm)
	in.scanned += in.gen.rows
	if !ok || !in.check(0, n, sum, true, err) {
		m.failed++
	}
}

func drainScan(scan core.Scan) (n int64, sum uint64, err error) {
	defer scan.Close()
	for {
		_, rec, ok, err := scan.Next()
		if err != nil || !ok {
			return n, sum, err
		}
		n++
		sum += mix(uint64(rec[0].I), uint64(rec[1].I))
	}
}

func (in *scanInst) pause(int, *meter)    {}
func (in *scanInst) quiesce(*meter) error { return nil }
func (in *scanInst) close() error         { return in.d.Close() }
func (in *scanInst) db() *dmx.DB          { return in.d }
func (in *scanInst) info() info           { return info{scanRows: in.scanned} }

// finish checks the table itself: a full scan must return every loaded
// row, so the per-query counts were checked against intact data.
func (in *scanInst) finish() (checks, failed int64, err error) {
	n, _, err := scanChecksum(in.d, "emp_big", 0, 3)
	if err != nil {
		return 0, 0, err
	}
	if n != in.gen.rows {
		failed++
	}
	return 1, failed, nil
}
