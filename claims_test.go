package dmx

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/plan"
)

// TestClaims holds the paper's deterministic claims as exact figures (see
// EXPERIMENTS.md for the claim each ID stands for): call counts read from
// MetricsSnapshot().Totals and the per-relation rollup, message counts from
// ForeignServer.Messages, access paths from Bound.Explain, sizes from the
// descriptor encoder. Nothing here reads a clock; timing lives in bench/.
func TestClaims(t *testing.T) {
	for _, c := range []struct {
		id  string
		run func(*testing.T)
	}{
		{"E2", claimE2JoinCallVolume},
		{"E5", claimE5AttachedCallsPerInsert},
		{"E6", claimE6AccessPathChoice},
		{"E9", claimE9DeferredChecks},
		{"E10", claimE10Cascade},
		{"E11", claimE11DescriptorBytes},
		{"A2", claimA2RemoteBatching},
		{"A3", claimA3OrderedAccess},
	} {
		t.Run(c.id, c.run)
	}
}

const empDDL = "(eno INT NOT NULL, dno INT, salary FLOAT, pad STRING)"

// claimsDB opens an in-memory database and runs the set-up statements.
func claimsDB(t *testing.T, stmts ...string) *DB {
	t.Helper()
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	claimsExec(t, db, stmts...)
	return db
}

func claimsExec(t *testing.T, db *DB, stmts ...string) {
	t.Helper()
	if _, err := db.Exec(stmts...); err != nil {
		t.Fatal(err)
	}
}

// loadEmp inserts records eno = 0..n-1 (dno = eno mod 10, salary = eno)
// into table in one transaction.
func loadEmp(t *testing.T, db *DB, table string, n int) {
	t.Helper()
	rel, err := db.Relation(table)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < n; i++ {
		if _, err := rel.Insert(tx, Record{Int(int64(i)), Int(int64(i % 10)), Float(float64(i)), Str("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// runPlan binds q, executes it to the end and returns the row count and
// the plan text.
func runPlan(t *testing.T, db *DB, q Query) (rows int, b *plan.Bound) {
	t.Helper()
	b, err := db.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	defer tx.Commit()
	rs, err := b.Execute(tx)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	for {
		_, ok, err := rs.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return rows, b
		}
		rows++
	}
}

// extensionCalls is every crossing of the two procedure vectors so far.
func extensionCalls(db *DB) int64 {
	tot := db.Env.MetricsSnapshot().Totals
	return tot.SMCalls + tot.AttCalls + tot.Fetches + tot.Scans
}

// relScans is the number of scans opened on the named relation.
func relScans(db *DB, name string) int64 {
	for _, r := range db.Env.RelStatRows() {
		if r.Name == name {
			return r.Scans
		}
	}
	return 0
}

// E2: a 2 000 x 10 equi-join crosses the generic interfaces thousands of
// times under the tuple-at-a-time strategies, and twice under a hash join.
// A join index is one more access path on the inner side ("access paths
// need not be limited to a single table"): each outer row probes it.
func claimE2JoinCallVolume(t *testing.T) {
	for _, c := range []struct {
		strategy string
		prep     []string
		force    string
		pin      *plan.ForcedPath // the inner path
		calls    int64
	}{
		{"nested loop", nil, "nl", nil, 2001}, // 1 outer scan + one inner rescan per outer row
		// dept's records carry eno == dno, so the probe index covers eno.
		{"index NL", []string{"CREATE INDEX deno ON dept (eno)"}, "indexnl", nil, 4001}, // + a probe and a fetch per outer row
		{"hash join", nil, "hash", nil, 2},                                              // one scan per side
		{"join index", []string{
			"CREATE ATTACHMENT joinindex ON emp WITH (name=ed, on=dno, peer=dept)",
			"CREATE ATTACHMENT joinindex ON dept WITH (name=ed, on=eno, peer=emp)",
		}, "", &plan.ForcedPath{Att: core.AttJoin}, 4001}, // as index NL: a probe and a fetch per outer row
	} {
		db := claimsDB(t, "CREATE TABLE emp "+empDDL+" USING heap", "CREATE TABLE dept "+empDDL+" USING memory")
		loadEmp(t, db, "emp", 2000)
		loadEmp(t, db, "dept", 10)
		claimsExec(t, db, c.prep...)
		before := extensionCalls(db)
		rows, _ := runPlan(t, db, Query{Table: "emp", Fields: []int{0}, ForceJoin: c.force,
			Join: &JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0, Fields: []int{1}, ForcePath: c.pin}})
		if got := extensionCalls(db) - before; rows != 2000 || got != c.calls {
			t.Errorf("%s: %d rows, %d extension calls; want 2000 rows, %d calls", c.strategy, rows, got, c.calls)
		}
	}
}

// E5: each attachment *type* on a relation is invoked once per
// modification, however many instances it has.
func claimE5AttachedCallsPerInsert(t *testing.T) {
	const inserts = 300
	db := claimsDB(t, "CREATE TABLE emp "+empDDL+" USING memory")
	db.RegisterCheckPredicate("claims_e5", expr.Ge(expr.Field(0), expr.Const(Int(0))))
	for _, c := range []struct {
		add            string // "" = bare relation
		callsPerInsert int64
	}{
		{"", 0},
		{"CREATE ATTACHMENT btree ON emp WITH (name=i1, on=dno)", 1},
		{"CREATE ATTACHMENT btree ON emp WITH (name=i2, on=salary)", 1}, // second instance, same type
		{"CREATE ATTACHMENT hash ON emp WITH (name=h1, on=eno)", 2},
		{"CREATE ATTACHMENT unique ON emp WITH (name=u1, on=eno)", 3},
		{"CREATE ATTACHMENT check ON emp WITH (name=c1, predicate=claims_e5)", 4},
		{"CREATE ATTACHMENT stats ON emp", 5},
		{"CREATE ATTACHMENT aggregate ON emp WITH (name=a1, group=dno, value=salary)", 6},
	} {
		if c.add != "" {
			claimsExec(t, db, c.add)
		}
		before := db.Env.MetricsSnapshot().Totals.AttCalls
		loadEmp(t, db, "emp", inserts)
		if got := db.Env.MetricsSnapshot().Totals.AttCalls - before; got != c.callsPerInsert*inserts {
			t.Errorf("after %q: %d attached calls for %d inserts, want %d per insert", c.add, got, inserts, c.callsPerInsert)
		}
		claimsExec(t, db, "DELETE FROM emp") // unique(eno) admits the next round
	}
}

// E6: every access path recognises its own predicate and the planner
// names it; a predicate no attachment covers goes to the storage method.
func claimE6AccessPathChoice(t *testing.T) {
	const rows = 5000
	db := claimsDB(t, "CREATE TABLE emp "+empDDL+" USING heap")
	loadEmp(t, db, "emp", rows)
	claimsExec(t, db,
		"CREATE ATTACHMENT btree ON emp WITH (name=byeno, on=eno, unique=true)",
		"CREATE ATTACHMENT hash ON emp WITH (name=bydno, on=dno)",
		"CREATE TABLE parcels (id INT NOT NULL, shape BYTES) USING memory")
	parcels, err := db.Relation("parcels")
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	const side = 45 // 2 025 parcels on a grid
	for i := 0; i < side*side; i++ {
		x, y := float64(i%side)*10, float64(i/side)*10
		if _, err := parcels.Insert(tx, Record{Int(int64(i)), NewBox(x, y, x+2, y+2).Value()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	claimsExec(t, db, "CREATE ATTACHMENT rtree ON parcels WITH (on=shape)")

	for _, c := range []struct {
		label, table string
		filter       *Expr
		via          string
		rows         int
	}{
		{"point eno = K", "emp", expr.Eq(expr.Field(0), expr.Const(Int(rows/2))), "via btree #0", 1},
		{"range eno < N/100", "emp", expr.Lt(expr.Field(0), expr.Const(Int(rows/100))), "via btree #0", rows / 100},
		{"equality dno = 3", "emp", expr.Eq(expr.Field(1), expr.Const(Int(3))), "via hash #0", rows / 10},
		{"non-indexed salary > N-10", "emp", expr.Gt(expr.Field(2), expr.Const(Float(rows-10))), "via heap", 9},
		{"spatial ENCLOSES window", "parcels",
			expr.Encloses(expr.Const(NewBox(0, 0, 25, 25).Value()), expr.Field(1)), "via rtree #0", 9},
	} {
		got, b := runPlan(t, db, Query{Table: c.table, Fields: []int{0}, Filter: c.filter})
		if !strings.Contains(b.Explain(), c.via) || got != c.rows {
			t.Errorf("%s: plan %q returned %d rows, want %q and %d rows", c.label, b.Explain(), got, c.via, c.rows)
		}
	}
}

// E9: 5 000 child inserts over 10 distinct foreign keys look the parent
// up 5 000 times when checked immediately and 10 times when deferred to
// before-prepare (each deferred check first re-confirms, with one scan of
// the child relation, that a child still carries the value).
func claimE9DeferredChecks(t *testing.T) {
	for _, c := range []struct {
		timing               string
		parentLookups, scans int64
	}{
		{"immediate", 5000, 5000},
		{"deferred", 10, 20},
	} {
		db := claimsDB(t, "CREATE TABLE dept "+empDDL+" USING memory", "CREATE TABLE emp "+empDDL+" USING memory")
		loadEmp(t, db, "dept", 200)
		claimsExec(t, db, "CREATE ATTACHMENT refint ON emp WITH (name=fk, role=child, on=dno, peer=dept, peerkey=dno, timing="+c.timing+")")
		lookups, scans := relScans(db, "dept"), db.Env.MetricsSnapshot().Totals.Scans
		loadEmp(t, db, "emp", 5000)
		lookups, scans = relScans(db, "dept")-lookups, db.Env.MetricsSnapshot().Totals.Scans-scans
		if lookups != c.parentLookups || scans != c.scans {
			t.Errorf("%s: %d parent lookups, %d scans; want %d, %d", c.timing, lookups, scans, c.parentLookups, c.scans)
		}
	}
}

// E10: deleting one root record cascades through pure attachment
// recursion: fanout 4 per level deletes (4^(depth+1)-1)/3 records.
func claimE10Cascade(t *testing.T) {
	const fanout = 4
	for _, c := range []struct {
		depth   int
		deleted int64
	}{{1, 5}, {3, 85}} {
		db := claimsDB(t)
		for level := 0; level <= c.depth; level++ {
			claimsExec(t, db, fmt.Sprintf("CREATE TABLE r%d %s USING memory", level, empDDL))
		}
		for level := 0; level < c.depth; level++ {
			claimsExec(t, db, fmt.Sprintf(
				"CREATE ATTACHMENT refint ON r%d WITH (name=cascade, role=parent, on=eno, peer=r%d, peerkey=dno, action=cascade)",
				level, level+1))
		}
		// Level L holds fanout^L records; record i's parent is i/fanout.
		tx := db.Begin()
		for level, count := 0, 1; level <= c.depth; level, count = level+1, count*fanout {
			rel, err := db.Relation(fmt.Sprintf("r%d", level))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < count; i++ {
				if _, err := rel.Insert(tx, Record{Int(int64(i)), Int(int64(i / fanout)), Float(0), Str("")}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		before := db.Env.MetricsSnapshot().Totals.SMCalls
		claimsExec(t, db, "DELETE FROM r0")
		if got := db.Env.MetricsSnapshot().Totals.SMCalls - before; got != c.deleted {
			t.Errorf("depth %d: %d records deleted, want %d", c.depth, got, c.deleted)
		}
		for level := 0; level <= c.depth; level++ {
			if res, err := db.Exec(fmt.Sprintf("SELECT eno FROM r%d", level)); err != nil || len(res.Rows) != 0 {
				t.Errorf("depth %d: r%d keeps %d records (%v)", c.depth, level, len(res.Rows), err)
			}
		}
	}
}

// E11: an absent attachment type costs two bytes of the record-structured
// descriptor; a present one costs its own descriptor and nothing more.
func claimE11DescriptorBytes(t *testing.T) {
	db := claimsDB(t, "CREATE TABLE emp "+empDDL+" USING heap")
	emp, err := db.Relation("emp")
	if err != nil {
		t.Fatal(err)
	}
	base := &RelDesc{RelID: 7, Name: "emp", Schema: emp.Desc().Schema, SM: core.SMHeap, SMDesc: []byte{1, 2, 3, 4}}
	for _, c := range []struct{ present, bytes int }{{0, 121}, {4, 217}, {10, 361}} {
		rd := base.Clone()
		for i := 1; i <= c.present; i++ {
			rd.AttDesc[i] = bytes.Repeat([]byte("d"), 24)
		}
		enc := rd.AppendEncode(nil)
		if len(enc) != c.bytes {
			t.Errorf("%d types present: %d bytes, want %d", c.present, len(enc), c.bytes)
		}
		if _, n, err := core.DecodeRelDesc(enc); err != nil || n != len(enc) {
			t.Errorf("%d types present: decoded %d of %d bytes: %v", c.present, n, len(enc), err)
		}
	}
	const absent = 2 * (core.MaxAttachmentTypes - 1)
	enc := base.AppendEncode(nil)
	if absent != 62 || !bytes.Equal(enc[len(enc)-absent:], bytes.Repeat([]byte{0xFF}, absent)) {
		t.Errorf("the empty attachment vector is not %d bytes of absent markers: % x", absent, enc[len(enc)-absent:])
	}
}

// A2: a 2 000-record scan of a foreign relation costs one message per
// batch plus the empty batch that ends it. The four local relations are
// views of one foreign table, which differ only in their batch size.
func claimA2RemoteBatching(t *testing.T) {
	db := claimsDB(t)
	fed := NewForeignServer(0)
	db.AttachShardServer("fed", fed)
	for i, c := range []struct {
		batch    int
		messages int64
	}{{1, 2001}, {10, 201}, {100, 21}, {1000, 3}} {
		name := fmt.Sprintf("far%d", c.batch)
		claimsExec(t, db, fmt.Sprintf("CREATE TABLE %s %s USING remote WITH (server=fed, table=far, batch=%d)", name, empDDL, c.batch))
		if i == 0 {
			loadEmp(t, db, name, 2000)
		}
		far, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		before := fed.Messages.Load()
		tx := db.Begin()
		scan, err := far.OpenScan(tx, core.ScanOptions{Fields: []int{0}})
		if err != nil {
			t.Fatal(err)
		}
		rows := len(drainScan(t, scan))
		scan.Close()
		tx.Commit()
		if got := fed.Messages.Load() - before; rows != 2000 || got != c.messages {
			t.Errorf("batch %d: %d rows in %d messages, want 2000 rows in %d", c.batch, rows, got, c.messages)
		}
	}
}

// A3: an unclustered B-tree delivers order, but fetches record-at-a-time:
// the planner streams it for a top-k and prefers scan + sort for the whole
// table.
func claimA3OrderedAccess(t *testing.T) {
	db := claimsDB(t, "CREATE TABLE emp "+empDDL+" USING heap")
	loadEmp(t, db, "emp", 5000)
	claimsExec(t, db, "CREATE ATTACHMENT btree ON emp WITH (name=bysalary, on=salary)")
	for _, c := range []struct {
		label   string
		limit   int
		via     string
		ordered bool
	}{
		{"ORDER BY salary LIMIT 10", 10, "via btree #0", true},
		{"ORDER BY salary", 0, "via heap", false},
	} {
		b, err := db.Plan(Query{Table: "emp", Fields: []int{2}, OrderBy: []int{2}, Limit: c.limit})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.Explain(), c.via) || b.Ordered() != c.ordered {
			t.Errorf("%s: plan %q (ordered=%v), want %q (ordered=%v)", c.label, b.Explain(), b.Ordered(), c.via, c.ordered)
		}
	}
}
