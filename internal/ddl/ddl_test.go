package ddl_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	_ "dmx/internal/att/btreeix"
	_ "dmx/internal/att/check"
	_ "dmx/internal/att/hashidx"
	_ "dmx/internal/att/joinidx"
	_ "dmx/internal/att/refint"
	_ "dmx/internal/att/rtreeix"
	_ "dmx/internal/att/stats"
	_ "dmx/internal/att/trigger"
	_ "dmx/internal/att/unique"
	"dmx/internal/core"
	"dmx/internal/ddl"
	"dmx/internal/plan"
	_ "dmx/internal/sm/appendsm"
	_ "dmx/internal/sm/btreesm"
	_ "dmx/internal/sm/heap"
	_ "dmx/internal/sm/memsm"
	_ "dmx/internal/sm/tempsm"
	"dmx/internal/types"
)

func newSession(t *testing.T) *ddl.Session {
	t.Helper()
	return ddl.NewSession(core.NewEnv(core.Config{}))
}

func mustExec(t *testing.T, s *ddl.Session, stmts ...string) *ddl.Result {
	t.Helper()
	var res *ddl.Result
	for _, stmt := range stmts {
		var err error
		res, err = s.Exec(stmt)
		if err != nil {
			t.Fatalf("exec %q: %v", stmt, err)
		}
	}
	return res
}

func TestCreateInsertSelect(t *testing.T) {
	s := newSession(t)
	mustExec(t, s,
		"CREATE TABLE emp (eno INT NOT NULL, name STRING, salary FLOAT) USING memory",
		"INSERT INTO emp VALUES (1, 'ada', 100.5), (2, 'bob', 90.0), (3, 'cyd', 120.25)",
	)
	res := mustExec(t, s, "SELECT name, salary FROM emp WHERE salary >= 100")
	if len(res.Rows) != 2 || len(res.Columns) != 2 || res.Columns[0] != "name" {
		t.Fatalf("res = %+v", res)
	}
	for _, r := range res.Rows {
		if r[1].AsFloat() < 100 {
			t.Fatalf("filter failed: %v", r)
		}
	}
	// SELECT * returns all columns.
	res = mustExec(t, s, "SELECT * FROM emp")
	if len(res.Rows) != 3 || len(res.Columns) != 3 {
		t.Fatalf("select * = %+v", res)
	}
}

func TestStorageMethodSelectionViaUSING(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE k (id INT NOT NULL, v STRING) USING btree WITH (key=id)")
	mustExec(t, s, "INSERT INTO k VALUES (5, 'five'), (1, 'one')")
	res := mustExec(t, s, "SELECT v FROM k WHERE id = 5")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "five" {
		t.Fatalf("res = %+v", res)
	}
	if !strings.Contains(res.Explain, "btree") {
		t.Fatalf("explain = %s", res.Explain)
	}
	// Unknown storage method is rejected by the registry.
	if _, err := s.Exec("CREATE TABLE bad (id INT) USING antigravity"); err == nil {
		t.Fatal("unknown storage method accepted")
	}
	// Attribute validation happens through the generic operation.
	if _, err := s.Exec("CREATE TABLE bad (id INT) USING btree WITH (colour=red)"); err == nil {
		t.Fatal("bad attribute accepted")
	}
}

func TestCreateIndexSugarAndPlanUse(t *testing.T) {
	s := newSession(t)
	mustExec(t, s,
		"CREATE TABLE emp (eno INT NOT NULL, dno INT) USING memory",
	)
	for i := 0; i < 50; i++ {
		mustExec(t, s, "INSERT INTO emp VALUES ("+itoa(i)+", "+itoa(i%5)+")")
	}
	mustExec(t, s, "CREATE INDEX byeno ON emp (eno)")
	res := mustExec(t, s, "SELECT eno FROM emp WHERE eno = 7")
	if !strings.Contains(res.Explain, "btree") {
		t.Fatalf("explain = %s", res.Explain)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 7 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func itoa(i int) string {
	return types.Int(int64(i)).String()
}

func TestUpdateAndDelete(t *testing.T) {
	s := newSession(t)
	mustExec(t, s,
		"CREATE TABLE t (id INT NOT NULL, v FLOAT) USING memory",
		"INSERT INTO t VALUES (1, 10.0), (2, 20.0), (3, 30.0)",
	)
	res := mustExec(t, s, "UPDATE t SET v = v * 2 WHERE id <> 2")
	if res.Affected != 2 {
		t.Fatalf("update affected = %d", res.Affected)
	}
	sel := mustExec(t, s, "SELECT v FROM t WHERE id = 1")
	if sel.Rows[0][0].AsFloat() != 20 {
		t.Fatalf("updated value = %v", sel.Rows[0][0])
	}
	// Values are now (1,20), (2,20), (3,60): only 60 matches.
	res = mustExec(t, s, "DELETE FROM t WHERE v >= 30")
	if res.Affected != 1 {
		t.Fatalf("delete affected = %d", res.Affected)
	}
	sel = mustExec(t, s, "SELECT * FROM t")
	if len(sel.Rows) != 2 {
		t.Fatalf("remaining = %d", len(sel.Rows))
	}
}

func TestExplicitTransactionsAndSavepoints(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE t (id INT NOT NULL, v STRING) USING memory")
	mustExec(t, s,
		"BEGIN",
		"INSERT INTO t VALUES (1, 'kept')",
		"SAVEPOINT sp",
		"INSERT INTO t VALUES (2, 'undone')",
		"ROLLBACK TO sp",
		"INSERT INTO t VALUES (3, 'kept')",
		"COMMIT",
	)
	res := mustExec(t, s, "SELECT * FROM t")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Full rollback.
	mustExec(t, s, "BEGIN", "INSERT INTO t VALUES (4, 'gone')", "ROLLBACK")
	res = mustExec(t, s, "SELECT * FROM t")
	if len(res.Rows) != 2 {
		t.Fatalf("rows after rollback = %v", res.Rows)
	}
	if _, err := s.Exec("COMMIT"); err == nil {
		t.Fatal("COMMIT without BEGIN accepted")
	}
	if _, err := s.Exec("SAVEPOINT x"); err == nil {
		t.Fatal("SAVEPOINT without BEGIN accepted")
	}
}

func TestAutocommitRollbackOnError(t *testing.T) {
	s := newSession(t)
	mustExec(t, s,
		"CREATE TABLE t (id INT NOT NULL, v STRING) USING memory",
		"CREATE ATTACHMENT unique ON t WITH (on=id)",
		"INSERT INTO t VALUES (1, 'a')",
	)
	// A multi-row autocommit insert with a duplicate fails atomically.
	if _, err := s.Exec("INSERT INTO t VALUES (2, 'b'), (1, 'dup')"); err == nil {
		t.Fatal("duplicate accepted")
	}
	res := mustExec(t, s, "SELECT * FROM t")
	if len(res.Rows) != 1 {
		t.Fatalf("partial insert leaked: %d rows", len(res.Rows))
	}
}

func TestJoinSyntax(t *testing.T) {
	s := newSession(t)
	mustExec(t, s,
		"CREATE TABLE dept (dno INT NOT NULL, dname STRING) USING memory",
		"CREATE TABLE emp (eno INT NOT NULL, dno INT) USING memory",
		"INSERT INTO dept VALUES (1, 'eng'), (2, 'ops')",
		"INSERT INTO emp VALUES (10, 1), (11, 1), (12, 2)",
	)
	res := mustExec(t, s, "SELECT emp.eno, dept.dname FROM emp JOIN dept ON emp.dno = dept.dno")
	if len(res.Rows) != 3 || len(res.Columns) != 2 {
		t.Fatalf("join res = %+v", res)
	}
	for _, r := range res.Rows {
		eno, dname := r[0].AsInt(), r[1].S
		want := "eng"
		if eno == 12 {
			want = "ops"
		}
		if dname != want {
			t.Fatalf("join row %v", r)
		}
	}
}

// TestJoinIndexHint: USING JOININDEX pins the inner side's join index, so
// an ON clause over another column than the index's is refused rather
// than answered through the index.
func TestJoinIndexHint(t *testing.T) {
	s := newSession(t)
	mustExec(t, s,
		"CREATE TABLE emp (eno INT NOT NULL, dno INT) USING memory",
		"CREATE TABLE dept (dno INT NOT NULL, other INT) USING memory",
		"CREATE ATTACHMENT joinindex ON emp WITH (name=ed, on=dno, peer=dept)",
		"CREATE ATTACHMENT joinindex ON dept WITH (name=ed, on=dno, peer=emp)",
		"INSERT INTO emp VALUES (1, 10)",
		"INSERT INTO dept VALUES (10, 99)",
	)
	want := types.Record{types.Int(1), types.Int(10), types.Int(10), types.Int(99)}
	res := mustExec(t, s, "SELECT * FROM emp JOIN dept ON emp.dno = dept.dno USING JOININDEX ed")
	if len(res.Rows) != 1 || res.Rows[0].String() != want.String() {
		t.Fatalf("join on the index's column: %v", res.Rows)
	}
	res, err := s.Exec("SELECT * FROM emp JOIN dept ON emp.dno = dept.other USING JOININDEX ed")
	if !errors.Is(err, plan.ErrForcedUnusable) {
		var rows []types.Record
		if res != nil {
			rows = res.Rows
		}
		t.Fatalf("join on another column: rows %v, err %v; want ErrForcedUnusable", rows, err)
	}
	if res := mustExec(t, s, "SELECT * FROM emp JOIN dept ON emp.dno = dept.other"); len(res.Rows) != 0 {
		t.Fatalf("join on another column without the hint: %v", res.Rows)
	}
}

func TestAttachmentDDLAndConstraintVeto(t *testing.T) {
	s := newSession(t)
	mustExec(t, s,
		"CREATE TABLE acct (id INT NOT NULL, balance FLOAT) USING memory",
		"CREATE ATTACHMENT unique ON acct WITH (on=id)",
	)
	mustExec(t, s, "INSERT INTO acct VALUES (1, 100.0)")
	if _, err := s.Exec("INSERT INTO acct VALUES (1, 50.0)"); err == nil {
		t.Fatal("unique violation accepted")
	}
	mustExec(t, s, "DROP ATTACHMENT unique ON acct")
	mustExec(t, s, "INSERT INTO acct VALUES (1, 50.0)") // allowed now
	res := mustExec(t, s, "SELECT * FROM acct")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestSpatialDDL(t *testing.T) {
	s := newSession(t)
	mustExec(t, s,
		"CREATE TABLE parcels (id INT NOT NULL, shape BYTES) USING memory",
		"CREATE ATTACHMENT rtree ON parcels WITH (on=shape)",
		"INSERT INTO parcels VALUES (1, BOX(0,0,2,2)), (2, BOX(10,10,12,12))",
	)
	res := mustExec(t, s, "SELECT id FROM parcels WHERE ENCLOSES(BOX(0,0,5,5), shape)")
	if !strings.Contains(res.Explain, "rtree") {
		t.Fatalf("explain = %s", res.Explain)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestShowTablesAndDropTable(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE a (x INT) USING memory")
	mustExec(t, s, "CREATE TABLE b (x INT) USING memory")
	res := mustExec(t, s, "SHOW TABLES")
	if len(res.Rows) != 2 {
		t.Fatalf("tables = %v", res.Rows)
	}
	mustExec(t, s, "DROP TABLE a")
	res = mustExec(t, s, "SHOW TABLES")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "b" {
		t.Fatalf("tables after drop = %v", res.Rows)
	}
}

func TestBoundPlanReuseAndInvalidation(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE t (id INT NOT NULL, v INT) USING memory")
	for i := 0; i < 30; i++ {
		mustExec(t, s, "INSERT INTO t VALUES ("+itoa(i)+", "+itoa(i)+")")
	}
	q := "SELECT v FROM t WHERE id = 5"
	res1 := mustExec(t, s, q)
	if !strings.HasPrefix(res1.Explain, "scan(") {
		t.Fatalf("explain = %s", res1.Explain)
	}
	// Adding an index invalidates the saved plan; the next execution of
	// the same query text re-translates to use it.
	mustExec(t, s, "CREATE INDEX byid ON t (id)")
	res2 := mustExec(t, s, q)
	if !strings.Contains(res2.Explain, "btree") {
		t.Fatalf("plan not re-translated: %s", res2.Explain)
	}
	if len(res2.Rows) != 1 || res2.Rows[0][0].AsInt() != 5 {
		t.Fatalf("rows = %v", res2.Rows)
	}
}

func TestParseErrors(t *testing.T) {
	s := newSession(t)
	for _, bad := range []string{
		"",
		"FLY TO THE MOON",
		"CREATE SPACESHIP x",
		"CREATE TABLE",
		"CREATE TABLE t (x NOTATYPE)",
		"SELECT FROM t",
		"INSERT INTO t VALUES",
		"SELECT * FROM t WHERE",
		"INSERT INTO t VALUES (1) trailing",
		"SELECT * FROM t WHERE x = 'unterminated",
	} {
		if _, err := s.Exec(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestStringEscapesAndComments(t *testing.T) {
	s := newSession(t)
	mustExec(t, s,
		"CREATE TABLE t (id INT, v STRING) USING memory -- trailing comment",
		"INSERT INTO t VALUES (1, 'it''s')",
	)
	res := mustExec(t, s, "SELECT v FROM t")
	if res.Rows[0][0].S != "it's" {
		t.Fatalf("escape handling: %v", res.Rows[0][0])
	}
}

func TestIsNullAndBooleans(t *testing.T) {
	s := newSession(t)
	mustExec(t, s,
		"CREATE TABLE t (id INT, flag BOOL, v STRING) USING memory",
		"INSERT INTO t VALUES (1, TRUE, NULL), (2, FALSE, 'x')",
	)
	res := mustExec(t, s, "SELECT id FROM t WHERE v IS NULL")
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("IS NULL rows = %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT id FROM t WHERE NOT v IS NULL")
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("NOT IS NULL rows = %v", res.Rows)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	s := newSession(t)
	mustExec(t, s,
		"CREATE TABLE t (id INT NOT NULL, v FLOAT) USING memory",
		"INSERT INTO t VALUES (3, 30.0), (1, 10.0), (2, 20.0)",
	)
	res := mustExec(t, s, "SELECT id, v FROM t ORDER BY v DESC")
	if len(res.Rows) != 3 || res.Rows[0][0].AsInt() != 3 || res.Rows[2][0].AsInt() != 1 {
		t.Fatalf("order desc = %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT id FROM t ORDER BY id ASC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0].AsInt() != 1 || res.Rows[1][0].AsInt() != 2 {
		t.Fatalf("order+limit = %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT id FROM t LIMIT 0")
	if len(res.Rows) != 0 {
		t.Fatalf("limit 0 = %v", res.Rows)
	}
	if _, err := s.Exec("SELECT id FROM t ORDER BY ghost"); err == nil {
		t.Fatal("unknown order column accepted")
	}
	if _, err := s.Exec("SELECT id FROM t LIMIT banana"); err == nil {
		t.Fatal("bad limit accepted")
	}
}

func TestCountStar(t *testing.T) {
	s := newSession(t)
	mustExec(t, s,
		"CREATE TABLE t (id INT NOT NULL, v FLOAT) USING memory",
		"INSERT INTO t VALUES (1, 1.0), (2, 2.0), (3, 3.0)",
	)
	res := mustExec(t, s, "SELECT COUNT(*) FROM t")
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 3 || res.Columns[0] != "count" {
		t.Fatalf("count = %+v", res)
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM t WHERE id > 1")
	if res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("filtered count = %v", res.Rows)
	}
}

func TestOrderByOnJoinOutput(t *testing.T) {
	s := newSession(t)
	mustExec(t, s,
		"CREATE TABLE dept (dno INT NOT NULL, dname STRING) USING memory",
		"CREATE TABLE emp (eno INT NOT NULL, dno INT) USING memory",
		"INSERT INTO dept VALUES (1, 'eng'), (2, 'ops')",
		"INSERT INTO emp VALUES (12, 2), (10, 1), (11, 1)",
	)
	res := mustExec(t, s, "SELECT emp.eno, dept.dname FROM emp JOIN dept ON emp.dno = dept.dno ORDER BY eno")
	if len(res.Rows) != 3 || res.Rows[0][0].AsInt() != 10 || res.Rows[2][0].AsInt() != 12 {
		t.Fatalf("join order = %v", res.Rows)
	}
}

func TestAuthorizationStatements(t *testing.T) {
	s := newSession(t)
	s.Env().Authz.Enable()
	mustExec(t, s, "SET USER alice")
	mustExec(t, s,
		"CREATE TABLE t (id INT NOT NULL) USING memory", // alice becomes admin
		"INSERT INTO t VALUES (1)",
	)
	// Bob can do nothing yet.
	bob := ddl.NewSession(s.Env())
	mustExec(t, bob, "SET USER bob")
	if _, err := bob.Exec("SELECT * FROM t"); err == nil {
		t.Fatal("unauthorized select accepted")
	}
	if _, err := bob.Exec("GRANT read ON t TO bob"); err == nil {
		t.Fatal("self-grant without admin accepted")
	}
	// Alice grants READ: bob reads but cannot write.
	mustExec(t, s, "GRANT read ON t TO bob")
	res := mustExec(t, bob, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("bob read = %v", res.Rows)
	}
	if _, err := bob.Exec("INSERT INTO t VALUES (2)"); err == nil {
		t.Fatal("unauthorized insert accepted")
	}
	mustExec(t, s, "GRANT write ON t TO bob")
	mustExec(t, bob, "INSERT INTO t VALUES (2)")
	// Revoke cuts bob off entirely.
	mustExec(t, s, "REVOKE ON t FROM bob")
	if _, err := bob.Exec("SELECT * FROM t"); err == nil {
		t.Fatal("revoked select accepted")
	}
	// Bad statements.
	if _, err := s.Exec("GRANT fly ON t TO bob"); err == nil {
		t.Fatal("bad privilege accepted")
	}
	if _, err := s.Exec("GRANT read ON ghost TO bob"); err == nil {
		t.Fatal("grant on missing table accepted")
	}
	if _, err := s.Exec("REVOKE ON ghost FROM bob"); err == nil {
		t.Fatal("revoke on missing table accepted")
	}
}

func TestOrderByUsesIndexWhenAvailable(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE t (id INT NOT NULL, v FLOAT) USING heap")
	for i := 30; i > 0; i-- {
		mustExec(t, s, "INSERT INTO t VALUES ("+itoa(i)+", "+itoa(i)+".0)")
	}
	mustExec(t, s, "CREATE INDEX byid ON t (id)")
	// Top-k: the ordered index streams the first rows without a sort.
	res := mustExec(t, s, "SELECT id FROM t ORDER BY id LIMIT 5")
	if !strings.Contains(res.Explain, "[ordered]") {
		t.Fatalf("explain = %s", res.Explain)
	}
	if len(res.Rows) != 5 || res.Rows[0][0].AsInt() != 1 || res.Rows[4][0].AsInt() != 5 {
		t.Fatalf("top-k rows = %v", res.Rows)
	}
	// Full-table ORDER BY still returns sorted rows (scan + session sort).
	res = mustExec(t, s, "SELECT id FROM t ORDER BY id")
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][0].AsInt() > res.Rows[i][0].AsInt() {
			t.Fatal("not ordered")
		}
	}
}

// TestUnaryMinusNegatesOnlyNumbers: a minus sign in front of a string,
// TRUE, FALSE or NULL is a parse error, not a zero.
func TestUnaryMinusNegatesOnlyNumbers(t *testing.T) {
	s := newSession(t)
	mustExec(t, s,
		"CREATE TABLE t (id INT NOT NULL, v STRING) USING memory",
		"INSERT INTO t VALUES (0, 'zero')")
	for _, bad := range []string{
		"SELECT v FROM t WHERE id = -'abc'",
		"INSERT INTO t VALUES (-'abc', 'x')",
		"SELECT v FROM t WHERE id = -TRUE",
		"INSERT INTO t VALUES (-FALSE, 'x')",
		"SELECT v FROM t WHERE id = - NULL",
	} {
		if res, err := s.Exec(bad); err == nil {
			t.Errorf("%s accepted: %+v", bad, res)
		}
	}
	if n := mustExec(t, s, "SELECT COUNT(*) FROM t").Rows[0][0].I; n != 1 {
		t.Fatalf("%d rows, want the one inserted", n)
	}
}

// TestSmallestInt64Literal: -9223372036854775808 is a literal; one more in
// magnitude, either sign, is out of range.
func TestSmallestInt64Literal(t *testing.T) {
	s := newSession(t)
	mustExec(t, s,
		"CREATE TABLE t (id INT NOT NULL, v STRING) USING memory",
		"INSERT INTO t VALUES (-9223372036854775808, 'min'), (9223372036854775807, 'max')")
	res := mustExec(t, s, "SELECT id, v FROM t WHERE id < 0")
	if len(res.Rows) != 1 || res.Rows[0][0].I != math.MinInt64 || res.Rows[0][1].S != "min" {
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, bad := range []string{
		"SELECT v FROM t WHERE id = 9223372036854775808",
		"SELECT v FROM t WHERE id = -9223372036854775809",
	} {
		if _, err := s.Exec(bad); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}

// TestBinaryMinusKeepsItsMeaning: a minus after an operand subtracts,
// however it is spaced, and a signed literal may follow it.
func TestBinaryMinusKeepsItsMeaning(t *testing.T) {
	s := newSession(t)
	mustExec(t, s,
		"CREATE TABLE t (id INT NOT NULL, v INT) USING memory",
		"INSERT INTO t VALUES (1, 10), (2, -10)")
	for _, c := range []struct{ where, ids string }{
		{"v - 5 = 5", "[(1)]"},
		{"v -5 = 5", "[(1)]"},
		{"v-5 = 5", "[(1)]"},
		{"v - -5 = 15", "[(1)]"},
		{"(v)-5 = -15", "[(2)]"},
		{"-5 - v = 5", "[(2)]"},
		{"v > -9223372036854775808 - -1", "[(1) (2)]"},
	} {
		res := mustExec(t, s, "SELECT id FROM t WHERE "+c.where+" ORDER BY id")
		if got := fmt.Sprint(res.Rows); got != c.ids {
			t.Errorf("WHERE %s: ids %s, want %s", c.where, got, c.ids)
		}
	}
}

// TestUpdateAssignsEachColumnOnce: a SET list naming a column twice is an
// error, not "the last one wins".
func TestUpdateAssignsEachColumnOnce(t *testing.T) {
	s := newSession(t)
	mustExec(t, s,
		"CREATE TABLE t (id INT NOT NULL, v INT) USING memory",
		"INSERT INTO t VALUES (1, 0)")
	for _, bad := range []string{"UPDATE t SET v = 1, v = 2", "UPDATE t SET v = 1, id = 2, V = 3"} {
		if _, err := s.Exec(bad); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
	mustExec(t, s, "UPDATE t SET id = v + 5, v = id")
	if res := mustExec(t, s, "SELECT id, v FROM t"); fmt.Sprint(res.Rows) != "[(5, 1)]" {
		t.Fatalf("rows = %v, want [(5, 1)]", res.Rows)
	}
}

// TestAttributeValueIsNoMarker: a WITH value is text the statement spells
// out; a ? marker there is an error, while the string literal '?' is the
// text "?".
func TestAttributeValueIsNoMarker(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE t (id INT NOT NULL, v INT) USING heap")
	if _, err := s.Exec("CREATE ATTACHMENT hash ON t WITH (name=h, on=?)", types.Str("v")); err == nil {
		t.Fatal("a ? marker accepted as an attribute value")
	}
	mustExec(t, s, "CREATE ATTACHMENT hash ON t WITH (name='?', on=v)")
	if _, err := s.Exec("DROP ATTACHMENT hash ON t WITH (name=?)", types.Str("?")); err == nil {
		t.Fatal("a ? marker accepted as an attribute value")
	}
	mustExec(t, s, "DROP ATTACHMENT hash ON t WITH (name='?')")
}
