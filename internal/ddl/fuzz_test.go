package ddl

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dmx/internal/expr"
	"dmx/internal/types"
)

// fuzzSeeds are statements of this package's tests, plus the edges of the
// lexer: signs, escapes, comments, pinned slots.
var fuzzSeeds = []string{
	"CREATE TABLE emp (eno INT NOT NULL, name STRING, salary FLOAT) USING memory",
	"CREATE TABLE k (id INT NOT NULL, v STRING) USING btree WITH (key=id)",
	"CREATE TABLE t (id INT, v STRING) USING memory -- trailing comment",
	"CREATE INDEX byeno ON emp (eno)",
	"CREATE ATTACHMENT unique ON emp WITH (name=u, on=eno)",
	"CREATE ATTACHMENT check ON emp WITH (name=c, predicate=p, limit=-5)",
	"DROP ATTACHMENT unique ON acct",
	"DROP TABLE a",
	"INSERT INTO emp VALUES (1, 'ada', 100.5), (2, 'bob', 90.0), (3, 'cyd', 120.25)",
	"INSERT INTO t VALUES (1, 'it''s'), (-9223372036854775808, '')",
	"INSERT INTO t VALUES (1, TRUE, NULL), (2, FALSE, 'x')",
	"INSERT INTO parcels VALUES (1, BOX(0,0,2,2)), (2, BOX(-10, -10.5, 12, 12))",
	"SELECT name, salary FROM emp WHERE salary >= 100",
	"SELECT * FROM emp",
	"SELECT v FROM t WHERE id = - 5 AND v <> 'x' OR NOT v IS NULL",
	"SELECT id FROM t WHERE v - 5 = 5 AND v -5 = 5 AND v - -5 = 15 AND (v)-5 = -15",
	"SELECT id FROM parcels WHERE ENCLOSES(BOX(0,0,5,5), shape)",
	"SELECT emp.eno, dept.dname FROM emp JOIN dept ON emp.dno = dept.dno ORDER BY eno",
	"SELECT * FROM a JOIN b ON a.x = b.y USING JOININDEX ji",
	"SELECT id, v FROM t ORDER BY v DESC LIMIT 2",
	"SELECT COUNT(*) FROM t WHERE id > 1 AND f(id, 2.5) = 1",
	"SELECT value FROM sys.stat_metrics WHERE name = 'dmx_plan_replans_total'",
	"UPDATE t SET v = v * 2 WHERE id <> 2",
	"UPDATE t SET v = v + 5, h = h + 1 WHERE v >= 10 AND v < 13",
	"DELETE FROM t WHERE v >= 30",
	"BEGIN", "COMMIT", "ROLLBACK", "SAVEPOINT sp", "ROLLBACK TO sp",
	"SET USER alice", "GRANT read ON t TO bob", "REVOKE ON t FROM bob", "SHOW TABLES",
}

// FuzzParse: the lexer and parser reject what they cannot read and never
// panic. A statement that parses is determined by its key and parameters:
// writing the parameters back into the key gives a text with the same key
// and an equal statement, and binding the statement's slots gives the
// expressions of that text's statement bound the same way.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		var first lexer
		if first.lex(src, nil) != nil {
			return
		}
		stmt, _, err := parse(&first)
		if err != nil {
			return
		}
		text := renderKey(string(first.key), first.params)
		var again lexer
		if err := again.lex(text, nil); err != nil || !bytes.Equal(again.key, first.key) {
			t.Fatalf("%q renders as %q: key %q, want %q (%v)", src, text, again.key, first.key, err)
		}
		stmt2, _, err := parse(&again)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", src, text, err)
		}
		exprs, exprs2 := boundExprs(stmt, first.params), boundExprs(stmt2, again.params)
		if exprs == nil {
			return // no slotted expressions (DDL, transaction control)
		}
		if !reflect.DeepEqual(stmt, stmt2) || !bytes.Equal(exprs, exprs2) {
			t.Fatalf("%q and its rendering %q parse differently", src, text)
		}
	})
}

// renderKey writes params into the key's slots as literals.
func renderKey(key string, params []types.Value) string {
	var sb strings.Builder
	for _, tok := range strings.Fields(key) {
		if tok[0] == '?' {
			v := params[0]
			params = params[1:]
			switch v.K {
			case types.KindInt:
				tok = strconv.FormatInt(v.I, 10)
			case types.KindFloat:
				if tok = strconv.FormatFloat(v.F, 'f', -1, 64); !strings.Contains(tok, ".") {
					tok += ".0"
				}
			default:
				tok = "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
			}
		}
		sb.WriteString(tok)
		sb.WriteByte(' ')
	}
	return sb.String()
}

// boundExprs encodes every expression of a SELECT, INSERT, UPDATE or
// DELETE with its slots bound to params through expr.Bind; nil for other
// statements.
func boundExprs(stmt Stmt, params []types.Value) []byte {
	var raws []*rawExpr
	switch st := stmt.(type) {
	case Select:
		raws = append(raws, st.Where)
	case Insert:
		for _, row := range st.Rows {
			raws = append(raws, row...)
		}
	case Update:
		for _, a := range st.Set {
			raws = append(raws, a.val)
		}
		raws = append(raws, st.Where)
	case Delete:
		raws = append(raws, st.Where)
	default:
		return nil
	}
	out := []byte{}
	for _, r := range raws {
		out = expr.Bind(slotted(r), params).AppendEncode(out)
	}
	return out
}

// slotted is bind without a schema: a column keeps its name.
func slotted(r *rawExpr) *expr.Expr {
	if r == nil {
		return nil
	}
	args := make([]*expr.Expr, len(r.args))
	for i, a := range r.args {
		args[i] = slotted(a)
	}
	switch r.op {
	case expr.OpConst:
		return expr.Const(r.val)
	case expr.OpParam:
		return expr.Param(r.slot)
	case expr.OpField:
		return expr.NamedField(0, r.col.Table+"."+r.col.Column)
	default:
		return &expr.Expr{Op: r.op, Name: r.name, Args: args}
	}
}
