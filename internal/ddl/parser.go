package ddl

import (
	"fmt"
	"strings"

	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/types"
)

// Stmt is one parsed statement.
type Stmt interface{ stmt() }

// CreateTable is CREATE TABLE name (cols) [USING method] [WITH (attrs)].
type CreateTable struct {
	Name   string
	Schema *types.Schema
	Using  string
	Attrs  core.AttrList
}

// CreateAttachment is CREATE ATTACHMENT type ON table [WITH (attrs)].
type CreateAttachment struct {
	Type  string
	Table string
	Attrs core.AttrList
}

// DropTable is DROP TABLE name.
type DropTable struct{ Name string }

// DropAttachment is DROP ATTACHMENT type ON table [WITH (attrs)].
type DropAttachment struct {
	Type  string
	Table string
	Attrs core.AttrList
}

// Insert is INSERT INTO table VALUES (...), (...). Each value is a slot or
// a constant (TRUE, FALSE, NULL, BOX(...)).
type Insert struct {
	Table string
	Rows  [][]*rawExpr
}

// Select is SELECT cols FROM table [JOIN t2 ON a = b [USING JOININDEX n]]
// [WHERE pred] [ORDER BY col [DESC]] [LIMIT n].
type Select struct {
	Columns   []colRef // empty = *
	Count     bool     // SELECT COUNT(*)
	Table     string
	Join      *joinClause
	Where     *rawExpr
	OrderBy   *colRef
	OrderDesc bool
	Limit     int // -1 = no limit
}

type colRef struct {
	Table  string // optional qualifier
	Column string
}

type joinClause struct {
	Table             string
	LeftCol, RightCol colRef
	JoinIndex         string
}

// Update is UPDATE table SET col = expr, ... [WHERE pred].
type Update struct {
	Table string
	Set   []assignment // in statement order, each column at most once
	Where *rawExpr
}

type assignment struct {
	col string // lower case
	val *rawExpr
}

// Delete is DELETE FROM table [WHERE pred].
type Delete struct {
	Table string
	Where *rawExpr
}

// Txn control statements.
type (
	Begin       struct{}
	Commit      struct{}
	Rollback    struct{}
	Savepoint   struct{ Name string }
	RollbackTo  struct{ Name string }
	ShowCatalog struct{}
)

// SetUser is SET USER name (the session identity for authorization).
type SetUser struct{ Name string }

// Grant is GRANT READ|WRITE|ADMIN ON table TO user.
type Grant struct {
	Privilege string
	Table     string
	User      string
}

// Revoke is REVOKE ON table FROM user.
type Revoke struct {
	Table string
	User  string
}

func (CreateTable) stmt()      {}
func (CreateAttachment) stmt() {}
func (DropTable) stmt()        {}
func (DropAttachment) stmt()   {}
func (Insert) stmt()           {}
func (Select) stmt()           {}
func (Update) stmt()           {}
func (Delete) stmt()           {}
func (Begin) stmt()            {}
func (Commit) stmt()           {}
func (Rollback) stmt()         {}
func (Savepoint) stmt()        {}
func (RollbackTo) stmt()       {}
func (ShowCatalog) stmt()      {}
func (SetUser) stmt()          {}
func (Grant) stmt()            {}
func (Revoke) stmt()           {}

// rawExpr is an unresolved expression tree: column references are by name
// and get bound to field positions against a schema at execution time, and
// a literal is a slot (op expr.OpParam) whose value each execution brings.
type rawExpr struct {
	op   expr.Op
	val  types.Value // OpConst: TRUE, FALSE, NULL or a BOX
	slot int         // OpParam
	col  colRef
	name string // function name
	args []*rawExpr
}

// value is a VALUES entry's value under params.
func (r *rawExpr) value(params []types.Value) types.Value {
	if r.op == expr.OpParam {
		return params[r.slot]
	}
	return r.val
}

// Parse parses one statement. Its literals are parameter slots; the values
// the text gives them are not part of the result.
func Parse(src string) (Stmt, error) {
	l := lexer{src: src}
	stmt, _, err := parse(&l)
	return stmt, err
}

// parse parses l's text from its start. pinned lists the slots whose
// values are part of the statement's shape rather than parameters: a LIMIT
// count and BOX corners.
func parse(l *lexer) (Stmt, []int, error) {
	l.reset(l.src, l.args)
	p := &parser{l: l}
	p.advance()
	stmt, err := p.statement()
	if err == nil && !p.atEOF() {
		err = fmt.Errorf("ddl: trailing input at %q", p.peek().text)
	}
	if l.err != nil {
		err = l.err // the parser met tokEOF where lexing failed
	}
	if err != nil {
		return nil, nil, err
	}
	return stmt, p.pinned, nil
}

type parser struct {
	l      *lexer
	tok    token // the next token
	pinned []int
}

// pin consumes a slot whose value shapes the statement and returns it.
func (p *parser) pin() (types.Value, bool) {
	t := p.peek()
	if t.kind != tokSlot {
		return types.Value{}, false
	}
	p.advance()
	p.pinned = append(p.pinned, t.slot)
	return p.l.params[t.slot], true
}

func (p *parser) advance()    { p.tok = p.l.next() }
func (p *parser) peek() token { return p.tok }
func (p *parser) next() token { t := p.tok; p.advance(); return t }
func (p *parser) atEOF() bool { return p.tok.kind == tokEOF }

// kw reports whether the next token is the given keyword (case-insensitive)
// and consumes it if so.
func (p *parser) kw(word string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, word) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKw(word string) error {
	if !p.kw(word) {
		return fmt.Errorf("ddl: expected %s, got %q", strings.ToUpper(word), p.peek().text)
	}
	return nil
}

func (p *parser) punct(s string) bool {
	t := p.peek()
	if t.kind == tokPunct && t.text == s {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.punct(s) {
		return fmt.Errorf("ddl: expected %q, got %q", s, p.peek().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("ddl: expected identifier, got %q", t.text)
	}
	p.advance()
	return t.text, nil
}

// tableName parses a possibly qualified relation name — ident ('.' ident)*
// joined with dots. Catalog names are flat strings, so "sys.stat_activity"
// is simply a name containing a dot (the system relations live in that
// namespace).
func (p *parser) tableName() (string, error) {
	name, err := p.ident()
	if err != nil {
		return "", err
	}
	for p.punct(".") {
		seg, err := p.ident()
		if err != nil {
			return "", err
		}
		name += "." + seg
	}
	return name, nil
}

func (p *parser) statement() (Stmt, error) {
	switch {
	case p.kw("create"):
		switch {
		case p.kw("table"):
			return p.createTable()
		case p.kw("attachment"):
			return p.createAttachment()
		case p.kw("index"):
			return p.createIndex()
		default:
			return nil, fmt.Errorf("ddl: CREATE must be followed by TABLE, ATTACHMENT, or INDEX")
		}
	case p.kw("drop"):
		switch {
		case p.kw("table"):
			name, err := p.tableName()
			if err != nil {
				return nil, err
			}
			return DropTable{Name: name}, nil
		case p.kw("attachment"):
			return p.dropAttachment()
		default:
			return nil, fmt.Errorf("ddl: DROP must be followed by TABLE or ATTACHMENT")
		}
	case p.kw("insert"):
		return p.insert()
	case p.kw("select"):
		return p.selectStmt()
	case p.kw("update"):
		return p.update()
	case p.kw("delete"):
		return p.delete()
	case p.kw("begin"):
		return Begin{}, nil
	case p.kw("commit"):
		return Commit{}, nil
	case p.kw("rollback"):
		if p.kw("to") {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			return RollbackTo{Name: name}, nil
		}
		return Rollback{}, nil
	case p.kw("savepoint"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return Savepoint{Name: name}, nil
	case p.kw("show"):
		if err := p.expectKw("tables"); err != nil {
			return nil, err
		}
		return ShowCatalog{}, nil
	case p.kw("set"):
		if err := p.expectKw("user"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return SetUser{Name: name}, nil
	case p.kw("grant"):
		priv, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("on"); err != nil {
			return nil, err
		}
		table, err := p.tableName()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("to"); err != nil {
			return nil, err
		}
		user, err := p.ident()
		if err != nil {
			return nil, err
		}
		return Grant{Privilege: priv, Table: table, User: user}, nil
	case p.kw("revoke"):
		if err := p.expectKw("on"); err != nil {
			return nil, err
		}
		table, err := p.tableName()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("from"); err != nil {
			return nil, err
		}
		user, err := p.ident()
		if err != nil {
			return nil, err
		}
		return Revoke{Table: table, User: user}, nil
	default:
		return nil, fmt.Errorf("ddl: unknown statement starting with %q", p.peek().text)
	}
}

func (p *parser) createTable() (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var cols []types.Column
	for {
		colName, err := p.ident()
		if err != nil {
			return nil, err
		}
		typeName, err := p.ident()
		if err != nil {
			return nil, err
		}
		kind, err := types.KindFromString(typeName)
		if err != nil {
			return nil, err
		}
		col := types.Column{Name: colName, Kind: kind}
		if p.kw("not") {
			if err := p.expectKw("null"); err != nil {
				return nil, err
			}
			col.NotNull = true
		}
		cols = append(cols, col)
		if p.punct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	using := "heap"
	if p.kw("using") {
		if using, err = p.ident(); err != nil {
			return nil, err
		}
	}
	attrs, err := p.withAttrs()
	if err != nil {
		return nil, err
	}
	schema, err := types.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	return CreateTable{Name: name, Schema: schema, Using: using, Attrs: attrs}, nil
}

// withAttrs parses an optional WITH (k=v, k2=v2) attribute/value list.
// Values may be identifiers, numbers, or strings; a bare key means "true".
func (p *parser) withAttrs() (core.AttrList, error) {
	if !p.kw("with") {
		return nil, nil
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	attrs := core.AttrList{}
	for {
		key, err := p.ident()
		if err != nil {
			return nil, err
		}
		val := "true"
		if p.punct("=") {
			t := p.next()
			switch {
			case t.kind == tokIdent || t.kind == tokSlot && !t.marker:
				val = t.text
				// Attribute values like column lists may continue with
				// commas inside: on=a,b is written as on='a,b' instead.
			default:
				return nil, fmt.Errorf("ddl: bad attribute value %q", t.text)
			}
		}
		attrs[key] = val
		if p.punct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return attrs, nil
}

func (p *parser) createAttachment() (Stmt, error) {
	typ, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("on"); err != nil {
		return nil, err
	}
	table, err := p.tableName()
	if err != nil {
		return nil, err
	}
	attrs, err := p.withAttrs()
	if err != nil {
		return nil, err
	}
	return CreateAttachment{Type: typ, Table: table, Attrs: attrs}, nil
}

// createIndex is sugar: CREATE [UNIQUE] INDEX name ON table (cols) [USING type].
func (p *parser) createIndex() (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("on"); err != nil {
		return nil, err
	}
	table, err := p.tableName()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
		if p.punct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	typ := "btree"
	if p.kw("using") {
		if typ, err = p.ident(); err != nil {
			return nil, err
		}
	}
	attrs := core.AttrList{"name": name, "on": strings.Join(cols, ",")}
	if p.kw("unique") {
		attrs["unique"] = "true"
	}
	return CreateAttachment{Type: typ, Table: table, Attrs: attrs}, nil
}

func (p *parser) dropAttachment() (Stmt, error) {
	typ, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("on"); err != nil {
		return nil, err
	}
	table, err := p.tableName()
	if err != nil {
		return nil, err
	}
	attrs, err := p.withAttrs()
	if err != nil {
		return nil, err
	}
	return DropAttachment{Type: typ, Table: table, Attrs: attrs}, nil
}

func (p *parser) insert() (Stmt, error) {
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	table, err := p.tableName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("values"); err != nil {
		return nil, err
	}
	var rows [][]*rawExpr
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var rec []*rawExpr
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			rec = append(rec, v)
			if p.punct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		rows = append(rows, rec)
		if p.punct(",") {
			continue
		}
		break
	}
	return Insert{Table: table, Rows: rows}, nil
}

// literal parses a value: a slot, TRUE/FALSE/NULL, or BOX(x1,y1,x2,y2)
// over pinned slots.
func (p *parser) literal() (*rawExpr, error) {
	t := p.peek()
	switch {
	case t.kind == tokSlot:
		p.advance()
		return &rawExpr{op: expr.OpParam, slot: t.slot}, nil
	case p.kw("true"):
		return &rawExpr{op: expr.OpConst, val: types.Bool(true)}, nil
	case p.kw("false"):
		return &rawExpr{op: expr.OpConst, val: types.Bool(false)}, nil
	case p.kw("null"):
		return &rawExpr{op: expr.OpConst, val: types.Null()}, nil
	case p.kw("box"):
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var coords [4]float64
		for i := range coords {
			if i > 0 {
				if err := p.expectPunct(","); err != nil {
					return nil, err
				}
			}
			v, ok := p.pin()
			if !ok {
				return nil, fmt.Errorf("ddl: BOX corner must be a literal, got %q", p.peek().text)
			}
			coords[i] = v.AsFloat()
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		box := expr.NewBox(coords[0], coords[1], coords[2], coords[3]).Value()
		return &rawExpr{op: expr.OpConst, val: box}, nil
	default:
		return nil, fmt.Errorf("ddl: expected literal, got %q", t.text)
	}
}

func (p *parser) colRef() (colRef, error) {
	first, err := p.ident()
	if err != nil {
		return colRef{}, err
	}
	// ident ('.' ident)*: the last segment is the column, everything before
	// it is the (possibly dotted) table qualifier — so
	// sys.stat_activity.id resolves as table "sys.stat_activity".
	parts := []string{first}
	for p.punct(".") {
		seg, err := p.ident()
		if err != nil {
			return colRef{}, err
		}
		parts = append(parts, seg)
	}
	if len(parts) == 1 {
		return colRef{Column: first}, nil
	}
	return colRef{
		Table:  strings.Join(parts[:len(parts)-1], "."),
		Column: parts[len(parts)-1],
	}, nil
}

func (p *parser) selectStmt() (Stmt, error) {
	sel := Select{Limit: -1}
	switch {
	case p.punct("*"):
	case p.kw("count"):
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if err := p.expectPunct("*"); err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		sel.Count = true
	default:
		for {
			ref, err := p.colRef()
			if err != nil {
				return nil, err
			}
			sel.Columns = append(sel.Columns, ref)
			if p.punct(",") {
				continue
			}
			break
		}
	}
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	table, err := p.tableName()
	if err != nil {
		return nil, err
	}
	sel.Table = table
	if p.kw("join") {
		jc := &joinClause{}
		if jc.Table, err = p.tableName(); err != nil {
			return nil, err
		}
		if err := p.expectKw("on"); err != nil {
			return nil, err
		}
		if jc.LeftCol, err = p.colRef(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		if jc.RightCol, err = p.colRef(); err != nil {
			return nil, err
		}
		if p.kw("using") {
			if err := p.expectKw("joinindex"); err != nil {
				return nil, err
			}
			if jc.JoinIndex, err = p.ident(); err != nil {
				return nil, err
			}
		}
		sel.Join = jc
	}
	if p.kw("where") {
		w, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.kw("order") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		ref, err := p.colRef()
		if err != nil {
			return nil, err
		}
		sel.OrderBy = &ref
		switch {
		case p.kw("desc"):
			sel.OrderDesc = true
		case p.kw("asc"):
		}
	}
	if p.kw("limit") {
		t := p.peek()
		n, ok := p.pin()
		if !ok || n.K != types.KindInt || n.I < 0 {
			return nil, fmt.Errorf("ddl: LIMIT wants a count, got %q", t.text)
		}
		sel.Limit = int(n.I)
	}
	return sel, nil
}

func (p *parser) update() (Stmt, error) {
	table, err := p.tableName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("set"); err != nil {
		return nil, err
	}
	var set []assignment
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		col = strings.ToLower(col)
		for _, a := range set {
			if a.col == col {
				return nil, fmt.Errorf("ddl: column %q is assigned twice", col)
			}
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		e, err := p.sum()
		if err != nil {
			return nil, err
		}
		set = append(set, assignment{col: col, val: e})
		if p.punct(",") {
			continue
		}
		break
	}
	stmt := Update{Table: table, Set: set}
	if p.kw("where") {
		w, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *parser) delete() (Stmt, error) {
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	table, err := p.tableName()
	if err != nil {
		return nil, err
	}
	stmt := Delete{Table: table}
	if p.kw("where") {
		w, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

// --- expression grammar (to rawExpr) ---

func (p *parser) orExpr() (*rawExpr, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.kw("or") {
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		left = &rawExpr{op: expr.OpOr, args: []*rawExpr{left, right}}
	}
	return left, nil
}

func (p *parser) andExpr() (*rawExpr, error) {
	left, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.kw("and") {
		right, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		left = &rawExpr{op: expr.OpAnd, args: []*rawExpr{left, right}}
	}
	return left, nil
}

func (p *parser) cmpExpr() (*rawExpr, error) {
	if p.kw("not") {
		inner, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		return &rawExpr{op: expr.OpNot, args: []*rawExpr{inner}}, nil
	}
	left, err := p.sum()
	if err != nil {
		return nil, err
	}
	if p.kw("is") {
		if err := p.expectKw("null"); err != nil {
			return nil, err
		}
		return &rawExpr{op: expr.OpIsNull, args: []*rawExpr{left}}, nil
	}
	t := p.peek()
	if t.kind == tokPunct {
		if op, ok := cmpOps[t.text]; ok {
			p.advance()
			right, err := p.sum()
			if err != nil {
				return nil, err
			}
			return &rawExpr{op: op, args: []*rawExpr{left, right}}, nil
		}
	}
	return left, nil
}

var cmpOps = map[string]expr.Op{
	"=": expr.OpEq, "<>": expr.OpNe, "<": expr.OpLt,
	"<=": expr.OpLe, ">": expr.OpGt, ">=": expr.OpGe,
}

func (p *parser) sum() (*rawExpr, error) {
	left, err := p.term()
	if err != nil {
		return nil, err
	}
	for {
		var op expr.Op
		switch {
		case p.punct("+"):
			op = expr.OpAdd
		case p.punct("-"):
			op = expr.OpSub
		default:
			return left, nil
		}
		right, err := p.term()
		if err != nil {
			return nil, err
		}
		left = &rawExpr{op: op, args: []*rawExpr{left, right}}
	}
}

func (p *parser) term() (*rawExpr, error) {
	left, err := p.factor()
	if err != nil {
		return nil, err
	}
	for {
		var op expr.Op
		switch {
		case p.punct("*"):
			op = expr.OpMul
		case p.punct("/"):
			op = expr.OpDiv
		default:
			return left, nil
		}
		right, err := p.factor()
		if err != nil {
			return nil, err
		}
		left = &rawExpr{op: op, args: []*rawExpr{left, right}}
	}
}

func (p *parser) factor() (*rawExpr, error) {
	t := p.peek()
	switch {
	case t.kind == tokSlot:
		return p.literal()
	case t.kind == tokPunct && t.text == "(":
		p.advance()
		inner, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return inner, nil
	case t.kind == tokIdent:
		upper := ""
		for _, w := range [...]string{"TRUE", "FALSE", "NULL", "BOX", "ENCLOSES", "OVERLAPS"} {
			if strings.EqualFold(t.text, w) {
				upper = w
				break
			}
		}
		switch upper {
		case "TRUE", "FALSE", "NULL", "BOX":
			return p.literal()
		case "ENCLOSES", "OVERLAPS":
			p.advance()
			args, err := p.callArgs()
			if err != nil {
				return nil, err
			}
			if len(args) != 2 {
				return nil, fmt.Errorf("ddl: %s takes two arguments", upper)
			}
			op := expr.OpEncloses
			if upper == "OVERLAPS" {
				op = expr.OpOverlaps
			}
			return &rawExpr{op: op, args: args}, nil
		}
		// A column reference or a function call.
		name, _ := p.ident()
		if p.peek().kind == tokPunct && p.peek().text == "(" {
			args, err := p.callArgs()
			if err != nil {
				return nil, err
			}
			return &rawExpr{op: expr.OpFunc, name: name, args: args}, nil
		}
		parts := []string{name}
		for p.punct(".") {
			seg, err := p.ident()
			if err != nil {
				return nil, err
			}
			parts = append(parts, seg)
		}
		if len(parts) > 1 {
			return &rawExpr{op: expr.OpField, col: colRef{
				Table:  strings.Join(parts[:len(parts)-1], "."),
				Column: parts[len(parts)-1],
			}}, nil
		}
		return &rawExpr{op: expr.OpField, col: colRef{Column: name}}, nil
	default:
		return nil, fmt.Errorf("ddl: unexpected token %q in expression", t.text)
	}
}

func (p *parser) callArgs() ([]*rawExpr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []*rawExpr
	if p.punct(")") {
		return args, nil
	}
	for {
		a, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if p.punct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return args, nil
}

// bind resolves a rawExpr against a schema, producing an executable
// expression over field positions.
func (r *rawExpr) bind(schema *types.Schema, tableName string) (*expr.Expr, error) {
	if r == nil {
		return nil, nil
	}
	switch r.op {
	case expr.OpConst:
		return expr.Const(r.val), nil
	case expr.OpParam:
		return expr.Param(r.slot), nil
	case expr.OpField:
		if r.col.Table != "" && !strings.EqualFold(r.col.Table, tableName) {
			return nil, fmt.Errorf("ddl: column %s.%s does not belong to %s",
				r.col.Table, r.col.Column, tableName)
		}
		i := schema.ColIndex(r.col.Column)
		if i < 0 {
			return nil, fmt.Errorf("ddl: unknown column %q in %s", r.col.Column, tableName)
		}
		return expr.NamedField(i, r.col.Column), nil
	case expr.OpFunc:
		args, err := bindAll(r.args, schema, tableName)
		if err != nil {
			return nil, err
		}
		return &expr.Expr{Op: expr.OpFunc, Name: r.name, Args: args}, nil
	default:
		args, err := bindAll(r.args, schema, tableName)
		if err != nil {
			return nil, err
		}
		return &expr.Expr{Op: r.op, Args: args}, nil
	}
}

func bindAll(raws []*rawExpr, schema *types.Schema, tableName string) ([]*expr.Expr, error) {
	out := make([]*expr.Expr, len(raws))
	for i, r := range raws {
		e, err := r.bind(schema, tableName)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}
