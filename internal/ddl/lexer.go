// Package ddl implements the SQL-ish data definition and manipulation
// language of the system.
//
// The data definition language is extended exactly as the paper requires:
// CREATE TABLE carries a storage method selection (USING <method>) and an
// extension-specific attribute/value list (WITH (attr=value, ...)), and
// CREATE ATTACHMENT selects an attachment type the same way. The
// attribute lists are validated and processed by the generic storage
// method and attachment operations, not by this package.
package ddl

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"dmx/internal/types"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokSlot  // a number or string literal, or a ? marker: one parameter value
	tokPunct // ( ) , = < > <= >= <> + - * / .
)

type token struct {
	kind   tokKind
	marker bool   // tokSlot: a ? marker, whose value is an Exec argument
	text   string // a slot's literal as written (a string's content)
	slot   int    // tokSlot: index of the value in lexer.params
}

// lexer hands out the tokens of statement text one at a time. Every
// literal becomes a slot token whose value goes to params. A session
// reuses one lexer, so lexing allocates nothing but the content of strings
// holding an escaped (doubled) quote; other strings and all token texts
// slice the source.
type lexer struct {
	src    string
	pos    int
	args   []types.Value // the values of the ? markers, in order
	marks  int           // markers lexed so far
	prev   token         // the last token handed out
	err    error
	key    []byte // lex's shape of the text
	params []types.Value
}

// reset makes the lexer start over on src; args are the values of its ?
// markers, in order.
func (l *lexer) reset(src string, args []types.Value) {
	l.src, l.pos, l.args, l.marks, l.prev, l.err = src, 0, args, 0, token{}, nil
	l.params = l.params[:0]
}

// lex tokenizes all of src and writes its shape into key: the tokens with
// each slot replaced by its value's kind (?i, ?f, ?s; a ? marker takes the
// kind of its argument).
func (l *lexer) lex(src string, args []types.Value) error {
	l.reset(src, args)
	l.key = l.key[:0]
	for t := l.next(); t.kind != tokEOF; t = l.next() {
		if t.kind != tokSlot {
			l.key = append(append(l.key, ' '), t.text...)
			continue
		}
		kind := byte('?')
		if v := l.params[t.slot]; int(v.K) < len("nifsxb") {
			kind = "nifsxb"[v.K] // indexed by types.Kind
		}
		l.key = append(l.key, ' ', '?', kind)
	}
	return l.err
}

// next returns the next token; tokEOF at the end of the text and, once
// lexing failed, from then on with the failure in err.
func (l *lexer) next() token {
	for l.err == nil && l.pos < len(l.src) {
		c := l.src[l.pos]
		var t token
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
			continue
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		case c == '-' && !l.afterOperand() && isDigit(l.src, l.skipSpace(l.pos+1)):
			// A minus that cannot be binary is the literal's sign, so the
			// smallest int64 parses and "- 5" and "-5" share a shape.
			t, l.err = l.number(l.pos, l.skipSpace(l.pos+1))
		case unicode.IsLetter(rune(c)) || c == '_':
			t = l.ident()
		case isDigit(l.src, l.pos):
			t, l.err = l.number(l.pos, l.pos)
		case c == '\'':
			t, l.err = l.str()
		case c == '?':
			if l.marks == len(l.args) {
				l.err = fmt.Errorf("ddl: more ? markers than the %d arguments", len(l.args))
				break
			}
			t = l.slot("?", l.args[l.marks])
			t.marker = true
			l.marks++
			l.pos++
		case strings.IndexByte("(),=<>+-*/.", c) >= 0:
			t = l.punct()
		default:
			l.err = fmt.Errorf("ddl: unexpected character %q at %d", c, l.pos)
		}
		if l.err != nil {
			break
		}
		l.prev = t
		return t
	}
	if l.err == nil && l.marks < len(l.args) {
		l.err = fmt.Errorf("ddl: %d arguments for %d ? markers", len(l.args), l.marks)
	}
	return token{kind: tokEOF}
}

func isDigit(s string, i int) bool { return i < len(s) && s[i] >= '0' && s[i] <= '9' }

func (l *lexer) skipSpace(i int) int {
	for i < len(l.src) && strings.IndexByte(" \t\n\r", l.src[i]) >= 0 {
		i++
	}
	return i
}

// afterOperand reports whether the last token ends an operand, so that a
// minus following it is binary.
func (l *lexer) afterOperand() bool {
	switch t := l.prev; t.kind {
	case tokEOF: // none yet
		return false
	case tokSlot:
		return true
	case tokPunct:
		return t.text == ")"
	}
	for _, kw := range [...]string{"where", "and", "or", "not", "limit"} {
		if strings.EqualFold(l.prev.text, kw) {
			return false
		}
	}
	return true
}

// slot makes a literal's token: its value becomes the next parameter.
func (l *lexer) slot(text string, v types.Value) token {
	l.params = append(l.params, v)
	return token{kind: tokSlot, text: text, slot: len(l.params) - 1}
}

func (l *lexer) ident() token {
	start := l.pos
	for l.pos < len(l.src) {
		c := rune(l.src[l.pos])
		if !unicode.IsLetter(c) && !unicode.IsDigit(c) && c != '_' {
			break
		}
		l.pos++
	}
	return token{kind: tokIdent, text: l.src[start:l.pos]}
}

// number lexes the numeral whose digits start at digits; start is the
// position of its sign, or digits when it has none.
func (l *lexer) number(start, digits int) (token, error) {
	end, seenDot := digits, false
	for ; end < len(l.src); end++ {
		if c := l.src[end]; c == '.' && !seenDot {
			seenDot = true
		} else if c < '0' || c > '9' {
			break
		}
	}
	l.pos = end
	text := l.src[start:end]
	if digits > start+1 {
		text = "-" + l.src[digits:end] // spaces between sign and digits
	}
	if seenDot {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token{}, fmt.Errorf("ddl: bad number %s at %d", text, start)
		}
		return l.slot(text, types.Float(f)), nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return token{}, fmt.Errorf("ddl: integer %s at %d out of range", text, start)
	}
	return l.slot(text, types.Int(i)), nil
}

func (l *lexer) str() (token, error) {
	start := l.pos
	l.pos++ // opening quote
	from := l.pos
	var unescaped strings.Builder // the content so far, once an escape was seen
	for l.pos < len(l.src) {
		if l.src[l.pos] != '\'' {
			l.pos++
			continue
		}
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
			unescaped.WriteString(l.src[from : l.pos+1]) // keeps one quote
			l.pos += 2
			from = l.pos
			continue
		}
		s := l.src[from:l.pos]
		if unescaped.Len() > 0 {
			unescaped.WriteString(s)
			s = unescaped.String()
		}
		l.pos++
		return l.slot(s, types.Str(s)), nil
	}
	return token{}, fmt.Errorf("ddl: unterminated string at %d", start)
}

func (l *lexer) punct() token {
	start := l.pos
	l.pos++
	if l.pos < len(l.src) {
		switch l.src[start : l.pos+1] {
		case "<=", ">=", "<>":
			l.pos++
		}
	}
	return token{kind: tokPunct, text: l.src[start:l.pos]}
}
