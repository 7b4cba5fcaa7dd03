// Package sqlparse implements a lexer and recursive-descent parser for the
// SQL subset the system needs: CREATE TABLE / INDEX, DROP TABLE, INSERT
// (VALUES and INSERT … SELECT), UPDATE (including the cross-table form the
// paper's UPDATE strategy generates), and SELECT with DISTINCT, comma joins,
// LEFT OUTER JOIN … ON, WHERE, GROUP BY (names or positions), ORDER BY, and
// aggregate calls — the standard five, the paper's Vpct/Hpct percentage
// aggregations with their BY subgrouping lists, the companion paper's
// horizontal aggregations (any standard aggregate with BY and an optional
// DEFAULT), and ANSI OLAP window aggregates with OVER (PARTITION BY …).
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"

	"repro/internal/diag"
)

// tokenKind classifies lexical tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokQuotedIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol
)

// token is one lexical token with its source span (line/col 1-based).
type token struct {
	kind    tokenKind
	text    string // keywords upper-cased; quoted idents unquoted
	pos     int    // byte offset in the input
	line    int
	col     int
	end     int // byte offset one past the token
	endLine int
	endCol  int
}

// span returns the token's source range as a diagnostic span.
func (t token) span() diag.Span {
	return diag.Span{
		Start: diag.Pos{Offset: t.pos, Line: t.line, Col: t.col},
		End:   diag.Pos{Offset: t.end, Line: t.endLine, Col: t.endCol},
	}
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("string %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// keywords recognized by the lexer. Identifiers matching these (case-
// insensitively) become keyword tokens.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "HAVING": true, "AS": true, "DISTINCT": true, "ALL": true,
	"INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true, "SET": true,
	"CREATE": true, "TABLE": true, "INDEX": true, "DROP": true, "IF": true,
	"EXISTS": true, "PRIMARY": true, "KEY": true, "ON": true, "AND": true,
	"OR": true, "NOT": true, "NULL": true, "IS": true, "CASE": true,
	"WHEN": true, "THEN": true, "ELSE": true, "END": true, "JOIN": true,
	"LEFT": true, "RIGHT": true, "INNER": true, "OUTER": true, "CROSS": true,
	"OVER": true, "PARTITION": true, "ASC": true, "DESC": true, "LIMIT": true,
	"DEFAULT": true, "TRUE": true, "FALSE": true, "INTEGER": true, "INT": true,
	"REAL": true, "FLOAT": true, "VARCHAR": true, "BOOLEAN": true, "IN": true,
	"BETWEEN": true, "LIKE": true, "UNION": true, "EXPLAIN": true, "DELETE": true,
	"ANALYZE": true, "ROLLUP": true, "CUBE": true, "GROUPING": true, "SETS": true,
}

// lexer tokenizes a SQL string.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

// SyntaxError is a positioned lexical or syntax error. Line and Col are
// 1-based; tools (cmd/pctlint) unwrap it to place the finding precisely.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

// Error renders the message with its source position.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sql: %s at line %d, col %d", e.Msg, e.Line, e.Col)
}

// Code returns PCT000, the syntax-error code.
func (e *SyntaxError) Code() string { return diag.CodeSyntax }

// Span returns the error position as a zero-width diagnostic span.
func (e *SyntaxError) Span() diag.Span {
	p := diag.Pos{Line: e.Line, Col: e.Col}
	return diag.Span{Start: p, End: p}
}

func (l *lexer) errorf(format string, args ...any) error {
	return &SyntaxError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) advance() byte {
	ch := l.src[l.pos]
	l.pos++
	if ch == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return ch
}

func (l *lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

// next returns the next token with its end position stamped.
func (l *lexer) next() (token, error) {
	t, err := l.scan()
	if err != nil {
		return t, err
	}
	t.end, t.endLine, t.endCol = l.pos, l.line, l.col
	return t, nil
}

// scan lexes the next token; next fills in the end position.
func (l *lexer) scan() (token, error) {
	for l.pos < len(l.src) {
		ch := l.peek()
		switch {
		case ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r':
			l.advance()
		case ch == '-' && l.peekAt(1) == '-': // line comment
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case ch == '/' && l.peekAt(1) == '*': // block comment
			l.advance()
			l.advance()
			for l.pos < len(l.src) && !(l.peek() == '*' && l.peekAt(1) == '/') {
				l.advance()
			}
			if l.pos >= len(l.src) {
				return token{}, l.errorf("unterminated block comment")
			}
			l.advance()
			l.advance()
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, pos: l.pos, line: l.line, col: l.col}, nil

scan:
	start, line, col := l.pos, l.line, l.col
	ch := l.peek()

	switch {
	case isIdentStart(ch):
		for l.pos < len(l.src) && isIdentPart(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.pos]
		upper := strings.ToUpper(text)
		if keywords[upper] {
			return token{kind: tokKeyword, text: upper, pos: start, line: line, col: col}, nil
		}
		return token{kind: tokIdent, text: text, pos: start, line: line, col: col}, nil

	case ch >= '0' && ch <= '9', ch == '.' && isDigit(l.peekAt(1)):
		sawDot, sawExp := false, false
		for l.pos < len(l.src) {
			c := l.peek()
			switch {
			case isDigit(c):
				l.advance()
			case c == '.' && !sawDot && !sawExp:
				sawDot = true
				l.advance()
			case (c == 'e' || c == 'E') && !sawExp && l.pos > start:
				sawExp = true
				l.advance()
				if l.peek() == '+' || l.peek() == '-' {
					l.advance()
				}
			default:
				goto numDone
			}
		}
	numDone:
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start, line: line, col: col}, nil

	case ch == '\'':
		l.advance()
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, &SyntaxError{Line: line, Col: col, Msg: "unterminated string literal"}
			}
			c := l.advance()
			if c == '\'' {
				if l.peek() == '\'' { // escaped quote
					l.advance()
					sb.WriteByte('\'')
					continue
				}
				break
			}
			sb.WriteByte(c)
		}
		return token{kind: tokString, text: sb.String(), pos: start, line: line, col: col}, nil

	case ch == '"':
		l.advance()
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, &SyntaxError{Line: line, Col: col, Msg: "unterminated quoted identifier"}
			}
			c := l.advance()
			if c == '"' {
				if l.peek() == '"' {
					l.advance()
					sb.WriteByte('"')
					continue
				}
				break
			}
			sb.WriteByte(c)
		}
		return token{kind: tokQuotedIdent, text: sb.String(), pos: start, line: line, col: col}, nil

	default:
		// Multi-byte symbols first.
		two := ""
		if l.pos+1 < len(l.src) {
			two = l.src[l.pos : l.pos+2]
		}
		switch two {
		case "<>", "<=", ">=", "!=":
			l.advance()
			l.advance()
			return token{kind: tokSymbol, text: two, pos: start, line: line, col: col}, nil
		}
		switch ch {
		case '(', ')', ',', ';', '*', '+', '-', '/', '=', '<', '>', '.':
			l.advance()
			return token{kind: tokSymbol, text: string(ch), pos: start, line: line, col: col}, nil
		}
		return token{}, &SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf("unexpected character %q", rune(ch))}
	}
}

func isIdentStart(ch byte) bool {
	return ch == '_' || unicode.IsLetter(rune(ch))
}

func isIdentPart(ch byte) bool {
	return ch == '_' || ch == '$' || unicode.IsLetter(rune(ch)) || isDigit(ch)
}

func isDigit(ch byte) bool { return ch >= '0' && ch <= '9' }

// lexAll tokenizes the whole input, for the parser's token buffer.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
