package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/diag"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

// Parse parses a single SQL statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	stmts, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, &SyntaxError{Line: 1, Col: 1, Msg: fmt.Sprintf("expected one statement, got %d", len(stmts))}
	}
	return stmts[0], nil
}

// ParseAll parses a semicolon-separated script into statements.
func ParseAll(src string) ([]Statement, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Statement
	for {
		for p.peek().kind == tokSymbol && p.peek().text == ";" {
			p.advance()
		}
		if p.peek().kind == tokEOF {
			break
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if t := p.peek(); t.kind != tokEOF && !(t.kind == tokSymbol && t.text == ";") {
			return nil, p.errorf("unexpected %s after statement", t)
		}
	}
	if len(out) == 0 {
		return nil, &SyntaxError{Line: 1, Col: 1, Msg: "empty input"}
	}
	return out, nil
}

// parseExpr parses a standalone scalar expression (used by tests and tools).
func parseExpr(src string) (expr.Expr, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("unexpected %s after expression", p.peek())
	}
	return e, nil
}

type parser struct {
	toks []token
	pos  int
	last token // most recently consumed token, for span ends
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) peekAt(off int) token {
	if p.pos+off >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+off]
}

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
		p.last = t
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	t := p.peek()
	return &SyntaxError{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

// spanFrom covers from the start token through the last consumed token.
func (p *parser) spanFrom(start token) diag.Span {
	return diag.Span{
		Start: diag.Pos{Offset: start.pos, Line: start.line, Col: start.col},
		End:   diag.Pos{Offset: p.last.end, Line: p.last.endLine, Col: p.last.endCol},
	}
}

// matchKeyword consumes the keyword if present.
func (p *parser) matchKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.advance()
		return true
	}
	return false
}

// expectKeyword consumes the keyword or errors.
func (p *parser) expectKeyword(kw string) error {
	if !p.matchKeyword(kw) {
		return p.errorf("expected %s, found %s", kw, p.peek())
	}
	return nil
}

// matchSymbol consumes the symbol if present.
func (p *parser) matchSymbol(sym string) bool {
	if t := p.peek(); t.kind == tokSymbol && t.text == sym {
		p.advance()
		return true
	}
	return false
}

// expectSymbol consumes the symbol or errors.
func (p *parser) expectSymbol(sym string) error {
	if !p.matchSymbol(sym) {
		return p.errorf("expected %q, found %s", sym, p.peek())
	}
	return nil
}

// identifier consumes an identifier (plain or quoted) or errors. Unreserved
// keywords are not accepted as identifiers; quoted form always works.
func (p *parser) identifier(what string) (string, error) {
	t := p.peek()
	if t.kind == tokIdent || t.kind == tokQuotedIdent {
		p.advance()
		return t.text, nil
	}
	return "", p.errorf("expected %s, found %s", what, t)
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errorf("expected statement, found %s", t)
	}
	switch t.text {
	case "SELECT":
		return p.parseSelect()
	case "EXPLAIN":
		p.advance()
		analyze := p.matchKeyword("ANALYZE")
		if kw := p.peek(); kw.kind != tokKeyword || kw.text != "SELECT" {
			if analyze {
				return nil, p.errorf("EXPLAIN ANALYZE supports SELECT statements")
			}
			return nil, p.errorf("EXPLAIN supports SELECT statements")
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &Explain{Query: sel.(*Select), Analyze: analyze}, nil
	case "CREATE":
		if p.peekAt(1).kind == tokKeyword && p.peekAt(1).text == "INDEX" {
			return p.parseCreateIndex()
		}
		return p.parseCreateTable()
	case "DROP":
		return p.parseDropTable()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		p.advance()
		if err := p.expectKeyword("FROM"); err != nil {
			return nil, err
		}
		name, err := p.identifier("table name")
		if err != nil {
			return nil, err
		}
		d := &Delete{Table: name}
		if p.matchKeyword("WHERE") {
			w, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			d.Where = w
		}
		return d, nil
	default:
		return nil, p.errorf("unsupported statement %s", t)
	}
}

func (p *parser) parseCreateTable() (Statement, error) {
	p.advance() // CREATE
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.identifier("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name}
	for {
		if p.matchKeyword("PRIMARY") {
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			cols, err := p.identList()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			ct.PrimaryKey = cols
		} else {
			col, err := p.identifier("column name")
			if err != nil {
				return nil, err
			}
			typ, err := p.columnType()
			if err != nil {
				return nil, err
			}
			ct.Schema = append(ct.Schema, storage.ColumnDef{Name: col, Type: typ})
		}
		if p.matchSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	// A trailing PRIMARY KEY(...) clause outside the parens (Teradata-ish,
	// used in the companion paper's CREATE TABLE FH … PRIMARY KEY(…)).
	if p.matchKeyword("PRIMARY") {
		if err := p.expectKeyword("KEY"); err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		cols, err := p.identList()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		ct.PrimaryKey = cols
	}
	if len(ct.Schema) == 0 {
		return nil, p.errorf("CREATE TABLE %s has no columns", name)
	}
	return ct, nil
}

func (p *parser) columnType() (storage.ColumnType, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return 0, p.errorf("expected column type, found %s", t)
	}
	var typ storage.ColumnType
	switch t.text {
	case "INTEGER", "INT":
		typ = storage.TypeInt
	case "REAL", "FLOAT":
		typ = storage.TypeFloat
	case "VARCHAR":
		typ = storage.TypeString
	case "BOOLEAN":
		typ = storage.TypeBool
	default:
		return 0, p.errorf("unsupported column type %s", t)
	}
	p.advance()
	// Optional length, e.g. VARCHAR(20): parsed and ignored.
	if p.matchSymbol("(") {
		if p.peek().kind != tokNumber {
			return 0, p.errorf("expected type length, found %s", p.peek())
		}
		p.advance()
		if err := p.expectSymbol(")"); err != nil {
			return 0, err
		}
	}
	return typ, nil
}

func (p *parser) parseCreateIndex() (Statement, error) {
	p.advance() // CREATE
	p.advance() // INDEX
	name, err := p.identifier("index name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.identifier("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	cols, err := p.identList()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &CreateIndex{Name: name, Table: table, Columns: cols}, nil
}

func (p *parser) parseDropTable() (Statement, error) {
	p.advance() // DROP
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	d := &DropTable{}
	if p.matchKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		d.IfExists = true
	}
	name, err := p.identifier("table name")
	if err != nil {
		return nil, err
	}
	d.Name = name
	return d, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.advance() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.identifier("table name")
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.matchSymbol("(") {
		cols, err := p.identList()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		ins.Columns = cols
	}
	switch {
	case p.matchKeyword("VALUES"):
		for {
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			var row []expr.Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.matchSymbol(",") {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			if !p.matchSymbol(",") {
				break
			}
		}
	case p.peek().kind == tokKeyword && p.peek().text == "SELECT":
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Query = sel.(*Select)
	default:
		return nil, p.errorf("expected VALUES or SELECT, found %s", p.peek())
	}
	return ins, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.advance() // UPDATE
	table, err := p.identifier("table name")
	if err != nil {
		return nil, err
	}
	u := &Update{Table: table}
	// Optional alias before FROM/SET.
	if t := p.peek(); t.kind == tokIdent {
		u.Alias = t.text
		p.advance()
	}
	if p.matchKeyword("FROM") {
		for {
			ref, err := p.tableRef()
			if err != nil {
				return nil, err
			}
			u.From = append(u.From, ref)
			if !p.matchSymbol(",") {
				break
			}
		}
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.identifier("column name")
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Set = append(u.Set, Assignment{Column: col, Value: e})
		if !p.matchSymbol(",") {
			break
		}
	}
	if p.matchKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Where = w
	}
	return u, nil
}

func (p *parser) parseSelect() (Statement, error) {
	p.advance() // SELECT
	sel := &Select{}
	if p.matchKeyword("DISTINCT") {
		sel.Distinct = true
		sel.DistinctSpan = p.last.span()
	} else {
		p.matchKeyword("ALL")
	}
	for {
		start := p.peek()
		if p.matchSymbol("*") {
			sel.Items = append(sel.Items, SelectItem{Star: true, Span: p.spanFrom(start)})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.matchKeyword("AS") {
				alias, err := p.identifier("alias")
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			} else if t := p.peek(); t.kind == tokIdent || t.kind == tokQuotedIdent {
				item.Alias = t.text
				p.advance()
			}
			item.Span = p.spanFrom(start)
			sel.Items = append(sel.Items, item)
		}
		if !p.matchSymbol(",") {
			break
		}
	}
	if p.matchKeyword("FROM") {
		first, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		sel.From = append(sel.From, FromElem{Table: first})
		for {
			switch {
			case p.matchSymbol(","):
				ref, err := p.tableRef()
				if err != nil {
					return nil, err
				}
				sel.From = append(sel.From, FromElem{Table: ref, Join: JoinCross})
			case p.peek().kind == tokKeyword && (p.peek().text == "LEFT" || p.peek().text == "INNER" || p.peek().text == "JOIN"):
				jt := JoinInner
				if p.matchKeyword("LEFT") {
					p.matchKeyword("OUTER")
					jt = JoinLeftOuter
				} else {
					p.matchKeyword("INNER")
				}
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
				ref, err := p.tableRef()
				if err != nil {
					return nil, err
				}
				if err := p.expectKeyword("ON"); err != nil {
					return nil, err
				}
				on, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				sel.From = append(sel.From, FromElem{Table: ref, Join: jt, On: on})
			default:
				goto fromDone
			}
		}
	}
fromDone:
	if p.matchKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.matchKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		if t := p.peek(); t.kind == tokKeyword && (t.text == "ROLLUP" || t.text == "CUBE" || t.text == "GROUPING") {
			spec, err := p.groupingSpec()
			if err != nil {
				return nil, err
			}
			sel.GroupSets = spec
			if p.matchSymbol(",") {
				return nil, p.errorf("%s cannot be combined with additional GROUP BY terms", spec.Kind.Keyword())
			}
		} else {
			for {
				k, err := p.groupKey()
				if err != nil {
					return nil, err
				}
				sel.GroupBy = append(sel.GroupBy, k)
				if !p.matchSymbol(",") {
					break
				}
				if t := p.peek(); t.kind == tokKeyword && (t.text == "ROLLUP" || t.text == "CUBE" || t.text == "GROUPING") {
					return nil, p.errorf("%s cannot be combined with plain GROUP BY keys", t.text)
				}
			}
		}
	}
	if p.matchKeyword("HAVING") {
		havingTok := p.last
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
		sel.HavingSpan = p.spanFrom(havingTok)
	}
	if p.matchKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			k, err := p.groupKey()
			if err != nil {
				return nil, err
			}
			ok := OrderKey{Qualifier: k.Qualifier, Column: k.Column, Position: k.Position}
			if p.matchKeyword("DESC") {
				ok.Desc = true
			} else {
				p.matchKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, ok)
			if !p.matchSymbol(",") {
				break
			}
		}
	}
	if p.matchKeyword("LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errorf("expected LIMIT count, found %s", t)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errorf("bad LIMIT count %q", t.text)
		}
		p.advance()
		sel.Limit = &n
	}
	return sel, nil
}

// groupingSpec parses ROLLUP(…), CUBE(…), or GROUPING SETS (…). Empty
// dimension lists and an empty sets list parse cleanly so the analyzer can
// report them as positioned PCT111 diagnostics instead of a bare syntax
// error.
func (p *parser) groupingSpec() (*GroupingSpec, error) {
	start := p.advance() // ROLLUP | CUBE | GROUPING
	spec := &GroupingSpec{}
	switch start.text {
	case "ROLLUP":
		spec.Kind = GroupRollup
	case "CUBE":
		spec.Kind = GroupCube
	default:
		spec.Kind = GroupSetsList
		if err := p.expectKeyword("SETS"); err != nil {
			return nil, err
		}
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	if spec.Kind != GroupSetsList {
		if !p.matchSymbol(")") {
			for {
				k, err := p.groupKey()
				if err != nil {
					return nil, err
				}
				spec.Dims = append(spec.Dims, k)
				if !p.matchSymbol(",") {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
		}
		spec.Span = p.spanFrom(start)
		return spec, nil
	}
	if !p.matchSymbol(")") {
		for {
			set, err := p.groupingSet()
			if err != nil {
				return nil, err
			}
			spec.Sets = append(spec.Sets, set)
			if !p.matchSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	spec.Span = p.spanFrom(start)
	return spec, nil
}

// groupingSet parses one element of a GROUPING SETS list: (col, …), the
// grand-total set (), or a bare key as shorthand for a one-column set.
func (p *parser) groupingSet() ([]GroupKey, error) {
	if p.matchSymbol("(") {
		var set []GroupKey
		if p.matchSymbol(")") {
			return set, nil
		}
		for {
			k, err := p.groupKey()
			if err != nil {
				return nil, err
			}
			set = append(set, k)
			if !p.matchSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return set, nil
	}
	k, err := p.groupKey()
	if err != nil {
		return nil, err
	}
	return []GroupKey{k}, nil
}

func (p *parser) groupKey() (GroupKey, error) {
	t := p.peek()
	if t.kind == tokNumber {
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 1 {
			return GroupKey{}, p.errorf("bad position %q", t.text)
		}
		p.advance()
		return GroupKey{Position: n, Span: t.span()}, nil
	}
	name, err := p.identifier("column name or position")
	if err != nil {
		return GroupKey{}, err
	}
	if p.matchSymbol(".") {
		col, err := p.identifier("column name")
		if err != nil {
			return GroupKey{}, err
		}
		return GroupKey{Qualifier: name, Column: col, Span: p.spanFrom(t)}, nil
	}
	return GroupKey{Column: name, Span: p.spanFrom(t)}, nil
}

func (p *parser) tableRef() (TableRef, error) {
	start := p.peek()
	name, err := p.identifier("table name")
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if p.matchKeyword("AS") {
		alias, err := p.identifier("alias")
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if t := p.peek(); t.kind == tokIdent {
		ref.Alias = t.text
		p.advance()
	}
	ref.Span = p.spanFrom(start)
	return ref, nil
}

func (p *parser) identList() ([]string, error) {
	out, _, err := p.identListSpans()
	return out, err
}

// identListSpans parses a comma list of identifiers, also returning the
// source span of each.
func (p *parser) identListSpans() ([]string, []diag.Span, error) {
	var out []string
	var spans []diag.Span
	for {
		t := p.peek()
		id, err := p.identifier("column name")
		if err != nil {
			return nil, nil, err
		}
		out = append(out, id)
		spans = append(spans, t.span())
		if !p.matchSymbol(",") {
			return out, spans, nil
		}
	}
}

// ----- expressions -----

// parseExpr parses with precedence: OR < AND < NOT < comparison/IS <
// additive < multiplicative < unary < primary.
func (p *parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.matchKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &expr.BinaryOp{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.matchKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &expr.BinaryOp{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.matchKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &expr.UnaryOp{Op: "NOT", Operand: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (expr.Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tokSymbol {
		switch t.text {
		case "=", "<>", "!=", "<", "<=", ">", ">=":
			p.advance()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &expr.BinaryOp{Op: t.text, Left: left, Right: right}, nil
		}
	}
	if p.matchKeyword("IS") {
		negate := p.matchKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &expr.IsNull{Operand: left, Negate: negate}, nil
	}
	// x [NOT] IN (…) / BETWEEN a AND b / LIKE 'pat'.
	negate := false
	if t := p.peek(); t.kind == tokKeyword && t.text == "NOT" {
		nt := p.peekAt(1)
		if nt.kind == tokKeyword && (nt.text == "IN" || nt.text == "BETWEEN" || nt.text == "LIKE") {
			p.advance()
			negate = true
		}
	}
	switch {
	case p.matchKeyword("IN"):
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		in := &expr.InList{Operand: left, Negate: negate}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, e)
			if !p.matchSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return in, nil
	case p.matchKeyword("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &expr.Between{Operand: left, Lo: lo, Hi: hi, Negate: negate}, nil
	case p.matchKeyword("LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &expr.Like{Operand: left, Pattern: pat, Negate: negate}, nil
	}
	if negate {
		return nil, p.errorf("expected IN, BETWEEN, or LIKE after NOT")
	}
	return left, nil
}

func (p *parser) parseAdditive() (expr.Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-") {
			p.advance()
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &expr.BinaryOp{Op: t.text, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseMultiplicative() (expr.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "*" || t.text == "/") {
			p.advance()
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &expr.BinaryOp{Op: t.text, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseUnary() (expr.Expr, error) {
	if t := p.peek(); t.kind == tokSymbol && t.text == "-" {
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &expr.UnaryOp{Op: "-", Operand: x}, nil
	}
	return p.parsePrimary()
}

// aggFuncs maps lower-case function names to aggregate identities.
var aggFuncs = map[string]expr.AggFn{
	"sum": expr.AggSum, "count": expr.AggCount, "avg": expr.AggAvg,
	"average": expr.AggAvg, "min": expr.AggMin, "max": expr.AggMax,
	"vpct": expr.AggVpct, "hpct": expr.AggHpct,
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.advance()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return expr.NewLiteral(value.NewFloat(f)), nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		return expr.NewLiteral(value.NewInt(i)), nil

	case tokString:
		p.advance()
		return expr.NewLiteral(value.NewString(t.text)), nil

	case tokKeyword:
		switch t.text {
		case "NULL":
			p.advance()
			return expr.NewLiteral(value.Null), nil
		case "TRUE":
			p.advance()
			return expr.NewLiteral(value.NewBool(true)), nil
		case "FALSE":
			p.advance()
			return expr.NewLiteral(value.NewBool(false)), nil
		case "CASE":
			return p.parseCase()
		case "NOT":
			return p.parseNot()
		case "GROUPING":
			// GROUPING(d1[, d2 …]) — the lattice-node marker. Parsed as a
			// plain function call; the planner replaces it with a literal
			// per lattice node, so the engine never evaluates it.
			if p.peekAt(1).kind == tokSymbol && p.peekAt(1).text == "(" {
				p.advance() // GROUPING
				p.advance() // (
				call := &expr.FuncCall{Name: "GROUPING"}
				if !p.matchSymbol(")") {
					for {
						a, err := p.parseExpr()
						if err != nil {
							return nil, err
						}
						call.Args = append(call.Args, a)
						if !p.matchSymbol(",") {
							break
						}
					}
					if err := p.expectSymbol(")"); err != nil {
						return nil, err
					}
				}
				return call, nil
			}
		}
		return nil, p.errorf("unexpected %s in expression", t)

	case tokSymbol:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errorf("unexpected %s in expression", t)

	case tokIdent, tokQuotedIdent:
		// Function call?
		if t.kind == tokIdent && p.peekAt(1).kind == tokSymbol && p.peekAt(1).text == "(" {
			return p.parseCall()
		}
		p.advance()
		// Qualified column t.c ?
		if p.peek().kind == tokSymbol && p.peek().text == "." {
			p.advance()
			col, err := p.identifier("column name")
			if err != nil {
				return nil, err
			}
			ref := expr.QCol(t.text, col)
			ref.Span = p.spanFrom(t)
			return ref, nil
		}
		ref := expr.Col(t.text)
		ref.Span = t.span()
		return ref, nil
	}
	return nil, p.errorf("unexpected %s in expression", t)
}

func (p *parser) parseCase() (expr.Expr, error) {
	p.advance() // CASE
	c := &expr.Case{}
	for p.matchKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, expr.When{Cond: cond, Result: res})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE needs at least one WHEN")
	}
	if p.matchKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}

// parseCall parses fn(...) — an aggregate (possibly with DISTINCT, *, BY
// list, DEFAULT, and a trailing OVER clause) or a scalar function.
func (p *parser) parseCall() (expr.Expr, error) {
	nameTok := p.advance()
	name := nameTok.text
	p.advance() // (
	fn, isAgg := aggFuncs[strings.ToLower(name)]
	if !isAgg {
		// Scalar function.
		call := &expr.FuncCall{Name: name}
		if !p.matchSymbol(")") {
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if !p.matchSymbol(",") {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
		}
		return call, nil
	}

	agg := &expr.AggCall{Fn: fn}
	if p.matchKeyword("DISTINCT") {
		agg.Distinct = true
	}
	if p.matchSymbol("*") {
		agg.Star = true
	} else if t := p.peek(); !(t.kind == tokKeyword && t.text == "BY") {
		// A missing argument directly before BY parses as Arg == nil so
		// the analyzer can report it (PCT016/PCT023) alongside the
		// query's other problems instead of dying here.
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		agg.Arg = a
	}
	if p.matchKeyword("BY") {
		cols, spans, err := p.identListSpans()
		if err != nil {
			return nil, err
		}
		agg.By = cols
		agg.BySpans = spans
	}
	if p.matchKeyword("DEFAULT") {
		d, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		lit, ok := d.(*expr.Literal)
		if !ok {
			return nil, p.errorf("DEFAULT must be a literal")
		}
		agg.Default = lit
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if p.matchKeyword("OVER") {
		if len(agg.By) > 0 {
			return nil, p.errorf("%s: BY and OVER are mutually exclusive", name)
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		over := &expr.OverSpec{}
		if p.matchKeyword("PARTITION") {
			if err := p.expectKeyword("BY"); err != nil {
				return nil, err
			}
			cols, err := p.identList()
			if err != nil {
				return nil, err
			}
			over.PartitionBy = cols
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		agg.Over = over
	}
	// Percentage-function rule checks that do not need schema knowledge.
	if (fn == expr.AggVpct || fn == expr.AggHpct) && agg.Star {
		return nil, p.errorf("%s requires an expression argument", name)
	}
	agg.Span = p.spanFrom(nameTok)
	return agg, nil
}
