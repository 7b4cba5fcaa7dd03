package sqlparse

import (
	"strings"

	"repro/internal/diag"
	"repro/internal/expr"
	"repro/internal/storage"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmt()
	// String renders the statement back to SQL text.
	String() string
}

// CreateTable is CREATE TABLE name (cols…[, PRIMARY KEY(cols)]).
type CreateTable struct {
	Name       string
	Schema     storage.Schema
	PrimaryKey []string
}

func (*CreateTable) stmt() {}

// String renders the statement.
func (c *CreateTable) String() string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE ")
	sb.WriteString(c.Name)
	sb.WriteString(" (")
	for i, col := range c.Schema {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(quoteIdent(col.Name))
		sb.WriteString(" ")
		sb.WriteString(col.Type.String())
	}
	if len(c.PrimaryKey) > 0 {
		sb.WriteString(", PRIMARY KEY(")
		sb.WriteString(strings.Join(c.PrimaryKey, ", "))
		sb.WriteString(")")
	}
	sb.WriteString(")")
	return sb.String()
}

// DropTable is DROP TABLE [IF EXISTS] name.
type DropTable struct {
	Name     string
	IfExists bool
}

func (*DropTable) stmt() {}

// String renders the statement.
func (d *DropTable) String() string {
	if d.IfExists {
		return "DROP TABLE IF EXISTS " + d.Name
	}
	return "DROP TABLE " + d.Name
}

// CreateIndex is CREATE INDEX name ON table (cols).
type CreateIndex struct {
	Name    string
	Table   string
	Columns []string
}

func (*CreateIndex) stmt() {}

// String renders the statement.
func (c *CreateIndex) String() string {
	return "CREATE INDEX " + c.Name + " ON " + c.Table + " (" + strings.Join(c.Columns, ", ") + ")"
}

// Insert is INSERT INTO table [(cols)] VALUES (…), … or INSERT INTO table
// [(cols)] SELECT ….
type Insert struct {
	Table   string
	Columns []string      // optional explicit column list
	Rows    [][]expr.Expr // VALUES form
	Query   *Select       // INSERT … SELECT form
}

func (*Insert) stmt() {}

// String renders the statement.
func (i *Insert) String() string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO ")
	sb.WriteString(i.Table)
	if len(i.Columns) > 0 {
		sb.WriteString(" (")
		sb.WriteString(strings.Join(i.Columns, ", "))
		sb.WriteString(")")
	}
	if i.Query != nil {
		sb.WriteString(" ")
		sb.WriteString(i.Query.String())
		return sb.String()
	}
	sb.WriteString(" VALUES ")
	for r, row := range i.Rows {
		if r > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(")
		for c, e := range row {
			if c > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.String())
		}
		sb.WriteString(")")
	}
	return sb.String()
}

// Assignment is one SET column = expr clause of an UPDATE.
type Assignment struct {
	Column string
	Value  expr.Expr
}

// Update is UPDATE target [FROM tables] SET assignments [WHERE cond]. The
// FROM clause names the extra tables a cross-table update joins with — the
// form the paper's UPDATE-based Vpct strategy generates (UPDATE Fk FROM Fj
// SET A = Fk.A/Fj.A WHERE Fk.D1 = Fj.D1 …).
type Update struct {
	Table string
	Alias string
	From  []TableRef
	Set   []Assignment
	Where expr.Expr
}

func (*Update) stmt() {}

// String renders the statement.
func (u *Update) String() string {
	var sb strings.Builder
	sb.WriteString("UPDATE ")
	sb.WriteString(u.Table)
	if u.Alias != "" {
		sb.WriteString(" ")
		sb.WriteString(u.Alias)
	}
	if len(u.From) > 0 {
		sb.WriteString(" FROM ")
		for i, t := range u.From {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(t.String())
		}
	}
	sb.WriteString(" SET ")
	for i, a := range u.Set {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.Column)
		sb.WriteString(" = ")
		sb.WriteString(a.Value.String())
	}
	if u.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(u.Where.String())
	}
	return sb.String()
}

// Delete is DELETE FROM table [WHERE cond].
type Delete struct {
	Table string
	Where expr.Expr
}

func (*Delete) stmt() {}

// String renders the statement.
func (d *Delete) String() string {
	s := "DELETE FROM " + d.Table
	if d.Where != nil {
		s += " WHERE " + d.Where.String()
	}
	return s
}

// Explain is EXPLAIN [ANALYZE] SELECT …: show the physical plan. Plain
// EXPLAIN renders the plan without running the query; EXPLAIN ANALYZE
// executes it and annotates each operator with actual row counts and
// durations.
type Explain struct {
	Query   *Select
	Analyze bool
}

func (*Explain) stmt() {}

// String renders the statement.
func (e *Explain) String() string {
	if e.Analyze {
		return "EXPLAIN ANALYZE " + e.Query.String()
	}
	return "EXPLAIN " + e.Query.String()
}

// JoinType distinguishes the FROM-list join forms.
type JoinType uint8

// Join forms: the comma list (cross product, filtered by WHERE), INNER JOIN
// … ON, and LEFT OUTER JOIN … ON (the SPJ strategy's assembly joins).
const (
	JoinCross JoinType = iota
	JoinInner
	JoinLeftOuter
)

// TableRef names a table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
	// Span locates the reference in the statement source.
	Span diag.Span
}

// RefName returns the name the table is referenced by (alias if present).
func (t TableRef) RefName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// String renders the reference.
func (t TableRef) String() string {
	if t.Alias != "" {
		return t.Name + " " + t.Alias
	}
	return t.Name
}

// FromElem is one element of a FROM list: a table and how it joins the
// tables before it. The first element's Join/On are ignored.
type FromElem struct {
	Table TableRef
	Join  JoinType
	On    expr.Expr // nil for comma joins
}

// SelectItem is one term of a select list: either * (Star) or an expression
// with an optional alias. Aggregate calls — including Vpct/Hpct/horizontal
// BY aggregates and windowed OVER aggregates — appear inside Expr.
type SelectItem struct {
	Star  bool
	Expr  expr.Expr
	Alias string
	// Span locates the whole item (expression plus alias) in the source.
	Span diag.Span
}

// String renders the item.
func (s SelectItem) String() string {
	if s.Star {
		return "*"
	}
	if s.Alias != "" {
		return s.Expr.String() + " AS " + quoteIdent(s.Alias)
	}
	return s.Expr.String()
}

// GroupKey is one GROUP BY term: a (possibly qualified) column name or a
// 1-based select-list position (the companion paper writes GROUP BY 1,2).
type GroupKey struct {
	Qualifier string
	Column    string
	Position  int // 1-based; 0 when Column is set
	// Span locates the key in the statement source.
	Span diag.Span
}

// String renders the key.
func (g GroupKey) String() string {
	if g.Position > 0 {
		return itoa(g.Position)
	}
	if g.Qualifier != "" {
		return g.Qualifier + "." + g.Column
	}
	return g.Column
}

// GroupingKind distinguishes the grouping-set constructs of a GROUP BY
// clause: ROLLUP, CUBE, or an explicit GROUPING SETS list.
type GroupingKind uint8

// Grouping-set construct kinds.
const (
	GroupRollup GroupingKind = iota
	GroupCube
	GroupSetsList
)

// Keyword returns the construct's SQL keyword for error messages.
func (k GroupingKind) Keyword() string {
	switch k {
	case GroupRollup:
		return "ROLLUP"
	case GroupCube:
		return "CUBE"
	default:
		return "GROUPING SETS"
	}
}

// GroupingSpec is a GROUP BY ROLLUP(…), CUBE(…), or GROUPING SETS (…)
// clause. ROLLUP/CUBE carry their dimension list in Dims; GROUPING SETS
// carries the explicit sets in Sets (an empty inner slice is the () grand-
// total set). A Select carries at most one construct: mixing plain keys
// with a construct is rejected at parse time.
type GroupingSpec struct {
	Kind GroupingKind
	Dims []GroupKey   // ROLLUP/CUBE dimension list, finest first
	Sets [][]GroupKey // GROUPING SETS explicit sets, in source order
	// Span locates the whole construct in the statement source.
	Span diag.Span
}

// String renders the construct.
func (g *GroupingSpec) String() string {
	var sb strings.Builder
	if g.Kind == GroupSetsList {
		sb.WriteString("GROUPING SETS (")
		for i, set := range g.Sets {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString("(")
			for j, d := range set {
				if j > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(d.String())
			}
			sb.WriteString(")")
		}
		sb.WriteString(")")
		return sb.String()
	}
	sb.WriteString(g.Kind.Keyword())
	sb.WriteString("(")
	for i, d := range g.Dims {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(d.String())
	}
	sb.WriteString(")")
	return sb.String()
}

// OrderKey is one ORDER BY term.
type OrderKey struct {
	Qualifier string
	Column    string
	Position  int // 1-based; 0 when Column is set
	Desc      bool
}

// String renders the key.
func (o OrderKey) String() string {
	s := o.Column
	if o.Qualifier != "" {
		s = o.Qualifier + "." + o.Column
	}
	if o.Position > 0 {
		s = itoa(o.Position)
	}
	if o.Desc {
		s += " DESC"
	}
	return s
}

// Select is a SELECT statement.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []FromElem
	Where    expr.Expr
	GroupBy  []GroupKey
	// GroupSets holds a ROLLUP/CUBE/GROUPING SETS construct when the GROUP
	// BY clause uses one; GroupBy stays empty then, so code that only
	// understands plain grouping cannot silently mis-execute the query.
	GroupSets *GroupingSpec
	Having    expr.Expr
	OrderBy   []OrderKey
	Limit     *int // nil = no LIMIT clause; LIMIT 0 is a clause

	// DistinctSpan and HavingSpan locate the DISTINCT keyword and the
	// HAVING clause, for positioned diagnostics; zero when absent.
	DistinctSpan diag.Span
	HavingSpan   diag.Span
}

func (*Select) stmt() {}

// String renders the statement.
func (s *Select) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.String())
	}
	if len(s.From) > 0 {
		sb.WriteString(" FROM ")
		for i, f := range s.From {
			if i == 0 {
				sb.WriteString(f.Table.String())
				continue
			}
			switch f.Join {
			case JoinCross:
				sb.WriteString(", ")
				sb.WriteString(f.Table.String())
			case JoinInner:
				sb.WriteString(" JOIN ")
				sb.WriteString(f.Table.String())
				sb.WriteString(" ON ")
				sb.WriteString(f.On.String())
			case JoinLeftOuter:
				sb.WriteString(" LEFT OUTER JOIN ")
				sb.WriteString(f.Table.String())
				sb.WriteString(" ON ")
				sb.WriteString(f.On.String())
			}
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(s.Where.String())
	}
	if s.GroupSets != nil {
		sb.WriteString(" GROUP BY ")
		sb.WriteString(s.GroupSets.String())
	} else if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING ")
		sb.WriteString(s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.String())
		}
	}
	if s.Limit != nil {
		sb.WriteString(" LIMIT ")
		sb.WriteString(itoa(*s.Limit))
	}
	return sb.String()
}

// IsKeyword reports whether s (case-insensitively) is a reserved SQL
// keyword; such names must be quoted when used as identifiers.
func IsKeyword(s string) bool { return keywords[strings.ToUpper(s)] }

// quoteIdent quotes an identifier when it needs quoting (non-simple chars),
// mirroring how the code generator emits derived column names like "Mo" or
// "dweek=1,month=2".
func quoteIdent(s string) string {
	simple := s != ""
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || i > 0 && c >= '0' && c <= '9') {
			simple = false
			break
		}
	}
	if simple && !keywords[strings.ToUpper(s)] {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var buf [20]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		p--
		buf[p] = '-'
	}
	return string(buf[p:])
}
