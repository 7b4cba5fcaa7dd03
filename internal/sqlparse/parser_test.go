package sqlparse

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/storage"
)

func mustSelect(t *testing.T, src string) *Select {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	sel, ok := s.(*Select)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *Select", src, s)
	}
	return sel
}

func TestParseSimpleSelect(t *testing.T) {
	sel := mustSelect(t, "SELECT state, city, salesAmt FROM sales WHERE salesAmt > 10;")
	if len(sel.Items) != 3 || sel.Items[0].Expr.String() != "state" {
		t.Errorf("items = %v", sel.Items)
	}
	if len(sel.From) != 1 || sel.From[0].Table.Name != "sales" {
		t.Errorf("from = %v", sel.From)
	}
	if sel.Where == nil || sel.Where.String() != "(salesAmt > 10)" {
		t.Errorf("where = %v", sel.Where)
	}
}

func TestParseSelectStarDistinctOrderLimit(t *testing.T) {
	sel := mustSelect(t, "SELECT DISTINCT * FROM F ORDER BY 2 DESC, a ASC LIMIT 10")
	if !sel.Distinct || !sel.Items[0].Star {
		t.Error("DISTINCT * not parsed")
	}
	if len(sel.OrderBy) != 2 || sel.OrderBy[0].Position != 2 || !sel.OrderBy[0].Desc {
		t.Errorf("order by = %v", sel.OrderBy)
	}
	if sel.OrderBy[1].Column != "a" || sel.OrderBy[1].Desc {
		t.Errorf("order by = %v", sel.OrderBy)
	}
	if sel.Limit == nil || *sel.Limit != 10 {
		t.Errorf("limit = %v", sel.Limit)
	}
	// LIMIT 0 is a clause of its own, told apart from no LIMIT and rendered back.
	if zero := mustSelect(t, "SELECT a FROM F LIMIT 0"); zero.Limit == nil || *zero.Limit != 0 || zero.String() != "SELECT a FROM F LIMIT 0" {
		t.Errorf("LIMIT 0 parsed to %v, rendered %q", zero.Limit, zero)
	}
	if none := mustSelect(t, "SELECT a FROM F"); none.Limit != nil {
		t.Errorf("absent LIMIT parsed to %d", *none.Limit)
	}
}

func TestParseVpctQuery(t *testing.T) {
	// The paper's flagship example.
	sel := mustSelect(t, "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city")
	if len(sel.GroupBy) != 2 || sel.GroupBy[0].Column != "state" {
		t.Errorf("group by = %v", sel.GroupBy)
	}
	agg, ok := sel.Items[2].Expr.(*expr.AggCall)
	if !ok {
		t.Fatalf("item 2 = %T", sel.Items[2].Expr)
	}
	if agg.Fn != expr.AggVpct || len(agg.By) != 1 || agg.By[0] != "city" {
		t.Errorf("agg = %v", agg)
	}
}

func TestParseHpctWithOtherAggregates(t *testing.T) {
	sel := mustSelect(t, "SELECT store, Hpct(salesAmt BY dweek), sum(salesAmt) FROM sales GROUP BY store")
	agg := sel.Items[1].Expr.(*expr.AggCall)
	if agg.Fn != expr.AggHpct || agg.By[0] != "dweek" {
		t.Errorf("hpct = %v", agg)
	}
	s := sel.Items[2].Expr.(*expr.AggCall)
	if s.Fn != expr.AggSum || s.IsHorizontal() {
		t.Errorf("sum = %v", s)
	}
}

func TestParseHorizontalAggVariants(t *testing.T) {
	// The companion paper's forms.
	sel := mustSelect(t, `SELECT storeId,
		sum(salesAmt BY dayofweekName),
		count(distinct transactionid BY dayofweekNo),
		max(1 BY deptId DEFAULT 0),
		sum(salesAmt)
	FROM transactionLine GROUP BY storeId`)
	a1 := sel.Items[1].Expr.(*expr.AggCall)
	if a1.Fn != expr.AggSum || a1.By[0] != "dayofweekName" {
		t.Errorf("a1 = %v", a1)
	}
	a2 := sel.Items[2].Expr.(*expr.AggCall)
	if a2.Fn != expr.AggCount || !a2.Distinct || a2.By[0] != "dayofweekNo" {
		t.Errorf("a2 = %v", a2)
	}
	a3 := sel.Items[3].Expr.(*expr.AggCall)
	if a3.Fn != expr.AggMax || a3.Default == nil || a3.Default.String() != "0" {
		t.Errorf("a3 = %v", a3)
	}
}

func TestParseGroupByPositions(t *testing.T) {
	sel := mustSelect(t, "SELECT departmentId, gender, count(*) FROM employee GROUP BY 1, 2")
	if len(sel.GroupBy) != 2 || sel.GroupBy[0].Position != 1 || sel.GroupBy[1].Position != 2 {
		t.Errorf("group by = %v", sel.GroupBy)
	}
	c := sel.Items[2].Expr.(*expr.AggCall)
	if !c.Star {
		t.Error("count(*) not parsed")
	}
}

func TestParseWindowAggregate(t *testing.T) {
	sel := mustSelect(t, "SELECT state, city, sum(salesAmt) OVER (PARTITION BY state, city) FROM sales")
	a := sel.Items[2].Expr.(*expr.AggCall)
	if a.Over == nil || len(a.Over.PartitionBy) != 2 || a.Over.PartitionBy[1] != "city" {
		t.Errorf("over = %+v", a.Over)
	}
}

func TestParseWindowWithEmptyPartition(t *testing.T) {
	sel := mustSelect(t, "SELECT sum(a) OVER () FROM F")
	a := sel.Items[0].Expr.(*expr.AggCall)
	if a.Over == nil || len(a.Over.PartitionBy) != 0 {
		t.Errorf("over = %+v", a.Over)
	}
}

func TestParseJoins(t *testing.T) {
	sel := mustSelect(t, `SELECT F0.D1, F1.A FROM F0
		LEFT OUTER JOIN F1 ON F0.D1 = F1.D1
		LEFT JOIN F2 ON F1.D1 = F2.D1
		JOIN F3 ON F2.D1 = F3.D1`)
	if len(sel.From) != 4 {
		t.Fatalf("from elems = %d", len(sel.From))
	}
	if sel.From[1].Join != JoinLeftOuter || sel.From[2].Join != JoinLeftOuter {
		t.Error("LEFT [OUTER] JOIN forms must both be left outer")
	}
	if sel.From[3].Join != JoinInner {
		t.Error("bare JOIN must be inner")
	}
	if sel.From[1].On == nil || sel.From[1].On.String() != "(F0.D1 = F1.D1)" {
		t.Errorf("on = %v", sel.From[1].On)
	}
}

func TestParseCommaJoinWithAliases(t *testing.T) {
	sel := mustSelect(t, "SELECT a.x, b.y FROM Fj a, Fk AS b WHERE a.x = b.x")
	if len(sel.From) != 2 || sel.From[0].Table.Alias != "a" || sel.From[1].Table.Alias != "b" {
		t.Errorf("from = %v", sel.From)
	}
	if sel.From[1].Join != JoinCross {
		t.Error("comma join must be cross")
	}
}

func TestParseCaseExpression(t *testing.T) {
	sel := mustSelect(t, `SELECT CASE WHEN a <> 0 THEN b / a ELSE NULL END FROM F`)
	c, ok := sel.Items[0].Expr.(*expr.Case)
	if !ok {
		t.Fatalf("item = %T", sel.Items[0].Expr)
	}
	if len(c.Whens) != 1 || c.Else == nil {
		t.Errorf("case = %v", c)
	}
}

func TestParseAggOverCase(t *testing.T) {
	// The Hpct-direct generated form: sum(CASE…)/sum(A).
	sel := mustSelect(t, `SELECT D1,
		sum(CASE WHEN d = 'Mo' THEN A ELSE 0 END) / sum(A)
	FROM F GROUP BY D1`)
	div, ok := sel.Items[1].Expr.(*expr.BinaryOp)
	if !ok || div.Op != "/" {
		t.Fatalf("item = %v", sel.Items[1].Expr)
	}
	if _, ok := div.Left.(*expr.AggCall); !ok {
		t.Error("left of / must be an aggregate")
	}
}

func TestParseInsertValues(t *testing.T) {
	s, err := Parse("INSERT INTO F (a, b) VALUES (1, 'x'), (2, NULL)")
	if err != nil {
		t.Fatal(err)
	}
	ins := s.(*Insert)
	if ins.Table != "F" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Errorf("insert = %+v", ins)
	}
	if ins.Rows[1][1].String() != "NULL" {
		t.Errorf("row value = %v", ins.Rows[1][1])
	}
}

func TestParseInsertSelect(t *testing.T) {
	s, err := Parse("INSERT INTO Fk SELECT D1, D2, sum(A) FROM F GROUP BY D1, D2")
	if err != nil {
		t.Fatal(err)
	}
	ins := s.(*Insert)
	if ins.Query == nil || len(ins.Query.GroupBy) != 2 {
		t.Errorf("insert-select = %+v", ins)
	}
}

func TestParseUpdateCrossTable(t *testing.T) {
	// The paper's UPDATE strategy statement.
	s, err := Parse(`UPDATE Fk FROM Fj SET A = CASE WHEN Fj.A <> 0 THEN Fk.A / Fj.A ELSE NULL END
		WHERE Fk.D1 = Fj.D1 AND Fk.D2 = Fj.D2`)
	if err != nil {
		t.Fatal(err)
	}
	u := s.(*Update)
	if u.Table != "Fk" || len(u.From) != 1 || u.From[0].Name != "Fj" {
		t.Errorf("update = %+v", u)
	}
	if len(u.Set) != 1 || u.Set[0].Column != "A" {
		t.Errorf("set = %v", u.Set)
	}
	if u.Where == nil {
		t.Error("where missing")
	}
}

func TestParseSimpleUpdate(t *testing.T) {
	s, err := Parse("UPDATE F SET a = 1, b = b + 1 WHERE b IS NOT NULL")
	if err != nil {
		t.Fatal(err)
	}
	u := s.(*Update)
	if len(u.Set) != 2 || u.Set[1].Value.String() != "(b + 1)" {
		t.Errorf("set = %v", u.Set)
	}
}

func TestParseCreateTable(t *testing.T) {
	s, err := Parse(`CREATE TABLE FH (store INTEGER, "Mo" REAL, "Tu" REAL, name VARCHAR(20), ok BOOLEAN, PRIMARY KEY(store))`)
	if err != nil {
		t.Fatal(err)
	}
	ct := s.(*CreateTable)
	if len(ct.Schema) != 5 {
		t.Fatalf("schema = %v", ct.Schema)
	}
	if ct.Schema[1].Name != "Mo" || ct.Schema[1].Type != storage.TypeFloat {
		t.Errorf("quoted column = %+v", ct.Schema[1])
	}
	if ct.Schema[3].Type != storage.TypeString || ct.Schema[4].Type != storage.TypeBool {
		t.Errorf("types = %+v", ct.Schema)
	}
	if len(ct.PrimaryKey) != 1 || ct.PrimaryKey[0] != "store" {
		t.Errorf("pk = %v", ct.PrimaryKey)
	}
}

func TestParseCreateTableTrailingPK(t *testing.T) {
	s, err := Parse("CREATE TABLE FH (D1 INTEGER, v REAL) PRIMARY KEY(D1)")
	if err != nil {
		t.Fatal(err)
	}
	if pk := s.(*CreateTable).PrimaryKey; len(pk) != 1 || pk[0] != "D1" {
		t.Errorf("pk = %v", pk)
	}
}

func TestParseCreateIndexAndDrop(t *testing.T) {
	s, err := Parse("CREATE INDEX ix ON Fk (D1, D2)")
	if err != nil {
		t.Fatal(err)
	}
	ci := s.(*CreateIndex)
	if ci.Name != "ix" || ci.Table != "Fk" || len(ci.Columns) != 2 {
		t.Errorf("create index = %+v", ci)
	}
	s, err = Parse("DROP TABLE IF EXISTS Fk")
	if err != nil {
		t.Fatal(err)
	}
	if d := s.(*DropTable); !d.IfExists || d.Name != "Fk" {
		t.Errorf("drop = %+v", d)
	}
}

func TestParseAllScript(t *testing.T) {
	stmts, err := ParseAll(`
		-- build the fine aggregate
		CREATE TABLE Fk (D1 INTEGER, A REAL);
		INSERT INTO Fk SELECT D1, sum(A) FROM F GROUP BY D1;
		SELECT * FROM Fk;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("stmts = %d", len(stmts))
	}
}

func TestParseComments(t *testing.T) {
	sel := mustSelect(t, "SELECT a /* FV = Fk */ FROM F -- trailing\n")
	if len(sel.Items) != 1 {
		t.Errorf("items = %v", sel.Items)
	}
}

func TestParseNumberLiterals(t *testing.T) {
	e, err := parseExpr("1.5e2 + 2 - .5")
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.Eval(nil)
	if err != nil || v.Float() != 151.5 { // floateq:ok exact expected value
		t.Errorf("eval = %v %v", v, err)
	}
}

func TestParseStringEscapes(t *testing.T) {
	e, err := parseExpr("'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := e.Eval(nil); v.Str() != "it's" {
		t.Errorf("string = %q", v.Str())
	}
}

func TestParsePrecedence(t *testing.T) {
	e, err := parseExpr("1 + 2 * 3 = 7 AND NOT 1 > 2")
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.Eval(nil)
	if err != nil || !v.Bool() {
		t.Errorf("eval = %v %v", v, err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEKT 1",
		"SELECT",
		"SELECT a FROM",
		"SELECT a FROM F GROUP",
		"SELECT a FROM F WHERE",
		"SELECT Vpct(*) FROM F GROUP BY a",
		"SELECT Hpct(* BY d) FROM F",
		"SELECT sum(a BY d) OVER (PARTITION BY x) FROM F",
		"SELECT sum(a DEFAULT b) FROM F",
		"INSERT INTO F",
		"UPDATE F",
		"CREATE TABLE F ()",
		"CREATE TABLE F (a WIBBLE)",
		"DROP F",
		"SELECT a FROM F LIMIT x",
		"SELECT 'unterminated FROM F",
		`SELECT "unterminated FROM F`,
		"SELECT a FROM F /* unterminated",
		"SELECT CASE END FROM F",
		"SELECT a b c FROM F",
		"SELECT a FROM F ORDER BY 0",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseErrorPositions(t *testing.T) {
	_, err := Parse("SELECT a\nFROM F WHERE ~")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "at line 2, col 14") {
		t.Errorf("error %q lacks position info", err)
	}
	var se *SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("error %T is not a *SyntaxError", err)
	}
	if se.Line != 2 || se.Col != 14 {
		t.Errorf("SyntaxError position = %d:%d, want 2:14", se.Line, se.Col)
	}

	// Parser (not lexer) errors carry positions too.
	_, err = Parse("SELECT a FROM F GROUP BY\nORDER BY a")
	if !errors.As(err, &se) {
		t.Fatalf("error %T is not a *SyntaxError", err)
	}
	if se.Line != 2 {
		t.Errorf("parser error position = %d:%d, want line 2", se.Line, se.Col)
	}
}

func TestParsedSpans(t *testing.T) {
	sel := mustSelect(t, "SELECT state, Vpct(salesAmt BY city)\nFROM sales GROUP BY state, city")
	if got := sel.Items[0].Span.Start; got.Line != 1 || got.Col != 8 {
		t.Errorf("item 0 span = %v", sel.Items[0].Span)
	}
	agg, ok := sel.Items[1].Expr.(*expr.AggCall)
	if !ok {
		t.Fatalf("item 1 = %T", sel.Items[1].Expr)
	}
	if agg.Span.Start.Line != 1 || agg.Span.Start.Col != 15 {
		t.Errorf("agg span = %v", agg.Span)
	}
	if len(agg.BySpans) != 1 || agg.BySpans[0].Start.Col != 32 {
		t.Errorf("BY spans = %v", agg.BySpans)
	}
	if len(sel.GroupBy) != 2 || sel.GroupBy[1].Span.Start.Line != 2 {
		t.Errorf("group key spans = %v, %v", sel.GroupBy[0].Span, sel.GroupBy[1].Span)
	}
	if sel.From[0].Table.Span.Start.Line != 2 || sel.From[0].Table.Span.Start.Col != 6 {
		t.Errorf("table span = %v", sel.From[0].Table.Span)
	}
}

func TestStatementStringRoundTrip(t *testing.T) {
	// String() output must re-parse to the same String(). This keeps the
	// code generator's emitted SQL genuinely parseable.
	srcs := []string{
		"SELECT state, city, vpct(salesAmt BY city) FROM sales GROUP BY state, city",
		"SELECT store, hpct(salesAmt BY dweek), sum(salesAmt) FROM sales GROUP BY store ORDER BY store LIMIT 5",
		"SELECT DISTINCT Dh, Dk FROM FV",
		"INSERT INTO Fj SELECT D1, sum(A) FROM Fk GROUP BY D1",
		"INSERT INTO F (a, b) VALUES (1, 'x''y')",
		"UPDATE Fk FROM Fj SET A = CASE WHEN (Fj.A <> 0) THEN (Fk.A / Fj.A) ELSE NULL END WHERE (Fk.D1 = Fj.D1)",
		`CREATE TABLE FH (D1 INTEGER, "Mo" REAL, PRIMARY KEY(D1))`,
		"DROP TABLE IF EXISTS FV",
		"CREATE INDEX ix ON Fk (D1, D2)",
		"SELECT F0.D1, F1.A FROM F0 LEFT OUTER JOIN F1 ON (F0.D1 = F1.D1)",
		"SELECT sum(salesAmt) OVER (PARTITION BY state) FROM sales",
		"SELECT max(1 BY deptId DEFAULT 0) FROM t GROUP BY tid",
		"SELECT a FROM F WHERE a IS NOT NULL HAVING (sum(a) > 0)",
	}
	for _, src := range srcs {
		s1, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		text := s1.String()
		s2, err := Parse(text)
		if err != nil {
			t.Errorf("re-Parse(%q): %v", text, err)
			continue
		}
		if s2.String() != text {
			t.Errorf("round trip unstable:\n  first  %q\n  second %q", text, s2.String())
		}
	}
}

func TestParseInBetweenLike(t *testing.T) {
	sel := mustSelect(t, `SELECT a FROM F WHERE a IN (1, 2, 3) AND b NOT IN ('x')
		AND c BETWEEN 1 AND 10 AND d NOT BETWEEN 0 AND 1
		AND e LIKE 'San%' AND f NOT LIKE '%x%'`)
	if sel.Where == nil {
		t.Fatal("where missing")
	}
	text := sel.Where.String()
	for _, frag := range []string{"IN (1, 2, 3)", "NOT IN ('x')", "BETWEEN 1 AND 10",
		"NOT BETWEEN 0 AND 1", "LIKE 'San%'", "NOT LIKE '%x%'"} {
		if !strings.Contains(text, frag) {
			t.Errorf("where %q lacks %q", text, frag)
		}
	}
	// Round trip.
	re, err := Parse(sel.String())
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if re.String() != sel.String() {
		t.Errorf("round trip unstable:\n%s\n%s", sel.String(), re.String())
	}
}

func TestParseNotInErrors(t *testing.T) {
	// Prefix NOT still works as plain negation.
	e, err := parseExpr("NOT 1 = 2")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := e.Eval(nil); !v.Bool() {
		t.Error("NOT 1=2 must be true")
	}
	if _, err := Parse("SELECT a FROM F WHERE a IN ()"); err == nil {
		t.Error("empty IN list must fail")
	}
	if _, err := Parse("SELECT a FROM F WHERE a BETWEEN 1"); err == nil {
		t.Error("BETWEEN without AND must fail")
	}
}

func TestParseExplainAnalyze(t *testing.T) {
	stmt, err := Parse("EXPLAIN SELECT a FROM f")
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := stmt.(*Explain)
	if !ok || ex.Analyze {
		t.Fatalf("EXPLAIN parsed as %T analyze=%v", stmt, ex.Analyze)
	}
	if got := ex.String(); got != "EXPLAIN SELECT a FROM f" {
		t.Errorf("String() = %q", got)
	}

	stmt, err = Parse("EXPLAIN ANALYZE SELECT a, sum(b) FROM f GROUP BY a")
	if err != nil {
		t.Fatal(err)
	}
	ex = stmt.(*Explain)
	if !ex.Analyze {
		t.Error("ANALYZE flag not set")
	}
	// The rendered form must re-parse to the same statement.
	re, err := Parse(ex.String())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if re.(*Explain).String() != ex.String() {
		t.Errorf("round trip unstable: %q vs %q", re.(*Explain).String(), ex.String())
	}

	if _, err := Parse("EXPLAIN ANALYZE INSERT INTO f VALUES (1)"); err == nil {
		t.Error("EXPLAIN ANALYZE of non-SELECT must fail")
	}
	// ANALYZE stays usable as a quoted identifier.
	if _, err := Parse(`SELECT "ANALYZE" FROM f`); err != nil {
		t.Errorf("quoted ANALYZE identifier: %v", err)
	}
}
