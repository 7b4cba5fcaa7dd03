package engine

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// newTestEngine loads the paper's Table 1 fact table.
func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(storage.NewCatalog())
	mustExec(t, e, `CREATE TABLE sales (RID INTEGER, state VARCHAR, city VARCHAR, salesAmt INTEGER)`)
	mustExec(t, e, `INSERT INTO sales VALUES
		(1, 'CA', 'San Francisco', 13),
		(2, 'CA', 'San Francisco', 3),
		(3, 'CA', 'San Francisco', 67),
		(4, 'CA', 'Los Angeles', 23),
		(5, 'TX', 'Houston', 5),
		(6, 'TX', 'Houston', 35),
		(7, 'TX', 'Houston', 10),
		(8, 'TX', 'Houston', 14),
		(9, 'TX', 'Dallas', 53),
		(10, 'TX', 'Dallas', 32)`)
	return e
}

func mustExec(t testing.TB, e *Engine, sql string) *Result {
	t.Helper()
	r, err := e.ExecSQL(sql)
	if err != nil {
		t.Fatalf("ExecSQL(%s): %v", sql, err)
	}
	return r
}

func wantErr(t *testing.T, e *Engine, sql string, frag string) {
	t.Helper()
	_, err := e.ExecSQL(sql)
	if err == nil {
		t.Fatalf("ExecSQL(%s): expected error containing %q", sql, frag)
	}
	if frag != "" && !strings.Contains(err.Error(), frag) {
		t.Fatalf("ExecSQL(%s): error %q does not contain %q", sql, err, frag)
	}
}

func TestPlainSelectAndWhere(t *testing.T) {
	e := newTestEngine(t)
	r := mustExec(t, e, "SELECT city, salesAmt FROM sales WHERE state = 'TX' AND salesAmt >= 14")
	if len(r.Rows) != 4 { // Houston 35, Houston 14, Dallas 53, Dallas 32
		t.Fatalf("rows = %d: %v", len(r.Rows), r.Rows)
	}
	if r.Columns[0] != "city" || r.Columns[1] != "salesAmt" {
		t.Errorf("columns = %v", r.Columns)
	}
}

func TestSelectExpressionAndAlias(t *testing.T) {
	e := newTestEngine(t)
	r := mustExec(t, e, "SELECT salesAmt * 2 AS double, RID FROM sales WHERE RID = 1")
	if r.Columns[0] != "double" {
		t.Errorf("alias = %v", r.Columns)
	}
	if r.Rows[0][0].Int() != 26 {
		t.Errorf("value = %v", r.Rows[0][0])
	}
}

func TestSelectStar(t *testing.T) {
	e := newTestEngine(t)
	r := mustExec(t, e, "SELECT * FROM sales WHERE RID = 5")
	if len(r.Columns) != 4 || r.Columns[3] != "salesAmt" {
		t.Errorf("columns = %v", r.Columns)
	}
	if r.Rows[0][2].Str() != "Houston" {
		t.Errorf("row = %v", r.Rows[0])
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	e := newTestEngine(t)
	r := mustExec(t, e, "SELECT 1 + 2, 'x'")
	if len(r.Rows) != 1 || r.Rows[0][0].Int() != 3 || r.Rows[0][1].Str() != "x" {
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestGroupBySum(t *testing.T) {
	e := newTestEngine(t)
	r := mustExec(t, e, "SELECT state, sum(salesAmt) FROM sales GROUP BY state ORDER BY state")
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Rows[0][0].Str() != "CA" || r.Rows[0][1].Int() != 106 {
		t.Errorf("CA = %v", r.Rows[0])
	}
	if r.Rows[1][0].Str() != "TX" || r.Rows[1][1].Int() != 149 {
		t.Errorf("TX = %v", r.Rows[1])
	}
}

func TestGroupByTwoLevels(t *testing.T) {
	e := newTestEngine(t)
	r := mustExec(t, e, "SELECT state, city, sum(salesAmt) FROM sales GROUP BY state, city ORDER BY state, city")
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %v", r.Rows)
	}
	// CA/LA=23, CA/SF=83, TX/Dallas=85, TX/Houston=64
	wants := []int64{23, 83, 85, 64}
	for i, w := range wants {
		if r.Rows[i][2].Int() != w {
			t.Errorf("row %d = %v, want sum %d", i, r.Rows[i], w)
		}
	}
}

func TestGroupByPosition(t *testing.T) {
	e := newTestEngine(t)
	r := mustExec(t, e, "SELECT state, count(*) FROM sales GROUP BY 1 ORDER BY 1")
	if len(r.Rows) != 2 || r.Rows[0][1].Int() != 4 || r.Rows[1][1].Int() != 6 {
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestAggregateFunctions(t *testing.T) {
	e := newTestEngine(t)
	r := mustExec(t, e, `SELECT count(*), count(salesAmt), sum(salesAmt), avg(salesAmt),
		min(salesAmt), max(salesAmt), count(DISTINCT state) FROM sales`)
	row := r.Rows[0]
	if row[0].Int() != 10 || row[1].Int() != 10 || row[2].Int() != 255 {
		t.Errorf("counts/sum = %v", row)
	}
	if math.Abs(row[3].Float()-25.5) > 1e-9 {
		t.Errorf("avg = %v", row[3])
	}
	if row[4].Int() != 3 || row[5].Int() != 67 || row[6].Int() != 2 {
		t.Errorf("min/max/distinct = %v", row)
	}
}

func TestAggregateNullSemantics(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE t (g INTEGER, a INTEGER)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 5), (1, NULL), (2, NULL)")
	r := mustExec(t, e, "SELECT g, sum(a), count(a), count(*), avg(a), min(a) FROM t GROUP BY g ORDER BY g")
	g1, g2 := r.Rows[0], r.Rows[1]
	if g1[1].Int() != 5 || g1[2].Int() != 1 || g1[3].Int() != 2 {
		t.Errorf("group 1 = %v", g1)
	}
	// All-NULL group: sum/avg/min are NULL, count(a)=0, count(*)=1.
	if !g2[1].IsNull() || g2[2].Int() != 0 || g2[3].Int() != 1 || !g2[4].IsNull() || !g2[5].IsNull() {
		t.Errorf("group 2 = %v", g2)
	}
}

func TestGlobalAggregateOnEmptyTable(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE t (a INTEGER)")
	r := mustExec(t, e, "SELECT count(*), sum(a) FROM t")
	if len(r.Rows) != 1 || r.Rows[0][0].Int() != 0 || !r.Rows[0][1].IsNull() {
		t.Errorf("rows = %v", r.Rows)
	}
	// But a grouped aggregate over empty input yields no rows.
	r = mustExec(t, e, "SELECT a, count(*) FROM t GROUP BY a")
	if len(r.Rows) != 0 {
		t.Errorf("grouped rows = %v", r.Rows)
	}
}

func TestExpressionOverAggregates(t *testing.T) {
	e := newTestEngine(t)
	// The Hpct-direct shape: sum(CASE)/sum(A).
	r := mustExec(t, e, `SELECT state,
		sum(CASE WHEN city = 'Houston' THEN salesAmt ELSE 0 END) / sum(salesAmt)
		FROM sales GROUP BY state ORDER BY state`)
	if !r.Rows[0][1].IsNull() && r.Rows[0][1].Float() != 0 { // floateq:ok exact expected value
		t.Errorf("CA Houston share = %v", r.Rows[0][1])
	}
	got := r.Rows[1][1].Float()
	if math.Abs(got-64.0/149.0) > 1e-9 {
		t.Errorf("TX Houston share = %v", got)
	}
}

func TestGroupColumnNotInGroupBy(t *testing.T) {
	e := newTestEngine(t)
	wantErr(t, e, "SELECT city, sum(salesAmt) FROM sales GROUP BY state", "GROUP BY")
}

func TestHaving(t *testing.T) {
	e := newTestEngine(t)
	r := mustExec(t, e, "SELECT city, sum(salesAmt) FROM sales GROUP BY city HAVING sum(salesAmt) > 64 ORDER BY city")
	if len(r.Rows) != 2 { // SF=83, Dallas=85
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestDistinct(t *testing.T) {
	e := newTestEngine(t)
	r := mustExec(t, e, "SELECT DISTINCT state FROM sales ORDER BY state")
	if len(r.Rows) != 2 || r.Rows[0][0].Str() != "CA" {
		t.Errorf("rows = %v", r.Rows)
	}
	r = mustExec(t, e, "SELECT DISTINCT state, city FROM sales")
	if len(r.Rows) != 4 {
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestOrderByDescAndLimit(t *testing.T) {
	e := newTestEngine(t)
	r := mustExec(t, e, "SELECT RID, salesAmt FROM sales ORDER BY salesAmt DESC, RID LIMIT 3")
	if len(r.Rows) != 3 || r.Rows[0][1].Int() != 67 || r.Rows[1][1].Int() != 53 {
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestOrderByAlias(t *testing.T) {
	e := newTestEngine(t)
	r := mustExec(t, e, "SELECT salesAmt AS amt FROM sales ORDER BY amt LIMIT 1")
	if r.Rows[0][0].Int() != 3 {
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestCommaJoinBecomesHashJoin(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE totals (state VARCHAR, total INTEGER)")
	mustExec(t, e, "INSERT INTO totals VALUES ('CA', 106), ('TX', 149)")
	r := mustExec(t, e, `SELECT s.city, s.salesAmt, t.total
		FROM sales s, totals t WHERE s.state = t.state AND s.RID = 1`)
	if len(r.Rows) != 1 || r.Rows[0][2].Int() != 106 {
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestJoinPreservesResidualWhere(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE totals (state VARCHAR, total INTEGER)")
	mustExec(t, e, "INSERT INTO totals VALUES ('CA', 106), ('TX', 149)")
	r := mustExec(t, e, `SELECT s.RID FROM sales s, totals t
		WHERE s.state = t.state AND t.total > 140`)
	if len(r.Rows) != 6 { // only TX rows
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestLeftOuterJoin(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE F0 (d INTEGER)")
	mustExec(t, e, "INSERT INTO F0 VALUES (1), (2), (3)")
	mustExec(t, e, "CREATE TABLE F1 (d INTEGER, a INTEGER)")
	mustExec(t, e, "INSERT INTO F1 VALUES (1, 10), (3, 30)")
	r := mustExec(t, e, `SELECT F0.d, F1.a FROM F0 LEFT OUTER JOIN F1 ON F0.d = F1.d ORDER BY 1`)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %v", r.Rows)
	}
	if !r.Rows[1][1].IsNull() {
		t.Errorf("missing combination must be NULL: %v", r.Rows[1])
	}
	if r.Rows[0][1].Int() != 10 || r.Rows[2][1].Int() != 30 {
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestChainedLeftOuterJoins(t *testing.T) {
	// The SPJ strategy's assembly shape: F0 LEFT JOIN F1 LEFT JOIN F2.
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE F0 (d INTEGER); INSERT INTO F0 VALUES (1), (2)")
	mustExec(t, e, "CREATE TABLE F1 (d INTEGER, a INTEGER); INSERT INTO F1 VALUES (1, 10)")
	mustExec(t, e, "CREATE TABLE F2 (d INTEGER, a INTEGER); INSERT INTO F2 VALUES (2, 20)")
	r := mustExec(t, e, `SELECT F0.d, F1.a, F2.a FROM F0
		LEFT OUTER JOIN F1 ON F0.d = F1.d
		LEFT OUTER JOIN F2 ON F0.d = F2.d ORDER BY 1`)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Rows[0][1].Int() != 10 || !r.Rows[0][2].IsNull() {
		t.Errorf("row 0 = %v", r.Rows[0])
	}
	if !r.Rows[1][1].IsNull() || r.Rows[1][2].Int() != 20 {
		t.Errorf("row 1 = %v", r.Rows[1])
	}
}

func TestInnerJoinOn(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE a (x INTEGER); INSERT INTO a VALUES (1), (2)")
	mustExec(t, e, "CREATE TABLE b (x INTEGER, y INTEGER); INSERT INTO b VALUES (2, 20), (3, 30)")
	r := mustExec(t, e, "SELECT a.x, b.y FROM a JOIN b ON a.x = b.x")
	if len(r.Rows) != 1 || r.Rows[0][1].Int() != 20 {
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestJoinOnNullNeverMatches(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE a (x INTEGER); INSERT INTO a VALUES (NULL), (1)")
	mustExec(t, e, "CREATE TABLE b (x INTEGER); INSERT INTO b VALUES (NULL), (1)")
	r := mustExec(t, e, "SELECT a.x, b.x FROM a JOIN b ON a.x = b.x")
	if len(r.Rows) != 1 || r.Rows[0][0].Int() != 1 {
		t.Errorf("NULL keys joined: %v", r.Rows)
	}
	// Outer join keeps the NULL-keyed probe row, unmatched.
	r = mustExec(t, e, "SELECT a.x, b.x FROM a LEFT OUTER JOIN b ON a.x = b.x ORDER BY 1")
	if len(r.Rows) != 2 || !r.Rows[0][1].IsNull() {
		t.Errorf("outer join rows = %v", r.Rows)
	}
}

func TestNonEquiJoinFallsBackToNestedLoop(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE a (x INTEGER); INSERT INTO a VALUES (1), (5)")
	mustExec(t, e, "CREATE TABLE b (y INTEGER); INSERT INTO b VALUES (2), (4)")
	r := mustExec(t, e, "SELECT a.x, b.y FROM a JOIN b ON a.x < b.y ORDER BY 1, 2")
	if len(r.Rows) != 2 || r.Rows[0][1].Int() != 2 || r.Rows[1][1].Int() != 4 {
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestCrossJoinWithoutCondition(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE a (x INTEGER); INSERT INTO a VALUES (1), (2)")
	mustExec(t, e, "CREATE TABLE b (y INTEGER); INSERT INTO b VALUES (10), (20)")
	r := mustExec(t, e, "SELECT x, y FROM a, b")
	if len(r.Rows) != 4 {
		t.Errorf("cross product rows = %v", r.Rows)
	}
}

func TestJoinUsesIndexEquivalence(t *testing.T) {
	// Results must be identical with and without an index on the build side.
	run := func(withIndex bool) [][]value.Value {
		e := newTestEngine(t)
		mustExec(t, e, "CREATE TABLE totals (state VARCHAR, total INTEGER)")
		mustExec(t, e, "INSERT INTO totals VALUES ('CA', 106), ('TX', 149)")
		if withIndex {
			mustExec(t, e, "CREATE INDEX ix ON totals (state)")
		}
		r := mustExec(t, e, `SELECT s.RID, t.total FROM sales s, totals t
			WHERE s.state = t.state ORDER BY s.RID`)
		return r.Rows
	}
	a, b := run(false), run(true)
	if len(a) != len(b) || len(a) != 10 {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if value.Compare(a[i][j], b[i][j]) != 0 {
				t.Fatalf("row %d differs: %v vs %v", i, a[i], b[i])
			}
		}
	}
}

func TestWindowAggregate(t *testing.T) {
	e := newTestEngine(t)
	r := mustExec(t, e, `SELECT DISTINCT state, city,
		sum(salesAmt) OVER (PARTITION BY state, city) /
		sum(salesAmt) OVER (PARTITION BY state)
		FROM sales ORDER BY state, city`)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %v", r.Rows)
	}
	// CA/Los Angeles = 23/106, CA/San Francisco = 83/106.
	if math.Abs(r.Rows[0][2].Float()-23.0/106.0) > 1e-9 {
		t.Errorf("LA pct = %v", r.Rows[0][2])
	}
	if math.Abs(r.Rows[1][2].Float()-83.0/106.0) > 1e-9 {
		t.Errorf("SF pct = %v", r.Rows[1][2])
	}
}

func TestWindowEmptyPartitionIsGlobal(t *testing.T) {
	e := newTestEngine(t)
	r := mustExec(t, e, "SELECT DISTINCT sum(salesAmt) OVER () FROM sales")
	if len(r.Rows) != 1 || r.Rows[0][0].Int() != 255 {
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestWindowMixedWithGroupByRejected(t *testing.T) {
	e := newTestEngine(t)
	wantErr(t, e, "SELECT state, sum(salesAmt) OVER (PARTITION BY state) FROM sales GROUP BY state", "GROUP BY")
}

func TestHorizontalAggregateRejected(t *testing.T) {
	e := newTestEngine(t)
	wantErr(t, e, "SELECT state, vpct(salesAmt BY city) FROM sales GROUP BY state, city", "rewritten")
	wantErr(t, e, "SELECT state, hpct(salesAmt BY city) FROM sales GROUP BY state", "rewritten")
	wantErr(t, e, "SELECT state, sum(salesAmt BY city) FROM sales GROUP BY state", "rewritten")
}

func TestInsertSelect(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE Fk (state VARCHAR, city VARCHAR, A REAL)")
	r := mustExec(t, e, "INSERT INTO Fk SELECT state, city, sum(salesAmt) FROM sales GROUP BY state, city")
	if r.Affected != 4 {
		t.Errorf("affected = %d", r.Affected)
	}
	r2 := mustExec(t, e, "SELECT A FROM Fk WHERE city = 'Houston'")
	if len(r2.Rows) != 1 || r2.Rows[0][0].Float() != 64 { // floateq:ok exact expected value
		t.Errorf("rows = %v", r2.Rows)
	}
}

func TestInsertColumnListAndDefaults(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE t (a INTEGER, b VARCHAR, c REAL)")
	mustExec(t, e, "INSERT INTO t (c, a) VALUES (1.5, 7)")
	r := mustExec(t, e, "SELECT a, b, c FROM t")
	if r.Rows[0][0].Int() != 7 || !r.Rows[0][1].IsNull() || r.Rows[0][2].Float() != 1.5 { // floateq:ok exact expected value
		t.Errorf("row = %v", r.Rows[0])
	}
}

func TestInsertErrors(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE t (a INTEGER)")
	wantErr(t, e, "INSERT INTO t VALUES (1, 2)", "expects 1 values")
	wantErr(t, e, "INSERT INTO t (bogus) VALUES (1)", "no column")
	wantErr(t, e, "INSERT INTO nosuch VALUES (1)", "no table")
	wantErr(t, e, "INSERT INTO t VALUES ('x')", "VARCHAR")
}

func TestUpdateSingleTable(t *testing.T) {
	e := newTestEngine(t)
	r := mustExec(t, e, "UPDATE sales SET salesAmt = salesAmt * 10 WHERE state = 'CA'")
	if r.Affected != 4 {
		t.Errorf("affected = %d", r.Affected)
	}
	r2 := mustExec(t, e, "SELECT sum(salesAmt) FROM sales")
	if r2.Rows[0][0].Int() != 106*10+149 {
		t.Errorf("sum = %v", r2.Rows[0][0])
	}
}

func TestUpdateUsesPreUpdateValues(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE t (a INTEGER, b INTEGER); INSERT INTO t VALUES (1, 10)")
	mustExec(t, e, "UPDATE t SET a = b, b = a")
	r := mustExec(t, e, "SELECT a, b FROM t")
	if r.Rows[0][0].Int() != 10 || r.Rows[0][1].Int() != 1 {
		t.Errorf("swap failed: %v", r.Rows[0])
	}
}

func TestUpdateCrossTable(t *testing.T) {
	// The paper's UPDATE-based division: Fk.A := Fk.A / Fj.A.
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE Fk (state VARCHAR, city VARCHAR, A REAL)")
	mustExec(t, e, `INSERT INTO Fk VALUES ('CA','SF',83),('CA','LA',23),('TX','H',64),('TX','D',85)`)
	mustExec(t, e, "CREATE TABLE Fj (state VARCHAR, A REAL)")
	mustExec(t, e, "INSERT INTO Fj VALUES ('CA',106),('TX',149)")
	r := mustExec(t, e, `UPDATE Fk FROM Fj
		SET A = CASE WHEN Fj.A <> 0 THEN Fk.A / Fj.A ELSE NULL END
		WHERE Fk.state = Fj.state`)
	if r.Affected != 4 {
		t.Errorf("affected = %d", r.Affected)
	}
	r2 := mustExec(t, e, "SELECT A FROM Fk WHERE city = 'SF'")
	if math.Abs(r2.Rows[0][0].Float()-83.0/106.0) > 1e-9 {
		t.Errorf("SF pct = %v", r2.Rows[0][0])
	}
}

func TestUpdateCrossTableZeroDivisorYieldsNull(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE Fk (d INTEGER, A REAL); INSERT INTO Fk VALUES (1, 5)")
	mustExec(t, e, "CREATE TABLE Fj (d INTEGER, A REAL); INSERT INTO Fj VALUES (1, 0)")
	mustExec(t, e, `UPDATE Fk FROM Fj SET A = CASE WHEN Fj.A <> 0 THEN Fk.A / Fj.A ELSE NULL END
		WHERE Fk.d = Fj.d`)
	r := mustExec(t, e, "SELECT A FROM Fk")
	if !r.Rows[0][0].IsNull() {
		t.Errorf("division by zero = %v, want NULL", r.Rows[0][0])
	}
}

func TestUpdateCrossTableErrors(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE a (x INTEGER); CREATE TABLE b (y INTEGER); CREATE TABLE c (z INTEGER)")
	wantErr(t, e, "UPDATE a FROM b, c SET x = 1 WHERE a.x = b.y", "at most one")
}

func TestUpdateCrossTableGlobalTotal(t *testing.T) {
	// The j=0 Vpct case: Fj is one global-total row joined cartesian-style.
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE Fk (g INTEGER, A REAL); INSERT INTO Fk VALUES (1, 25), (2, 75)")
	mustExec(t, e, "CREATE TABLE Fj (A REAL); INSERT INTO Fj VALUES (100)")
	r := mustExec(t, e, "UPDATE Fk FROM Fj SET A = Fk.A / Fj.A")
	if r.Affected != 2 {
		t.Errorf("affected = %d", r.Affected)
	}
	res := mustExec(t, e, "SELECT A FROM Fk ORDER BY g")
	if res.Rows[0][0].Float() != 0.25 || res.Rows[1][0].Float() != 0.75 { // floateq:ok exact expected value
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestCreateDropTable(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE t (a INTEGER, PRIMARY KEY(a))")
	wantErr(t, e, "CREATE TABLE t (a INTEGER)", "already exists")
	mustExec(t, e, "DROP TABLE t")
	wantErr(t, e, "DROP TABLE t", "no table")
	mustExec(t, e, "DROP TABLE IF EXISTS t") // no error
	wantErr(t, e, "CREATE TABLE bad (a INTEGER, PRIMARY KEY(zz))", "primary key")
}

func TestCreateIndexStatement(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE INDEX ix_state ON sales (state)")
	tab, _ := e.Catalog().Get("sales")
	if tab.IndexOn([]string{"state"}) == nil {
		t.Error("index not created")
	}
	wantErr(t, e, "CREATE INDEX ix2 ON nosuch (a)", "no table")
	wantErr(t, e, "CREATE INDEX ix_state ON sales (city)", "already exists")
}

func TestAmbiguousColumn(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE a (x INTEGER); CREATE TABLE b (x INTEGER)")
	mustExec(t, e, "INSERT INTO a VALUES (1); INSERT INTO b VALUES (1)")
	wantErr(t, e, "SELECT x FROM a, b WHERE a.x = b.x", "ambiguous")
}

func TestSelfJoinWithAliases(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE t (x INTEGER, y INTEGER); INSERT INTO t VALUES (1, 2), (2, 3)")
	r := mustExec(t, e, "SELECT p.x, q.y FROM t p, t q WHERE p.y = q.x")
	if len(r.Rows) != 1 || r.Rows[0][0].Int() != 1 || r.Rows[0][1].Int() != 3 {
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestAggregateInWhereRejected(t *testing.T) {
	e := newTestEngine(t)
	wantErr(t, e, "SELECT state FROM sales WHERE sum(salesAmt) > 10 GROUP BY state", "WHERE")
}

// TestAggregateUnderAndRejected pins the binder's two aggregate checks on
// trees where the aggregate sits under an AND: expr.Walk reaches every node
// of a bound tree, so the position of the conjunct cannot matter — and the
// error comes at bind time, whether or not a row would have reached it.
func TestAggregateUnderAndRejected(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE t (a INTEGER, b INTEGER); INSERT INTO t VALUES (1, 2)")
	for sql, frag := range map[string]string{
		"SELECT a FROM t WHERE sum(b) > 1":                                "aggregates are not allowed in WHERE",
		"SELECT a FROM t WHERE sum(b) > 1 AND a = 1":                      "aggregates are not allowed in WHERE",
		"SELECT a FROM t WHERE a = 2 AND sum(b) > 1":                      "aggregates are not allowed in WHERE",
		"SELECT a, count(*) FROM t WHERE a = 2 AND sum(b) > 1 GROUP BY a": "aggregates are not allowed in WHERE",
		"SELECT sum(CASE WHEN a = 1 AND sum(b) > 1 THEN 1 END) FROM t":    "nested aggregate",
	} {
		wantErr(t, e, sql, frag)
	}
}

func TestDistinctOnAggregateArgOnlyForCount(t *testing.T) {
	e := newTestEngine(t)
	wantErr(t, e, "SELECT sum(DISTINCT salesAmt) FROM sales", "DISTINCT")
}

func TestExecSQLReturnsLastResult(t *testing.T) {
	e := New(storage.NewCatalog())
	r := mustExec(t, e, "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1); SELECT a FROM t")
	if len(r.Rows) != 1 || r.Rows[0][0].Int() != 1 {
		t.Errorf("last result = %+v", r)
	}
}

func TestExecSQLErrorNamesStatement(t *testing.T) {
	e := New(storage.NewCatalog())
	_, err := e.ExecSQL("CREATE TABLE t (a INTEGER); SELECT bogus FROM t")
	if err == nil || !strings.Contains(err.Error(), "SELECT bogus") {
		t.Errorf("error = %v", err)
	}
}

func TestResultFormat(t *testing.T) {
	e := newTestEngine(t)
	r := mustExec(t, e, "SELECT state, sum(salesAmt) AS total FROM sales GROUP BY state ORDER BY state")
	s := r.Format()
	if !strings.Contains(s, "state") || !strings.Contains(s, "total") ||
		!strings.Contains(s, "106") || !strings.Contains(s, "(2 rows)") {
		t.Errorf("format = %q", s)
	}
	dml := (&Result{Affected: 3}).Format()
	if !strings.Contains(dml, "3 rows affected") {
		t.Errorf("dml format = %q", dml)
	}
}

func TestHashJoinMatchesNestedLoopReference(t *testing.T) {
	// Property: for random-ish data, the hash equijoin and a nested-loop
	// join with the same predicate agree (as multisets, here compared
	// after sorting).
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE l (k INTEGER, v INTEGER)")
	mustExec(t, e, "CREATE TABLE r (k INTEGER, w INTEGER)")
	for i := 0; i < 50; i++ {
		k := (i * 7) % 11
		mustExec(t, e, "INSERT INTO l VALUES ("+itoa(k)+", "+itoa(i)+")")
	}
	for i := 0; i < 30; i++ {
		k := (i * 5) % 13
		mustExec(t, e, "INSERT INTO r VALUES ("+itoa(k)+", "+itoa(i)+")")
	}
	hash := mustExec(t, e, "SELECT l.v, r.w FROM l, r WHERE l.k = r.k ORDER BY 1, 2")
	// Force the nested-loop path with an equivalent non-extractable
	// predicate: (l.k = r.k OR FALSE) defeats equi-extraction.
	nested := mustExec(t, e, "SELECT l.v, r.w FROM l JOIN r ON l.k = r.k OR 1 = 2 ORDER BY 1, 2")
	if len(hash.Rows) != len(nested.Rows) {
		t.Fatalf("row counts: hash %d, nested %d", len(hash.Rows), len(nested.Rows))
	}
	for i := range hash.Rows {
		for j := range hash.Rows[i] {
			if value.Compare(hash.Rows[i][j], nested.Rows[i][j]) != 0 {
				t.Fatalf("row %d differs: %v vs %v", i, hash.Rows[i], nested.Rows[i])
			}
		}
	}
}

func itoa(i int) string { return strconv.Itoa(i) }

func TestWherePredicates(t *testing.T) {
	e := newTestEngine(t)
	r := mustExec(t, e, "SELECT RID FROM sales WHERE city IN ('Dallas', 'Houston') AND salesAmt BETWEEN 10 AND 40")
	if len(r.Rows) != 4 { // Houston 35, 10, 14; Dallas 32 (BETWEEN is inclusive)
		t.Errorf("rows = %v", r.Rows)
	}
	r = mustExec(t, e, "SELECT DISTINCT city FROM sales WHERE city LIKE 'San%'")
	if len(r.Rows) != 1 || r.Rows[0][0].Str() != "San Francisco" {
		t.Errorf("rows = %v", r.Rows)
	}
	r = mustExec(t, e, "SELECT count(*) FROM sales WHERE state NOT IN ('CA')")
	if r.Rows[0][0].Int() != 6 {
		t.Errorf("count = %v", r.Rows[0][0])
	}
	// Percentage-style use: predicates inside aggregated CASE terms.
	r = mustExec(t, e, `SELECT state, sum(CASE WHEN city LIKE '%o%' THEN salesAmt ELSE 0 END)
		FROM sales GROUP BY state ORDER BY state`)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestExplainSelect(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE totals (state VARCHAR, total INTEGER)")
	mustExec(t, e, "INSERT INTO totals VALUES ('CA', 106), ('TX', 149)")
	mustExec(t, e, "CREATE INDEX ix_t ON totals (state)")
	r := mustExec(t, e, `EXPLAIN SELECT s.state, sum(s.salesAmt) FROM sales s, totals t
		WHERE s.state = t.state AND t.total > 100 GROUP BY s.state ORDER BY s.state LIMIT 5`)
	text := ""
	for _, row := range r.Rows {
		text += row[0].Str() + "\n"
	}
	for _, frag := range []string{"Limit 5", "Sort", "HashAggregate", "HashJoin",
		"existing index", "Scan sales (10 rows)", "Filter"} {
		if !strings.Contains(text, frag) {
			t.Errorf("plan lacks %q:\n%s", frag, text)
		}
	}
	// Window and outer-join plans render too.
	r = mustExec(t, e, "EXPLAIN SELECT DISTINCT sum(salesAmt) OVER (PARTITION BY state) FROM sales")
	text = ""
	for _, row := range r.Rows {
		text += row[0].Str() + "\n"
	}
	if !strings.Contains(text, "WindowAggregate") || !strings.Contains(text, "Distinct") {
		t.Errorf("window plan:\n%s", text)
	}
	r = mustExec(t, e, "EXPLAIN SELECT s.RID FROM sales s LEFT OUTER JOIN totals t ON s.state = t.state")
	text = ""
	for _, row := range r.Rows {
		text += row[0].Str() + "\n"
	}
	if !strings.Contains(text, "HashLeftOuterJoin") || !strings.Contains(text, "Project") {
		t.Errorf("outer join plan:\n%s", text)
	}
	wantErr(t, e, "EXPLAIN CREATE TABLE x (a INTEGER)", "EXPLAIN supports SELECT")
}

func TestDeleteStatement(t *testing.T) {
	e := newTestEngine(t)
	r := mustExec(t, e, "DELETE FROM sales WHERE state = 'CA'")
	if r.Affected != 4 {
		t.Errorf("affected = %d", r.Affected)
	}
	res := mustExec(t, e, "SELECT count(*), sum(salesAmt) FROM sales")
	if res.Rows[0][0].Int() != 6 || res.Rows[0][1].Int() != 149 {
		t.Errorf("after delete: %v", res.Rows[0])
	}
	// Indexes stay consistent after the rewrite.
	mustExec(t, e, "CREATE INDEX sx ON sales (state)")
	mustExec(t, e, "DELETE FROM sales WHERE salesAmt < 20")
	res = mustExec(t, e, "SELECT count(*) FROM sales WHERE state = 'TX'")
	if res.Rows[0][0].Int() != 3 { // 35, 53, 32 remain
		t.Errorf("after second delete: %v", res.Rows[0])
	}
	// DELETE without WHERE empties the table.
	mustExec(t, e, "DELETE FROM sales")
	res = mustExec(t, e, "SELECT count(*) FROM sales")
	if res.Rows[0][0].Int() != 0 {
		t.Errorf("after delete all: %v", res.Rows[0])
	}
	wantErr(t, e, "DELETE FROM nosuch", "no table")
}
