package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

// newSalesPlanner loads the paper's Table 1 sales fact table plus a
// store/day table for horizontal examples.
func newSalesPlanner(t *testing.T) *Planner {
	t.Helper()
	eng := engine.New(storage.NewCatalog())
	mustExec(t, eng, `CREATE TABLE sales (RID INTEGER, state VARCHAR, city VARCHAR, salesAmt INTEGER)`)
	mustExec(t, eng, `INSERT INTO sales VALUES
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
	mustExec(t, eng, `CREATE TABLE daily (store INTEGER, dweek VARCHAR, salesAmt INTEGER)`)
	// Store 2 trades all seven days; store 4 is closed on Monday (a missing
	// combination, like the paper's Table 3 example).
	mustExec(t, eng, `INSERT INTO daily VALUES
		(2,'Mo',7),(2,'Tu',6),(2,'We',8),(2,'Th',9),(2,'Fr',16),(2,'Sa',24),(2,'Su',30),
		(4,'Tu',9),(4,'We',9),(4,'Th',9),(4,'Fr',18),(4,'Sa',20),(4,'Su',35)`)
	return NewPlanner(eng)
}

func mustExec(t *testing.T, e *engine.Engine, sql string) *engine.Result {
	t.Helper()
	r, err := e.ExecSQL(sql)
	if err != nil {
		t.Fatalf("ExecSQL(%s): %v", sql, err)
	}
	return r
}

// runQuery plans and executes a query under opts.
func runQuery(t *testing.T, p *Planner, sql string, opts Options) *engine.Result {
	t.Helper()
	plan, err := p.PlanSQL(sql, opts)
	if err != nil {
		t.Fatalf("PlanSQL(%s): %v", sql, err)
	}
	res, err := p.ExecuteCtx(context.Background(), plan)
	if err != nil {
		t.Fatalf("Execute(%s):\n%s\n%v", sql, plan.SQL(), err)
	}
	return res
}

// sameResults compares two results cell by cell with a float tolerance.
func sameResults(t *testing.T, label string, a, b *engine.Result) {
	t.Helper()
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("%s: row counts differ: %d vs %d\n%v\nvs\n%v", label, len(a.Rows), len(b.Rows), a.Rows, b.Rows)
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			t.Fatalf("%s: row %d widths differ: %v vs %v", label, i, a.Rows[i], b.Rows[i])
		}
		for j := range a.Rows[i] {
			va, vb := a.Rows[i][j], b.Rows[i][j]
			if va.IsNull() != vb.IsNull() {
				t.Fatalf("%s: row %d col %d: %v vs %v", label, i, j, va, vb)
			}
			if va.IsNull() {
				continue
			}
			fa, aok := va.AsFloat()
			fb, bok := vb.AsFloat()
			if aok && bok {
				if math.Abs(fa-fb) > 1e-9 {
					t.Fatalf("%s: row %d col %d: %v vs %v", label, i, j, va, vb)
				}
				continue
			}
			if value.Compare(va, vb) != 0 {
				t.Fatalf("%s: row %d col %d: %v vs %v", label, i, j, va, vb)
			}
		}
	}
}

const vpctSales = "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city"

func TestVpctPaperExample(t *testing.T) {
	p := newSalesPlanner(t)
	res := runQuery(t, p, vpctSales, DefaultOptions())
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Table 2 of the paper (values before rounding to whole percent):
	want := []struct {
		state, city string
		pct         float64
	}{
		{"CA", "Los Angeles", 23.0 / 106},
		{"CA", "San Francisco", 83.0 / 106},
		{"TX", "Dallas", 85.0 / 149},
		{"TX", "Houston", 64.0 / 149},
	}
	for i, w := range want {
		r := res.Rows[i]
		if r[0].Str() != w.state || r[1].Str() != w.city {
			t.Errorf("row %d keys = %v", i, r)
		}
		if math.Abs(r[2].Float()-w.pct) > 1e-9 {
			t.Errorf("row %d pct = %v, want %v", i, r[2], w.pct)
		}
	}
	// The column is named after the measure, as in the paper's Table 2.
	if res.Columns[2] != "salesAmt" {
		t.Errorf("pct column name = %q", res.Columns[2])
	}
}

func TestVpctGroupSumsToOne(t *testing.T) {
	p := newSalesPlanner(t)
	res := runQuery(t, p, vpctSales, DefaultOptions())
	sums := map[string]float64{}
	for _, r := range res.Rows {
		sums[r[0].Str()] += r[2].Float()
	}
	for state, s := range sums {
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("state %s percentages sum to %v", state, s)
		}
	}
}

func TestVpctAllStrategiesAgree(t *testing.T) {
	queries := []string{
		vpctSales,
		"SELECT state, Vpct(salesAmt) FROM sales GROUP BY state", // j = 0: global totals
		"SELECT state, city, Vpct(salesAmt BY city), sum(salesAmt), count(*) FROM sales GROUP BY state, city",
		"SELECT state, city, Vpct(salesAmt BY city), Vpct(salesAmt) FROM sales GROUP BY state, city",
	}
	for _, q := range queries {
		var base *engine.Result
		for _, fjFromF := range []bool{false, true} {
			for _, useUpdate := range []bool{false, true} {
				for _, idx := range []bool{false, true} {
					p := newSalesPlanner(t)
					opts := Options{Vpct: VpctOptions{FjFromF: fjFromF, UseUpdate: useUpdate, SubkeyIndexes: idx}}
					res := runQuery(t, p, q, opts)
					if base == nil {
						base = res
						continue
					}
					label := q
					sameResults(t, label, base, res)
				}
			}
		}
	}
}

func TestVpctGlobalTotals(t *testing.T) {
	p := newSalesPlanner(t)
	res := runQuery(t, p, "SELECT state, Vpct(salesAmt) FROM sales GROUP BY state", DefaultOptions())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if math.Abs(res.Rows[0][1].Float()-106.0/255) > 1e-9 {
		t.Errorf("CA share = %v", res.Rows[0][1])
	}
	if math.Abs(res.Rows[0][1].Float()+res.Rows[1][1].Float()-1) > 1e-9 {
		t.Error("global shares must sum to 1")
	}
}

func TestVpctDivisionByZero(t *testing.T) {
	p := newSalesPlanner(t)
	mustExec(t, p.Eng, "INSERT INTO sales VALUES (11, 'NV', 'Reno', 5), (12, 'NV', 'Elko', -5)")
	res := runQuery(t, p, vpctSales, DefaultOptions())
	nulls := 0
	for _, r := range res.Rows {
		if r[0].Str() == "NV" {
			if !r[2].IsNull() {
				t.Errorf("NV pct = %v, want NULL (state total is zero)", r[2])
			}
			nulls++
		}
	}
	if nulls != 2 {
		t.Errorf("NV rows = %d", nulls)
	}
}

func TestVpctNullMeasureSkipped(t *testing.T) {
	// Vpct preserves sum() semantics: NULL measures are skipped.
	p := newSalesPlanner(t)
	mustExec(t, p.Eng, "INSERT INTO sales VALUES (13, 'CA', 'San Francisco', NULL)")
	res := runQuery(t, p, vpctSales, DefaultOptions())
	for _, r := range res.Rows {
		if r[0].Str() == "CA" && r[1].Str() == "San Francisco" {
			if math.Abs(r[2].Float()-83.0/106) > 1e-9 {
				t.Errorf("SF pct with NULL row = %v", r[2])
			}
		}
	}
}

func TestVpctWithWhere(t *testing.T) {
	p := newSalesPlanner(t)
	res := runQuery(t, p, "SELECT state, city, Vpct(salesAmt BY city) FROM sales WHERE state = 'TX' GROUP BY state, city", DefaultOptions())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if math.Abs(res.Rows[0][2].Float()-85.0/149) > 1e-9 {
		t.Errorf("Dallas pct = %v", res.Rows[0][2])
	}
}

func TestVpctMissingRowsPost(t *testing.T) {
	p := newSalesPlanner(t)
	for _, useUpdate := range []bool{false, true} {
		opts := Options{Vpct: VpctOptions{MissingRows: MissingPost, UseUpdate: useUpdate, SubkeyIndexes: true}}
		res := runQuery(t, p, "SELECT store, dweek, Vpct(salesAmt BY dweek) FROM daily GROUP BY store, dweek", opts)
		// 2 stores × 7 days = 14 rows, including the missing (4, Mo) at 0%.
		if len(res.Rows) != 14 {
			t.Fatalf("useUpdate=%v rows = %d: %v", useUpdate, len(res.Rows), res.Rows)
		}
		found := false
		for _, r := range res.Rows {
			if r[0].Int() == 4 && r[1].Str() == "Mo" {
				found = true
				if r[2].IsNull() || r[2].Float() != 0 { // floateq:ok exact expected value
					t.Errorf("missing combination pct = %v, want 0", r[2])
				}
			}
		}
		if !found {
			t.Error("zero-filled row for (4, Mo) not present")
		}
	}
}

func TestVpctMissingRowsPre(t *testing.T) {
	p := newSalesPlanner(t)
	opts := Options{Vpct: VpctOptions{MissingRows: MissingPre, SubkeyIndexes: true}}
	res := runQuery(t, p, "SELECT store, dweek, Vpct(salesAmt BY dweek) FROM daily GROUP BY store, dweek", opts)
	if len(res.Rows) != 14 {
		t.Fatalf("rows = %d: %v", len(res.Rows), res.Rows)
	}
	// Pre-processing mutates F: the zero-measure row persists.
	cnt := mustExec(t, p.Eng, "SELECT count(*) FROM daily")
	if cnt.Rows[0][0].Int() != 14 {
		t.Errorf("daily rows after pre-processing = %v", cnt.Rows[0][0])
	}
}

const hpctDaily = "SELECT store, Hpct(salesAmt BY dweek) FROM daily GROUP BY store"

func TestHpctPaperShape(t *testing.T) {
	p := newSalesPlanner(t)
	res := runQuery(t, p, hpctDaily, DefaultOptions())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Columns: store + 7 day columns (ordered by value: Fr Mo Sa Su Th Tu We).
	if len(res.Columns) != 8 {
		t.Fatalf("columns = %v", res.Columns)
	}
	// Each row's percentages sum to 1.
	for _, r := range res.Rows {
		s := 0.0
		for _, v := range r[1:] {
			if !v.IsNull() {
				s += v.Float()
			}
		}
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("store %v percentages sum to %v", r[0], s)
		}
	}
	// Store 4's Monday column is 0% — "observe the 0% for store 4 on
	// Monday" (the paper's Table 3).
	moIdx := -1
	for i, c := range res.Columns {
		if c == "Mo" {
			moIdx = i
		}
	}
	if moIdx < 0 {
		t.Fatalf("no Mo column in %v", res.Columns)
	}
	for _, r := range res.Rows {
		if r[0].Int() == 4 && r[moIdx].Float() != 0 { // floateq:ok exact expected value
			t.Errorf("store 4 Monday = %v, want 0", r[moIdx])
		}
	}
}

func TestHpctStrategiesAgree(t *testing.T) {
	queries := []string{
		hpctDaily,
		"SELECT store, Hpct(salesAmt BY dweek), sum(salesAmt) FROM daily GROUP BY store",
		"SELECT Hpct(salesAmt BY dweek) FROM daily", // no GROUP BY: one row
	}
	for qi, q := range queries {
		var base *engine.Result
		for _, opt := range []HpctOptions{{}, {FromFV: true}} {
			p := newSalesPlanner(t)
			// Store 8 has only NULL measures and store 9 sums to zero: every
			// strategy must return their rows all-NULL.
			mustExec(t, p.Eng, "INSERT INTO daily VALUES (8,'Mo',NULL), (8,'Tu',NULL), (9,'Mo',5), (9,'Tu',-5)")
			res := runQuery(t, p, q, Options{Hpct: opt})
			if qi != 2 {
				for _, r := range res.Rows {
					for _, v := range r[1:8] {
						if void := r[0].Int() >= 8; void != v.IsNull() {
							t.Errorf("%s %+v: store %v has percentage %v", q, opt, r[0], v)
						}
					}
				}
			}
			if base == nil {
				base = res
				continue
			}
			sameResults(t, fmt.Sprintf("%s %+v", q, opt), base, res)
		}
	}
}

// TestVpctMissingPreUpdateVariant: with pre-processing the UPDATE variant's
// result table is still Fk, so the final select must project Fk's own
// columns.
func TestVpctMissingPreUpdateVariant(t *testing.T) {
	q := "SELECT store, dweek, Vpct(salesAmt BY dweek) FROM daily GROUP BY store, dweek"
	upd := runQuery(t, newSalesPlanner(t), q, Options{Vpct: VpctOptions{UseUpdate: true, MissingRows: MissingPre}})
	ins := runQuery(t, newSalesPlanner(t), q, Options{Vpct: VpctOptions{MissingRows: MissingPre}})
	sameResults(t, "pre-processing, UPDATE vs INSERT", ins, upd)
}

func TestHpctWithTotalColumn(t *testing.T) {
	p := newSalesPlanner(t)
	res := runQuery(t, p, "SELECT store, Hpct(salesAmt BY dweek), sum(salesAmt) FROM daily GROUP BY store", DefaultOptions())
	for _, r := range res.Rows {
		total := r[len(r)-1]
		switch r[0].Int() {
		case 2:
			if total.Int() != 100 {
				t.Errorf("store 2 total = %v", total)
			}
		case 4:
			if total.Int() != 100 {
				t.Errorf("store 4 total = %v", total)
			}
		}
	}
}

func TestHpctZeroTotalGroup(t *testing.T) {
	p := newSalesPlanner(t)
	mustExec(t, p.Eng, "INSERT INTO daily VALUES (9, 'Mo', 5), (9, 'Tu', -5)")
	res := runQuery(t, p, hpctDaily, DefaultOptions())
	for _, r := range res.Rows {
		if r[0].Int() == 9 {
			for _, v := range r[1:] {
				if !v.IsNull() {
					t.Errorf("zero-total group value = %v, want NULL", v)
				}
			}
		}
	}
}

func TestHpctPartitioning(t *testing.T) {
	p := newSalesPlanner(t)
	p.MaxColumns = 4 // store + 3 value columns per partition
	plan, err := p.PlanSQL(hpctDaily, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.ResultTables) < 2 {
		t.Fatalf("expected partitions, got %v", plan.ResultTables)
	}
	res, err := p.ExecuteCtx(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	p2 := newSalesPlanner(t)
	base := runQuery(t, p2, hpctDaily, DefaultOptions())
	sameResults(t, "partitioned", base, res)
}

// TestHaggMaxColumnsFit: the CASE plans share Hpct's fit check — a result
// whose partitions could not hold the key and extra columns plus one value
// column is rejected, anything else is partitioned.
func TestHaggMaxColumnsFit(t *testing.T) {
	cases := []struct {
		q    string
		max  int
		want string // error fragment; "" = must plan, partitioned
	}{
		{"SELECT store, sum(salesAmt BY dweek) FROM daily GROUP BY store", 1, "partitions cannot fit the 1 key/extra columns"},
		{"SELECT store, sum(salesAmt BY dweek), sum(salesAmt) FROM daily GROUP BY store", 2, "partitions cannot fit the 2 key/extra columns"},
		{"SELECT store, sum(salesAmt BY dweek), sum(salesAmt) FROM daily GROUP BY store", 3, ""},
	}
	for _, c := range cases {
		for _, opts := range []HaggOptions{{}, {FromFV: true}} {
			p := newSalesPlanner(t)
			p.MaxColumns = c.max
			plan, err := p.PlanSQL(c.q, Options{Hagg: opts})
			if c.want != "" {
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("MaxColumns=%d %+v %s: err = %v, want %q", c.max, opts, c.q, err, c.want)
				}
				continue
			}
			if err != nil {
				t.Fatalf("MaxColumns=%d %+v %s: %v", c.max, opts, c.q, err)
			}
			if len(plan.ResultTables) < 2 {
				t.Errorf("MaxColumns=%d %+v: expected partitions, got %v", c.max, opts, plan.ResultTables)
			}
			res, err := p.ExecuteCtx(context.Background(), plan)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "partitioned Hagg", runQuery(t, newSalesPlanner(t), c.q, Options{Hagg: opts}), res)
		}
	}
}

func TestHaggFourStrategiesAgree(t *testing.T) {
	queries := []string{
		"SELECT store, sum(salesAmt BY dweek) FROM daily GROUP BY store",
		"SELECT store, count(salesAmt BY dweek) FROM daily GROUP BY store",
		"SELECT store, max(salesAmt BY dweek), sum(salesAmt) FROM daily GROUP BY store",
		"SELECT store, min(salesAmt BY dweek) FROM daily GROUP BY store",
		"SELECT store, avg(salesAmt BY dweek) FROM daily GROUP BY store",
		"SELECT sum(salesAmt BY dweek) FROM daily", // j = 0
	}
	for _, q := range queries {
		var base *engine.Result
		for _, opt := range []HaggOptions{
			{Method: HaggCASE},
			{Method: HaggCASE, FromFV: true},
			{Method: HaggSPJ},
			{Method: HaggSPJ, FromFV: true},
		} {
			p := newSalesPlanner(t)
			res := runQuery(t, p, q, Options{Hagg: opt})
			if base == nil {
				base = res
				continue
			}
			sameResults(t, q, base, res)
		}
	}
}

func TestHaggMissingCombinationIsNull(t *testing.T) {
	p := newSalesPlanner(t)
	res := runQuery(t, p, "SELECT store, sum(salesAmt BY dweek) FROM daily GROUP BY store", DefaultOptions())
	moIdx := -1
	for i, c := range res.Columns {
		if c == "Mo" {
			moIdx = i
		}
	}
	for _, r := range res.Rows {
		if r[0].Int() == 4 && !r[moIdx].IsNull() {
			t.Errorf("store 4 Monday sum = %v, want NULL", r[moIdx])
		}
	}
}

func TestHaggDefaultZero(t *testing.T) {
	// The companion paper's binary-coding idiom: max(1 BY d DEFAULT 0).
	p := newSalesPlanner(t)
	res := runQuery(t, p, "SELECT store, max(1 BY dweek DEFAULT 0) FROM daily GROUP BY store", DefaultOptions())
	for _, r := range res.Rows {
		for i, v := range r[1:] {
			if v.IsNull() {
				t.Errorf("store %v col %d NULL despite DEFAULT 0", r[0], i)
			}
			if n := v.Int(); n != 0 && n != 1 {
				t.Errorf("binary flag = %v", v)
			}
		}
		if r[0].Int() == 4 {
			// Monday flag must be exactly 0.
			moIdx := -1
			for i, c := range res.Columns {
				if c == "Mo" {
					moIdx = i
				}
			}
			if r[moIdx].Int() != 0 {
				t.Errorf("store 4 Monday flag = %v", r[moIdx])
			}
		}
	}
}

func TestHaggCountDistinctDirect(t *testing.T) {
	p := newSalesPlanner(t)
	res := runQuery(t, p, "SELECT store, count(DISTINCT salesAmt BY dweek) FROM daily GROUP BY store", DefaultOptions())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// And the from-FV strategy must refuse.
	p2 := newSalesPlanner(t)
	_, err := p2.PlanSQL("SELECT store, count(DISTINCT salesAmt BY dweek) FROM daily GROUP BY store",
		Options{Hagg: HaggOptions{Method: HaggCASE, FromFV: true}})
	if err == nil || !strings.Contains(err.Error(), "DISTINCT") {
		t.Errorf("err = %v", err)
	}
}

// TestPlanningRunsUnderTheStatementContext: the feedback scan of F is a
// statement of the query being planned. A cancelled context stops it with the
// typed error before it reads a row, and the context's limits govern it as
// they govern the plan's steps.
func TestPlanningRunsUnderTheStatementContext(t *testing.T) {
	p := newSalesPlanner(t)
	sel, err := parseSelect(hpctDaily)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	scanned := obs.Default.Counter("engine.rows.scanned")
	before := scanned.Value()
	var cancelled *engine.CancelledError
	if _, err := p.PlanCtx(ctx, sel, DefaultOptions()); !errors.As(err, &cancelled) {
		t.Errorf("PlanCtx under a cancelled context: err = %v, want a CancelledError", err)
	}
	if _, err := p.AdviseIn(ctx, sel, p.Eng.Parallelism(), nil); !errors.As(err, &cancelled) {
		t.Errorf("AdviseIn under a cancelled context: err = %v, want a CancelledError", err)
	}
	if d := scanned.Value() - before; d != 0 {
		t.Errorf("planning under a cancelled context scanned %d rows of F", d)
	}

	// daily has seven dweek values: the feedback scan needs seven groups.
	limited := engine.WithLimits(context.Background(), engine.Limits{MaxGroups: 3})
	var coded interface{ Code() string }
	if _, err := p.PlanCtx(limited, sel, DefaultOptions()); !errors.As(err, &coded) || coded.Code() != diag.CodeGroupLimit {
		t.Errorf("Plan under MaxGroups=3: err = %v, want %s from the feedback scan", err, diag.CodeGroupLimit)
	}
}

func TestHaggMultipleTerms(t *testing.T) {
	// The companion paper's flagship query shape: several horizontal terms
	// plus a plain total.
	p := newSalesPlanner(t)
	q := "SELECT store, sum(salesAmt BY dweek), count(salesAmt BY dweek), sum(salesAmt) FROM daily GROUP BY store"
	res := runQuery(t, p, q, DefaultOptions())
	if len(res.Columns) != 1+7+7+1 {
		t.Fatalf("columns = %v", res.Columns)
	}
	p2 := newSalesPlanner(t)
	spj := runQuery(t, p2, q, Options{Hagg: HaggOptions{Method: HaggSPJ}})
	sameResults(t, q, res, spj)
}

func TestOLAPEquivalentMatchesVpct(t *testing.T) {
	p := newSalesPlanner(t)
	base := runQuery(t, p, vpctSales, DefaultOptions())
	sql, err := p.PlanSQL(vpctSales, DefaultOptions())
	_ = sql
	olap, err2 := func() (string, error) {
		stmt, err := parseSelect(vpctSales)
		if err != nil {
			return "", err
		}
		return p.OLAPEquivalent(stmt)
	}()
	if err != nil || err2 != nil {
		t.Fatal(err, err2)
	}
	res := mustExec(t, p.Eng, olap)
	sameResults(t, "olap", base, res)
}

func TestOLAPEquivalentMatchesHpctNumbers(t *testing.T) {
	p := newSalesPlanner(t)
	stmt, err := parseSelect(hpctDaily)
	if err != nil {
		t.Fatal(err)
	}
	olap, err := p.OLAPEquivalent(stmt)
	if err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, p.Eng, olap)
	// Vertical form: 13 rows (store 4 has no Monday row).
	if len(res.Rows) != 13 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Row sums per store reach 1.
	sums := map[int64]float64{}
	for _, r := range res.Rows {
		sums[r[0].Int()] += r[2].Float()
	}
	for store, s := range sums {
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("store %d OLAP percentages sum to %v", store, s)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		sql  string
		want QueryClass
	}{
		{"SELECT a, sum(b) FROM t GROUP BY a", ClassStandard},
		{vpctSales, ClassVertical},
		{hpctDaily, ClassHorizontalPct},
		{"SELECT store, sum(salesAmt BY dweek) FROM daily GROUP BY store", ClassHorizontalAgg},
	}
	for _, c := range cases {
		stmt, err := parseSelect(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Classify(stmt)
		if err != nil || got != c.want {
			t.Errorf("Classify(%s) = %v, %v; want %v", c.sql, got, err, c.want)
		}
	}
	// Mixing is rejected.
	stmt, _ := parseSelect("SELECT state, Vpct(a BY city), Hpct(a BY city) FROM t GROUP BY state, city")
	if _, err := Classify(stmt); err == nil {
		t.Error("mixed Vpct/Hpct must be rejected")
	}
	if ClassVertical.String() == "" || ClassStandard.String() == "" {
		t.Error("class names empty")
	}
}

func TestValidationErrors(t *testing.T) {
	p := newSalesPlanner(t)
	cases := []struct {
		sql, frag string
	}{
		{"SELECT Vpct(salesAmt BY city) FROM sales", "GROUP BY"},
		{"SELECT state, Vpct(salesAmt BY city) FROM sales GROUP BY state", "GROUP BY columns"},
		{"SELECT state, city, Vpct(salesAmt BY city, state) FROM sales GROUP BY state, city", "proper subset"},
		{"SELECT store, Hpct(salesAmt BY store) FROM daily GROUP BY store", "disjoint"},
		{"SELECT store, Hpct(salesAmt BY bogus) FROM daily GROUP BY store", "not a column"},
		{"SELECT store, sum(salesAmt BY dweek, dweek) FROM daily GROUP BY store", "duplicate BY"},
		{"SELECT bogus, Vpct(salesAmt BY city) FROM sales GROUP BY state, city", "GROUP BY"},
		{"SELECT state, city, Vpct(bogus BY city) FROM sales GROUP BY state, city", "unknown column"},
		{"SELECT state, city, Vpct(salesAmt BY city) + 1 FROM sales GROUP BY state, city", "top-level"},
		{"SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city HAVING sum(salesAmt) > 0", "HAVING"},
		{"SELECT DISTINCT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city", "DISTINCT"},
		{"SELECT s.state, Vpct(s.salesAmt BY city) FROM sales s, daily d GROUP BY state, city", "single table"},
	}
	for _, c := range cases {
		_, err := p.PlanSQL(c.sql, DefaultOptions())
		if err == nil {
			t.Errorf("PlanSQL(%s): expected error containing %q", c.sql, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("PlanSQL(%s): error %q lacks %q", c.sql, err, c.frag)
		}
	}
}

func TestPlanSQLRendering(t *testing.T) {
	p := newSalesPlanner(t)
	plan, err := p.PlanSQL(vpctSales, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	text := plan.SQL()
	for _, frag := range []string{"CREATE TABLE", "GROUP BY", "CASE WHEN", "INSERT INTO", "CREATE INDEX"} {
		if !strings.Contains(text, frag) {
			t.Errorf("plan SQL lacks %q:\n%s", frag, text)
		}
	}
	if plan.Class != ClassVertical {
		t.Errorf("class = %v", plan.Class)
	}
	// The UPDATE variant emits an UPDATE, not a third INSERT.
	plan2, err := p.PlanSQL(vpctSales, Options{Vpct: VpctOptions{UseUpdate: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan2.SQL(), "UPDATE") {
		t.Errorf("update-variant plan lacks UPDATE:\n%s", plan2.SQL())
	}
}

func TestExecuteCleansUpTemporaries(t *testing.T) {
	p := newSalesPlanner(t)
	before := len(p.Eng.Catalog().Names())
	plan, err := p.PlanSQL(vpctSales, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ExecuteCtx(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	after := len(p.Eng.Catalog().Names())
	if after != before {
		t.Errorf("temporary tables leaked: %v", p.Eng.Catalog().Names())
	}
}

func TestStandardQueryPassThrough(t *testing.T) {
	p := newSalesPlanner(t)
	res := runQuery(t, p, "SELECT state, sum(salesAmt) FROM sales GROUP BY state ORDER BY state", DefaultOptions())
	if len(res.Rows) != 2 || res.Rows[0][1].Int() != 106 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestPlanRespectsOrderByAndLimit(t *testing.T) {
	p := newSalesPlanner(t)
	res := runQuery(t, p, "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city ORDER BY 3 DESC LIMIT 2", DefaultOptions())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][2].Float() < res.Rows[1][2].Float() {
		t.Error("ORDER BY 3 DESC not applied")
	}
	// LIMIT 0 reaches the final select as a clause, not as "no limit".
	for _, q := range []string{
		"SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city LIMIT 0",
		"SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state LIMIT 0",
	} {
		if res := runQuery(t, p, q, DefaultOptions()); len(res.Rows) != 0 {
			t.Errorf("%s returned %d rows", q, len(res.Rows))
		}
	}
}

func TestVpctRowCountPercentages(t *testing.T) {
	// The paper's Vpct(1) idiom: row-count percentages.
	p := newSalesPlanner(t)
	res := runQuery(t, p, "SELECT state, city, Vpct(1 BY city) FROM sales GROUP BY state, city", DefaultOptions())
	want := map[string]float64{
		"CA|Los Angeles": 1.0 / 4, "CA|San Francisco": 3.0 / 4,
		"TX|Dallas": 2.0 / 6, "TX|Houston": 4.0 / 6,
	}
	for _, r := range res.Rows {
		key := r[0].Str() + "|" + r[1].Str()
		if math.Abs(r[2].Float()-want[key]) > 1e-9 {
			t.Errorf("%s = %v, want %v", key, r[2], want[key])
		}
	}
}

func TestHorizontalStrategiesAgreeWithWhere(t *testing.T) {
	// A WHERE clause must flow into the feedback query, the aggregation
	// scans, and the pre-aggregates alike — under every strategy.
	queries := []struct {
		sql  string
		opts []Options
	}{
		{"SELECT store, Hpct(salesAmt BY dweek) FROM daily WHERE salesAmt > 7 GROUP BY store",
			[]Options{{}, {Hpct: HpctOptions{FromFV: true}}}},
		{"SELECT store, sum(salesAmt BY dweek) FROM daily WHERE salesAmt > 7 GROUP BY store",
			[]Options{
				{Hagg: HaggOptions{Method: HaggCASE}},
				{Hagg: HaggOptions{Method: HaggCASE, FromFV: true}},
				{Hagg: HaggOptions{Method: HaggSPJ}},
				{Hagg: HaggOptions{Method: HaggSPJ, FromFV: true}},
			}},
	}
	for _, q := range queries {
		var base *engine.Result
		for si, opts := range q.opts {
			p := newSalesPlanner(t)
			res := runQuery(t, p, q.sql, opts)
			if base == nil {
				base = res
				continue
			}
			sameResults(t, fmt.Sprintf("%s strategy %d", q.sql, si), base, res)
		}
		// The filter genuinely restricts the result: columns for days whose
		// only sales are ≤ 7 must be absent from the layout.
		for _, c := range base.Columns {
			if c == "Tu" && strings.Contains(q.sql, "Hpct") {
				// store 2 Tu=6, store 4 Tu=9: Tu survives via store 4.
				break
			}
		}
	}
}

func TestVpctStrategiesAgreeWithWhere(t *testing.T) {
	q := "SELECT store, dweek, Vpct(salesAmt BY dweek) FROM daily WHERE dweek <> 'Su' GROUP BY store, dweek"
	var base *engine.Result
	for mask := 0; mask < 4; mask++ {
		p := newSalesPlanner(t)
		opts := Options{Vpct: VpctOptions{FjFromF: mask&1 != 0, UseUpdate: mask&2 != 0, SubkeyIndexes: true}}
		res := runQuery(t, p, q, opts)
		if base == nil {
			base = res
			continue
		}
		sameResults(t, q, base, res)
	}
	// Six days per store, percentages re-normalized over the filtered rows.
	if len(base.Rows) != 11 { // store 2: 6 days, store 4: 5 days
		t.Fatalf("rows = %d", len(base.Rows))
	}
	sums := map[int64]float64{}
	for _, r := range base.Rows {
		sums[r[0].Int()] += r[2].Float()
	}
	for s, v := range sums {
		if math.Abs(v-1) > 1e-9 {
			t.Errorf("store %d filtered percentages sum to %v", s, v)
		}
	}
}

// TestMeasureColumnBesideAGroupingColumnNamedA: a totals or per-combination
// table names its measure column A, and column names are case-insensitive,
// so a grouping column named a once collided with it ("duplicate column").
// Each statement must run, under the strategies that build such a table, and
// agree with the same statement over the column renamed g. The last one's
// second term reads its totals from the first term's, whose measure column
// is the renamed one.
func TestMeasureColumnBesideAGroupingColumnNamedA(t *testing.T) {
	p := NewPlanner(engine.New(storage.NewCatalog()))
	for _, tab := range []string{"e", "eg"} {
		mustExec(t, p.Eng, fmt.Sprintf("CREATE TABLE %s (%s INTEGER, c VARCHAR, d INTEGER, m INTEGER)", tab, map[string]string{"e": "a", "eg": "g"}[tab]))
		mustExec(t, p.Eng, "INSERT INTO "+tab+" VALUES (1, 'x', 1, 3), (1, 'y', 2, 5), (2, 'x', 1, 7), (2, 'x', 2, 1), (3, 'y', 1, 4)")
	}
	for _, c := range []struct {
		sql  string // %[1]s the column, %[2]s the table
		opts Options
	}{
		{"SELECT %[1]s, c, Vpct(m BY c) FROM %[2]s GROUP BY %[1]s, c", Options{}},
		{"SELECT %[1]s, c, Vpct(m BY c) FROM %[2]s GROUP BY %[1]s, c", Options{Vpct: VpctOptions{FjFromF: true}}},
		{"SELECT %[1]s, Hpct(m BY c) FROM %[2]s GROUP BY %[1]s", Options{Hpct: HpctOptions{FromFV: true}}},
		{"SELECT %[1]s, sum(m BY c) FROM %[2]s GROUP BY %[1]s", Options{Hagg: HaggOptions{Method: HaggSPJ}}},
		{"SELECT %[1]s, c, d, Vpct(m BY c), Vpct(m BY %[1]s, c) FROM %[2]s GROUP BY %[1]s, c, d", Options{}},
	} {
		sameResults(t, fmt.Sprintf("%s %+v", c.sql, c.opts),
			runQuery(t, p, fmt.Sprintf(c.sql, "a", "e"), c.opts), runQuery(t, p, fmt.Sprintf(c.sql, "g", "eg"), c.opts))
	}
}
