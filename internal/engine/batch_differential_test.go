package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// CompareBatch proves the batch pipeline and the fold operator equivalent to
// the row-at-a-time reference on one query: the reference runs on the oracle
// (engine.UseReference) at P=1, every candidate through the operator at each
// parallelism in ps. Results must be identical by Equal's exact,
// kind-sensitive comparison, and errors must be deterministic: if the
// reference errors, every operator run must fail with the same error text
// (Run's "execute (P=n)" wrapper aside), and vice versa. The engine is left
// on the pipeline.
func CompareBatch(p *core.Planner, sql string, opts core.Options, ps []int) error {
	engine.UseReference(p.Eng, true)
	ref, refErr := difftest.Run(p, sql, opts, 1)
	engine.UseReference(p.Eng, false)
	for _, par := range ps {
		got, err := difftest.Run(p, sql, opts, par)
		if (refErr == nil) != (err == nil) {
			return fmt.Errorf("difftest: %s: batch P=%d err=%v, scalar err=%v", sql, par, err, refErr)
		}
		if refErr != nil {
			if errors.Unwrap(refErr).Error() != errors.Unwrap(err).Error() {
				return fmt.Errorf("difftest: %s: batch P=%d error %q, scalar error %q", sql, par, err, refErr)
			}
			continue
		}
		if diff := difftest.Equal(ref, got); diff != "" {
			return fmt.Errorf("difftest: %s: batch P=%d diverges from scalar: %s", sql, par, diff)
		}
	}
	return nil
}

// TestDifferentialBatchGoldenQueries sweeps the paper's running example
// through the strategy knobs with batch kernels on, against the scalar
// reference. The tiny fixtures hit the batch path's edge cases: groups
// smaller than a batch, empty partitions at P=8, the no-GROUP-BY global
// fold, and mixed aggregate lists.
func TestDifferentialBatchGoldenQueries(t *testing.T) {
	defer leakcheck.Check(t)()
	p := difftest.GoldenPlanner(t)
	cases := []struct {
		sql  string
		opts []core.Options
	}{
		{
			sql: "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city",
			opts: []core.Options{
				core.DefaultOptions(),
				{Vpct: core.VpctOptions{FjFromF: true}},
				{Vpct: core.VpctOptions{UseUpdate: true, SubkeyIndexes: true}},
				{Vpct: core.VpctOptions{MissingRows: core.MissingPost}},
			},
		},
		{
			sql:  "SELECT state, city, Vpct(salesAmt BY city), sum(salesAmt), count(*) FROM sales GROUP BY state, city",
			opts: []core.Options{core.DefaultOptions()},
		},
		{
			sql:  "SELECT city, Vpct(salesAmt) FROM sales GROUP BY city",
			opts: []core.Options{core.DefaultOptions()},
		},
		{
			sql: "SELECT store, Hpct(salesAmt BY dweek) FROM daily GROUP BY store",
			opts: []core.Options{
				{},
				{Hpct: core.HpctOptions{FromFV: true}},
			},
		},
		{
			sql:  "SELECT state, Hpct(salesAmt BY city), sum(salesAmt) FROM sales GROUP BY state",
			opts: []core.Options{{}},
		},
		{
			sql: "SELECT store, sum(salesAmt BY dweek) FROM daily GROUP BY store",
			opts: []core.Options{
				{Hagg: core.HaggOptions{Method: core.HaggCASE}},
				{Hagg: core.HaggOptions{Method: core.HaggSPJ}},
			},
		},
		{
			sql:  "SELECT store, count(salesAmt BY dweek), avg(salesAmt BY dweek) FROM daily GROUP BY store",
			opts: []core.Options{{Hagg: core.HaggOptions{Method: core.HaggCASE}}},
		},
	}
	for _, c := range cases {
		for oi, opts := range c.opts {
			if err := CompareBatch(p, c.sql, opts, difftest.Parallelisms); err != nil {
				t.Errorf("opts[%d]: %v", oi, err)
			}
		}
	}
}

// primaryPlanner loads the workload data the primary-query sweep runs on:
// large enough that every batch query spans multiple 1024-row batches.
func primaryPlanner(t *testing.T) *core.Planner {
	t.Helper()
	cat := storage.NewCatalog()
	cards := workload.PaperCardinalities()
	cards.Store = 5
	cards.Dept = 10
	if _, err := workload.LoadEmployee(cat, "employee", 4000, 21); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.LoadSales(cat, "sales", 6000, cards, 22); err != nil {
		t.Fatal(err)
	}
	return core.NewPlanner(engine.New(cat))
}

// primaryShape is one primary query as Vpct, Hpct and Hagg SQL, with the
// number of totals (GROUP BY) columns of the horizontal forms.
type primaryShape struct {
	vpct, hpct, hagg string
	totals           int
}

// primaryShapes renders the eight primary queries' Vpct, Hpct and Hagg SQL.
func primaryShapes() []primaryShape {
	type primary struct {
		dataset, measure string
		totals, by       []string
	}
	primaries := []primary{
		{"employee", "salary", nil, []string{"gender"}},
		{"employee", "salary", []string{"marstatus"}, []string{"gender"}},
		{"employee", "salary", []string{"educat", "marstatus"}, []string{"gender"}},
		{"employee", "salary", []string{"age", "marstatus"}, []string{"gender", "educat"}},
		{"sales", "salesAmt", nil, []string{"dweek"}},
		{"sales", "salesAmt", []string{"dweek"}, []string{"monthNo"}},
		{"sales", "salesAmt", []string{"dweek", "monthNo"}, []string{"dept"}},
		{"sales", "salesAmt", []string{"dweek", "monthNo"}, []string{"dept", "store"}},
	}
	var out []primaryShape
	for _, q := range primaries {
		all := append(append([]string{}, q.totals...), q.by...)
		s := primaryShape{totals: len(q.totals)}
		if len(q.totals) == 0 {
			s.vpct = fmt.Sprintf("SELECT %s, Vpct(%s) FROM %s GROUP BY %s",
				strings.Join(q.by, ", "), q.measure, q.dataset, strings.Join(q.by, ", "))
			s.hpct = fmt.Sprintf("SELECT Hpct(%s BY %s) FROM %s",
				q.measure, strings.Join(q.by, ", "), q.dataset)
		} else {
			s.vpct = fmt.Sprintf("SELECT %s, Vpct(%s BY %s) FROM %s GROUP BY %s",
				strings.Join(all, ", "), q.measure, strings.Join(q.by, ", "),
				q.dataset, strings.Join(all, ", "))
			s.hpct = fmt.Sprintf("SELECT %s, Hpct(%s BY %s) FROM %s GROUP BY %s",
				strings.Join(q.totals, ", "), q.measure, strings.Join(q.by, ", "),
				q.dataset, strings.Join(q.totals, ", "))
		}
		s.hagg = strings.Replace(s.hpct, "Hpct(", "sum(", 1)
		out = append(out, s)
	}
	return out
}

// TestDifferentialBatchPrimaryQueries runs the eight primary benchmark
// queries (Tables 4–6) in their Vpct and Hpct forms on workload data large
// enough to span many 1024-row batches, batch kernels vs the scalar fold.
func TestDifferentialBatchPrimaryQueries(t *testing.T) {
	p := primaryPlanner(t)
	for qi, q := range primaryShapes() {
		if err := CompareBatch(p, q.vpct, core.DefaultOptions(), difftest.Parallelisms); err != nil {
			t.Errorf("primary %d Vpct: %v", qi, err)
		}
		if err := CompareBatch(p, q.hpct, core.Options{}, difftest.Parallelisms); err != nil {
			t.Errorf("primary %d Hpct: %v", qi, err)
		}
	}
}

// foldShapes are the plain GROUP BY shapes the operator covers beyond bare
// column keys and arguments: computed keys (by select-list position), CASE
// and arithmetic arguments, and arguments that fail on some or all rows —
// sum() over a VARCHAR column, arithmetic on a VARCHAR inside an argument
// reached only by some rows — whose error text must match the reference's at
// every parallelism. Division by zero inside an argument is not an error in
// this dialect (it yields NULL); the shape is here for that rule, under
// order-insensitive aggregates because a partitioned sum of inexact
// quotients may round differently. SELECT DISTINCT is a fold with keys and no
// aggregates: bare and computed items, NULL keys, more keys than the
// fixed-width group key holds, VARCHAR, a join-fed input, window and
// aggregate output (both deduped over collected columns), and ORDER BY + LIMIT
// on top. The window shapes are more than a dedupe of window output: each
// PARTITION BY list is itself a fold of the window's collected tuples — one
// of them a join's — so its two modes compare the operator's partitions with
// the reference fold's. The group projections: HAVING over an aggregate in
// the select list, over ones that are not, and one that raises at some group;
// a computed item that raises; and ORDER BY + LIMIT over aggregate output and
// over a nested loop's — the summary lattice's node shape — which sort as
// collected columns, typed on the operator and boxed on the reference.
//
// The dispatch shapes are sum(CASE WHEN <BY columns = constants> THEN … ELSE
// 0|NULL END) families, which the operator routes with one lookup per row
// where the reference walks every arm: an arm no row matches (0 under ELSE 0,
// NULL under ELSE NULL), an IS NULL arm, two specs sharing a condition, two
// families over different column lists, a VARCHAR sum and a VARCHAR product
// reached only by a later row of one arm, negative constants with and without
// a WHERE on one, a join-fed input, a global fold over no rows, and — beside
// arms that dispatch — the shapes that must not: OR, IS NOT NULL, a FLOAT
// literal against an INTEGER column, a non-zero ELSE, ELSE 0 under count.
var foldShapes = []string{
	"SELECT d1, sum(a), sum(CASE WHEN d2 = 0 THEN a ELSE 0 END), sum(CASE WHEN d2 = 1 THEN a ELSE 0 END), sum(CASE WHEN d2 = 9 THEN a ELSE 0 END), sum(CASE WHEN d2 IS NULL THEN a ELSE 0 END) FROM f GROUP BY d1",
	"SELECT d3, sum(CASE WHEN d2 = 9 THEN a ELSE NULL END), max(CASE WHEN d2 = 1 THEN a END), avg(CASE WHEN d2 = 2 THEN a END), count(CASE WHEN d2 = 1 THEN 1 END), sum(CASE WHEN d2 = 1 THEN a ELSE 0 END) FROM f GROUP BY d3",
	"SELECT d1, sum(CASE WHEN d2 = 1 THEN a ELSE 0 END), sum(CASE WHEN d2 = 2 THEN a ELSE 0 END), sum(CASE WHEN d3 = 'x' AND d2 = 1 THEN a ELSE 0 END), sum(CASE WHEN d3 = 'y' AND d2 IS NULL THEN a ELSE 0 END), count(*) FROM f GROUP BY d1",
	"SELECT d1, sum(CASE WHEN d2 = 3 THEN d3 ELSE 0 END), sum(CASE WHEN d2 = 1 THEN a ELSE 0 END) FROM f GROUP BY d1",
	"SELECT d1, count(*), sum(CASE WHEN d2 = 2 THEN a ELSE 0 END), sum(CASE WHEN d2 = 3 THEN a * d3 ELSE 0 END) FROM f GROUP BY d1",
	"SELECT d1, sum(CASE WHEN a = -1 THEN d2 ELSE 0 END), sum(CASE WHEN a = -5 THEN d2 ELSE 0 END), sum(CASE WHEN a = 3 THEN d2 ELSE 0 END) FROM f WHERE d2 = 1 GROUP BY d1",
	"SELECT d1, sum(CASE WHEN a = -1 THEN d2 ELSE 0 END), sum(CASE WHEN a = -5 THEN d2 ELSE 0 END) FROM f WHERE a = -1 GROUP BY d1",
	"SELECT x.d1, sum(CASE WHEN y.d2 = 0 THEN x.a ELSE 0 END), sum(CASE WHEN y.d2 = 1 THEN x.a ELSE 0 END), sum(CASE WHEN y.d2 IS NULL THEN x.a ELSE 0 END) FROM f x, f y WHERE x.a = y.a GROUP BY x.d1",
	"SELECT sum(CASE WHEN d2 = 0 THEN a ELSE 0 END), sum(CASE WHEN d2 = 9 THEN a ELSE 0 END), count(CASE WHEN d2 = 0 THEN 1 END) FROM f WHERE d1 = 7",
	"SELECT d1, sum(CASE WHEN d2 = 1 OR d2 = 2 THEN a ELSE 0 END), sum(CASE WHEN d2 = 1.0 THEN a ELSE 0 END), sum(CASE WHEN d2 = 1 THEN a ELSE 1 END), sum(CASE WHEN d2 IS NOT NULL THEN a ELSE 0 END), count(CASE WHEN d2 = 1 THEN a ELSE 0 END), sum(CASE WHEN d2 = 2 THEN a ELSE 0 END) FROM f GROUP BY d1",

	"SELECT DISTINCT d1 FROM f",
	"SELECT DISTINCT d1 + d2, d3 FROM f",
	"SELECT DISTINCT d1, d2, d3, a, d1 * 4 + d2 FROM f",
	"SELECT DISTINCT d3 FROM f WHERE d2 = 1",
	"SELECT DISTINCT d2, d3 FROM f WHERE a > 0 ORDER BY d3 DESC, d2 LIMIT 5",
	"SELECT DISTINCT x.d1, y.d3 FROM f x, f y WHERE x.a = y.a",
	"SELECT DISTINCT d1, sum(a) OVER (PARTITION BY d1), count(*) OVER (PARTITION BY d1, d2) FROM f",
	"SELECT DISTINCT count(*) FROM f GROUP BY d1, d3",
	"SELECT DISTINCT d1, sum(a) FROM f GROUP BY d1",
	"SELECT DISTINCT x.d1, sum(y.a) OVER (PARTITION BY x.d1), count(*) OVER (PARTITION BY y.d3) FROM f x, f y WHERE x.a = y.a",
	"SELECT DISTINCT d3 + 1 FROM f",
	"SELECT d1 + d2, sum(a), count(*) FROM f GROUP BY 1",
	"SELECT CASE WHEN d2 = 0 THEN 'zero' ELSE d3 END, min(a), max(a) FROM f GROUP BY 1",
	"SELECT d3, d1 * 10 + d2, count(DISTINCT a), avg(a) FROM f GROUP BY d3, 2",
	"SELECT d1, sum(CASE WHEN d2 = 1 THEN a ELSE 0 END), sum(a * 2 + d2), avg(a - d1) FROM f GROUP BY d1",
	"SELECT d1 + d2, sum(CASE WHEN d3 = 'x' THEN a END) FROM f WHERE d2 = 1 GROUP BY 1",
	"SELECT d1, count(10 / d2), min(10 / d2), max(a / d2) FROM f GROUP BY d1",
	"SELECT d1, sum(d3) FROM f GROUP BY d1",
	"SELECT d1, count(*), sum(CASE WHEN d2 = 3 THEN a * d3 ELSE a END) FROM f GROUP BY d1",
	"SELECT d1 + d2, max(a + d3) FROM f WHERE 10 / d2 > 2 GROUP BY 1",

	"SELECT d1, sum(a) FROM f GROUP BY d1 HAVING sum(a) > 0",
	"SELECT d3, count(*) FROM f GROUP BY d3 HAVING max(a) > 5 AND min(d2) IS NOT NULL",
	"SELECT d1, d2, sum(a) FROM f GROUP BY d1, d2 HAVING CASE WHEN d1 = 3 THEN min(d3) + 1 ELSE 1 END > 0",
	"SELECT d1, CASE WHEN d1 = 4 THEN min(d3) + 1 ELSE sum(a) END FROM f GROUP BY d1",
	"SELECT d1, d3, sum(a), count(*) FROM f GROUP BY d1, d3 ORDER BY 3 DESC, 1, 2 LIMIT 7",
	"SELECT x.d1, CASE WHEN y.a <> 0 THEN x.a / y.a ELSE NULL END, 0 FROM f x JOIN f y ON x.d2 < y.d2 AND y.a > 15 ORDER BY 1, 2 DESC LIMIT 50",
}

// TestFoldOperatorCoversPrimaryShapes: the eight primary queries as Vpct,
// Hpct and Hagg (CASE from F), a computed-key GROUP BY and a join-fed GROUP BY
// all run every fold through the operator — batch.folds moves — and return
// exactly the rows of the reference. The CASE arms of the Hpct and Hagg forms dispatched: the plan's
// one CASE fold, and each of its workers, carries dispatch=<arms>/1 with one
// arm per result column beyond the grouping columns.
func TestFoldOperatorCoversPrimaryShapes(t *testing.T) {
	p := primaryPlanner(t)
	type shape struct {
		sql  string
		opts core.Options
		keys int // ≥ 0: a CASE strategy straight from F with that many grouping columns, every other column an arm
	}
	shapes := []shape{
		{"SELECT age / 10, marstatus, sum(salary), count(*) FROM employee GROUP BY 1, marstatus", core.Options{}, -1},
		{"SELECT s.dweek, sum(s.salesAmt), count(*) FROM sales s, sales d WHERE s.transactionId = d.transactionId GROUP BY s.dweek", core.Options{}, -1},
	}
	for _, q := range primaryShapes() {
		shapes = append(shapes,
			shape{q.vpct, core.DefaultOptions(), -1},
			shape{q.hpct, core.Options{}, q.totals},
			shape{q.hagg, core.Options{Hagg: core.HaggOptions{Method: core.HaggCASE}}, q.totals})
	}
	folds := obs.Default.Counter("batch.folds")
	for _, sh := range shapes {
		engine.UseReference(p.Eng, true)
		ref, err := difftest.Run(p, sh.sql, sh.opts, 1)
		engine.UseReference(p.Eng, false)
		if err != nil {
			t.Fatalf("%s: reference: %v", sh.sql, err)
		}
		for _, par := range difftest.Parallelisms {
			f0 := folds.Value()
			got, err := difftest.Run(p, sh.sql, sh.opts, par)
			if err != nil {
				t.Fatalf("%s: P=%d: %v", sh.sql, par, err)
			}
			if d := folds.Value() - f0; d <= 0 {
				t.Errorf("%s: P=%d: batch.folds moved by %d, want > 0", sh.sql, par, d)
			}
			if diff := difftest.Equal(ref, got); diff != "" {
				t.Errorf("%s: P=%d diverges from the reference: %s", sh.sql, par, diff)
			}
			if sh.keys < 0 {
				continue
			}
			want := fmt.Sprintf("%d/1", len(got.Columns)-sh.keys)
			if spans := attrSpans(t, p, sh.sql, sh.opts, par, "dispatch"); len(spans) == 0 {
				t.Errorf("%s: P=%d: no fold span carries a dispatch attribute", sh.sql, par)
			} else {
				for _, sp := range spans {
					if sp.val != want {
						t.Errorf("%s: P=%d: %s has dispatch=%s, want %s", sh.sql, par, sp.name, sp.val, want)
					}
				}
			}
		}
	}
}

type attrSpan struct{ name, val string }

// attrSpans runs one traced execution and returns the spans that carry the
// attribute key: dispatch on the fold and worker spans of a dispatching fold,
// keys on every fold's stage span.
func attrSpans(t *testing.T, p *core.Planner, sql string, opts core.Options, par int, key string) []attrSpan {
	t.Helper()
	opts.Parallelism = par
	plan, err := p.PlanSQL(sql, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, root, err := p.ExecuteTracedCtx(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	var out []attrSpan
	root.Walk(func(sp *obs.Span) {
		for _, a := range sp.Attrs {
			if a.Key == key {
				out = append(out, attrSpan{sp.Name, a.Value})
			}
		}
	})
	return out
}

// checkKeyRoute fails unless every fold of sql at every parallelism took the
// key route want.
func checkKeyRoute(t *testing.T, p *core.Planner, sql string, opts core.Options, want string) {
	t.Helper()
	for _, par := range difftest.Parallelisms {
		spans := attrSpans(t, p, sql, opts, par, "keys")
		if len(spans) == 0 {
			t.Errorf("%s: P=%d: no fold span carries a keys attribute", sql, par)
		}
		for _, sp := range spans {
			if sp.val != want {
				t.Errorf("%s: P=%d: %s has keys=%s, want %s", sql, par, sp.name, sp.val, want)
			}
		}
	}
}

// TestFoldKeyRoutes: every fold of primary query 8's Vpct plan — the Fk
// step over four small-domain INTEGER keys, the totals over two of them —
// takes the direct route, and so do VARCHAR keys, as codes into a small
// dictionary. A dictionary that outgrows the fold's directory — 100 rows
// filled from a table of 3 000 strings, whose dictionary they share — takes
// the hash route, and groups as the oracle does. A BOOLEAN key takes the
// direct route; a REAL key, whose values have no range, and a computed one,
// coded with its kind, take the hash route. No fold of any of these statements, nor
// of the primary queries' plans, reports a route but direct, hash or none.
func TestFoldKeyRoutes(t *testing.T) {
	checkKeyRoute(t, primaryPlanner(t), primaryShapes()[7].vpct, core.DefaultOptions(), "direct")
	checkKeyRoute(t, difftest.GoldenPlanner(t), "SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city", core.DefaultOptions(), "direct")

	cat := storage.NewCatalog()
	tab, err := cat.Create("b", storage.Schema{{Name: "s", Type: storage.TypeString}, {Name: "a", Type: storage.TypeInt}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if _, err := tab.AppendRow([]value.Value{value.NewString(fmt.Sprint("s", i)), value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	p := core.NewPlanner(engine.New(cat))
	if _, err := p.Eng.ExecSQL("CREATE TABLE d (s VARCHAR, a INTEGER); INSERT INTO d SELECT s, a FROM b WHERE a < 50 OR a >= 2950"); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT s, sum(a), count(*) FROM d GROUP BY s"
	if err := CompareBatch(p, sql, core.Options{}, difftest.Parallelisms); err != nil {
		t.Error(err)
	}
	checkKeyRoute(t, p, sql, core.Options{}, "hash")

	if _, err := p.Eng.ExecSQL("CREATE TABLE r (f REAL, t BOOLEAN, i INTEGER); INSERT INTO r SELECT a / 4.0, CASE WHEN a < 100 THEN NULL ELSE a < 1000 OR a > 2000 END, a FROM b WHERE a < 3000"); err != nil {
		t.Fatal(err)
	}
	routes := []struct{ sql, want string }{
		{"SELECT f, count(*) FROM r GROUP BY f", "hash"},
		{"SELECT DISTINCT f, t FROM r", "hash"},
		{"SELECT t, count(*), sum(i) FROM r GROUP BY t", "direct"},
		{"SELECT t, i / 600, count(*) FROM r GROUP BY t, 2", "hash"},
		{"SELECT CASE WHEN t THEN 'y' ELSE 'n' END, count(*) FROM r GROUP BY 1", "hash"},
	}
	for _, c := range routes {
		if err := CompareBatch(p, c.sql, core.Options{}, difftest.Parallelisms); err != nil {
			t.Error(err)
		}
		checkKeyRoute(t, p, c.sql, core.Options{}, c.want)
	}
	fixedWidth := func(p *core.Planner, sql string, opts core.Options) {
		for _, par := range difftest.Parallelisms {
			for _, sp := range attrSpans(t, p, sql, opts, par, "keys") {
				if sp.val != "direct" && sp.val != "hash" && sp.val != "none" {
					t.Errorf("%s: P=%d: %s has keys=%s", sql, par, sp.name, sp.val)
				}
			}
		}
	}
	for _, c := range routes {
		fixedWidth(p, c.sql, core.Options{})
	}
	pp := primaryPlanner(t)
	for _, q := range primaryShapes() {
		fixedWidth(pp, q.vpct, core.DefaultOptions())
		fixedWidth(pp, q.hpct, core.Options{})
	}
}

// TestDispatchFamilyRoutes: every arm family of the primary queries' Hpct
// plans and of the CASE fan-out benchmark's statement takes the direct
// route; constants outside their columns' values keep a family direct, and so
// do more arms than a batch has tuples; a family over a column whose range no
// directory covers takes the hash route.
func TestDispatchFamilyRoutes(t *testing.T) {
	check := func(e *engine.Engine, what, want string, run func() error) {
		t.Helper()
		routes, err := engine.FamilyRoutes(e, run)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(routes) == 0 {
			t.Errorf("%s: no arm family", what)
		}
		for _, r := range routes {
			if r != want {
				t.Errorf("%s: a family takes the %s route, want %s", what, r, want)
			}
		}
	}
	statement := func(p *core.Planner, sql string) func() error {
		return func() error { _, err := difftest.Run(p, sql, core.Options{}, 1); return err }
	}
	pp := primaryPlanner(t)
	for qi, q := range primaryShapes() {
		check(pp.Eng, fmt.Sprintf("primary %d Hpct", qi+1), "direct", statement(pp, q.hpct))
	}
	e := engine.BenchEngine(t, 100_000)
	check(e, "CASE fan-out", "direct", func() error { _, err := e.ExecSQL(engine.CASEFanoutSQL()); return err })

	cat := storage.NewCatalog()
	loadDispatchEdges(t, cat)
	p := core.NewPlanner(engine.New(cat))
	check(p.Eng, "out-of-range constants", "direct", statement(p, dispatchOutOfRange))
	check(p.Eng, "more arms than a batch has tuples", "direct", statement(p, manyArms()))
	check(p.Eng, "wide range", "hash", statement(p, dispatchWide))
}

// TestDifferentialBatchDirectKeysAfterUpdate: a fold plans its directory over
// the key columns' ranges as the table stands, so an UPDATE that writes keys
// outside the ranges an earlier fold read must widen them for the next one —
// which stays direct and agrees with the oracle at every parallelism. A
// stale range would still group right, through the move to the hash route,
// and the route is what tells.
func TestDifferentialBatchDirectKeysAfterUpdate(t *testing.T) {
	cat := storage.NewCatalog()
	tab, err := cat.Create("g", storage.Schema{{Name: "k", Type: storage.TypeInt}, {Name: "j", Type: storage.TypeInt}, {Name: "a", Type: storage.TypeInt}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if _, err := tab.AppendRow([]value.Value{value.NewInt(int64(i % 40)), value.NewInt(int64(i % 7)), value.NewInt(int64(i % 13))}); err != nil {
			t.Fatal(err)
		}
	}
	p := core.NewPlanner(engine.New(cat))
	const sql = "SELECT k, j, sum(a), count(*) FROM g GROUP BY k, j"
	for _, update := range []string{"", "UPDATE g SET k = 200 WHERE j = 3", "UPDATE g SET j = -40 WHERE k = 7", "UPDATE g SET k = NULL WHERE a = 5"} {
		if update != "" {
			if _, err := p.Eng.ExecSQL(update); err != nil {
				t.Fatal(err)
			}
		}
		if err := CompareBatch(p, sql, core.Options{}, difftest.Parallelisms); err != nil {
			t.Errorf("after %q: %v", update, err)
		}
		checkKeyRoute(t, p, sql, core.Options{}, "direct")
	}
}

// TestDifferentialDirectKeyDecode: a direct-route group keeps its directory
// cell and no key slots, so every key a fold emits is decoded from the cell
// digit by digit. The decode must be exact at the edges of the layout: INTEGER
// ranges ending at either int64 extreme and one with a negative low end, a
// column of NULLs alone (a span of 1), a BOOLEAN with NULLs, VARCHAR codes in
// a dictionary two tables share, of which one table holds a few codes only,
// all eight components of the widest direct key, and a NULL in every
// position. Every statement takes the direct route and agrees with the oracle
// at every parallelism.
func TestDifferentialDirectKeyDecode(t *testing.T) {
	cat := storage.NewCatalog()
	sch := storage.Schema{{Name: "x", Type: storage.TypeInt}, {Name: "y", Type: storage.TypeInt}, {Name: "c", Type: storage.TypeInt},
		{Name: "n", Type: storage.TypeInt}, {Name: "t", Type: storage.TypeBool}, {Name: "s", Type: storage.TypeString},
		{Name: "u", Type: storage.TypeInt}, {Name: "v", Type: storage.TypeInt}, {Name: "m", Type: storage.TypeInt}}
	tab, err := cat.Create("e", sch)
	if err != nil {
		t.Fatal(err)
	}
	// Component k is NULL on every row r with r % nullEvery[k] == 0: row 0 is
	// NULL throughout, and each component is NULL beside every value of the
	// others.
	nullEvery := []int{9, 11, 13, 1, 5, 7, 17, 19}
	row := make([]value.Value, len(sch))
	for r := 0; r < 4000; r++ {
		row[0] = value.NewInt(math.MaxInt64 - int64(r%4))
		row[1] = value.NewInt(math.MinInt64 + int64(r%3))
		row[2] = value.NewInt(-50 + int64(r%4))
		row[4] = value.NewBool(r%3 == 1)
		row[5] = value.NewString([]string{"w0", "w1", "w2", "w3"}[r%4])
		row[6], row[7], row[8] = value.NewInt(int64(r%2)), value.NewInt(int64(r%2+5)), value.NewInt(int64(r%101-30))
		for k, every := range nullEvery {
			if r%every == 0 {
				row[k] = value.Null
			}
		}
		if _, err := tab.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	p := core.NewPlanner(engine.New(cat))
	// d shares e's dictionary for s — the codes of w0, w1 and w3 among its
	// four strings — and holds only rows of two of them.
	if _, err := p.Eng.ExecSQL("CREATE TABLE d (s VARCHAR, u INTEGER, t BOOLEAN, m INTEGER); INSERT INTO d SELECT s, u, t, m FROM e WHERE s = 'w1' OR s = 'w3' OR s IS NULL"); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT x, y, c, sum(m), count(*) FROM e GROUP BY x, y, c",
		"SELECT c, y, x, min(m), max(m) FROM e GROUP BY c, y, x",
		"SELECT n, t, count(*), sum(m) FROM e GROUP BY n, t",
		"SELECT t, n, c FROM e GROUP BY t, n, c",
		"SELECT s, t, sum(m), count(m) FROM e GROUP BY s, t",
		"SELECT s, u, t, sum(m), count(*) FROM d GROUP BY s, u, t",
		"SELECT x, y, c, n, t, s, u, v, count(*), sum(m) FROM e GROUP BY x, y, c, n, t, s, u, v",
		"SELECT v, u, s, t, n, c, y, x FROM e GROUP BY v, u, s, t, n, c, y, x",
		"SELECT DISTINCT n, t, s FROM e",
		"SELECT x, c, Vpct(m BY c) FROM e GROUP BY x, c",
		"SELECT s, u, Vpct(m BY u) FROM d GROUP BY s, u",
	} {
		if err := CompareBatch(p, sql, core.Options{}, difftest.Parallelisms); err != nil {
			t.Error(err)
		}
		checkKeyRoute(t, p, sql, core.Options{}, "direct")
	}
}

// TestDifferentialBatchVarcharEquality: the selection kernel looks a string
// constant up in the column's dictionary once and compares codes, so a
// constant the dictionary lacks selects nothing — and must not select the
// empty string, nor NULL, whose cells hold code 0 — and one an UPDATE adds
// to the dictionary between two statements is found by the second. Every
// statement agrees with the oracle at every parallelism.
func TestDifferentialBatchVarcharEquality(t *testing.T) {
	cat := storage.NewCatalog()
	tab, err := cat.Create("v", storage.Schema{{Name: "s", Type: storage.TypeString}, {Name: "k", Type: storage.TypeInt}, {Name: "a", Type: storage.TypeInt}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		s := value.NewString([]string{"x", "", "yy", "x "}[i%4])
		if i%7 == 0 {
			s = value.Null
		}
		if _, err := tab.AppendRow([]value.Value{s, value.NewInt(int64(i % 5)), value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	p := core.NewPlanner(engine.New(cat))
	queries := []string{
		"SELECT k, count(*), sum(a) FROM v WHERE s = 'x' GROUP BY k",
		"SELECT s, k, a FROM v WHERE s = '' AND k = 2",
		"SELECT count(*) FROM v WHERE s = 'absent'",
		"SELECT s, count(*) FROM v WHERE s = 'late' GROUP BY s",
		"SELECT k, count(*) FROM v WHERE s IS NULL GROUP BY k",
		"SELECT s, k, Vpct(a BY k) FROM v WHERE s = 'yy' GROUP BY s, k",
	}
	for _, update := range []string{"", "UPDATE v SET s = 'late' WHERE k = 3", "UPDATE v SET s = NULL WHERE s = 'x'", "DELETE FROM v WHERE s = ''"} {
		if update != "" {
			if _, err := p.Eng.ExecSQL(update); err != nil {
				t.Fatal(err)
			}
		}
		for _, sql := range queries {
			if err := CompareBatch(p, sql, core.Options{}, difftest.Parallelisms); err != nil {
				t.Errorf("after %q: %v", update, err)
			}
		}
	}
	res, err := p.Eng.ExecSQL("SELECT count(*) FROM v WHERE s = 'late'")
	if err != nil || res.Rows[0][0].Int() != 600 {
		t.Errorf("rows of the string the UPDATE added: %v, %v", res, err)
	}
}

// TestDifferentialBatchRandomizedProperty runs seeded random fact tables —
// NULLs in measures and dimensions, signed measures, string dimensions —
// through the operator and the reference for every property query shape and
// every fold shape. On the first divergence it shrinks the table with ddmin
// and fails with a standalone SQL reproducer.
func TestDifferentialBatchRandomizedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	queries := difftest.PropertyQueries
	for _, sql := range foldShapes {
		queries = append(queries[:len(queries):len(queries)], difftest.Query{SQL: sql})
	}
	for trial := 0; trial < trials; trial++ {
		rows := difftest.RandTableRows(rng, 200+rng.Intn(400))
		p := difftest.PlannerFor(t, rows)
		for qi, q := range queries {
			err := CompareBatch(p, q.SQL, q.Opts, difftest.Parallelisms)
			if err == nil {
				continue
			}
			fails := func(cand [][]value.Value) bool {
				return CompareBatch(difftest.PlannerFor(t, cand), q.SQL, q.Opts, difftest.Parallelisms) != nil
			}
			minRows := difftest.MinimizeRows(rows, fails)
			t.Fatalf("trial %d query %d: %v\nminimized reproducer (%d of %d rows):\n%s-- failing query: %s",
				trial, qi, err, len(minRows), len(rows), difftest.DumpRows("f", difftest.RandSchema, minRows), q.SQL)
		}
	}
}

// TestDifferentialBatchManyGroups runs the operator against the reference
// where the group table, not the kernels, is what is exercised: 9 000 rows —
// nine batches, and at P = 8 partitions of barely more than one — whose keys
// cycle through more than 3 000 values, so that the table doubles its index
// many times over, every group is met again in later batches, and every merge
// both appends groups and adds into shared ones. INTEGER keys take a
// fixed-width route: k, whose values differ only above bit 32, the hash
// route; (u, j), whose directory is just within the cap for 9 000 rows, the
// direct one, and (o, j), just past it, the hash route again — a window
// partitioned by (u, j) looks its tuples up in a direct table. A VARCHAR key
// of 3 100 codes and a computed key, coded with its kind and evaluated a batch
// at a time ahead of the fold, take the hash route; the Hpct
// and Hagg plans dispatch their arms into thousands of groups; HAVING and
// computed items raise at a group of the second batch of groups, each ahead
// of the other; b is REAL, in eighths so that any addition order is exact.
//
// Every key kind takes a fixed-width route, and each has inputs here: a REAL
// key f holding 0.0 and -0.0, NaNs of either sign and NULL beside whole
// numbers, a BOOLEAN key t, computed INTEGER, VARCHAR (a CASE over string
// constants and s) and mixed-kind (f, or a where f is NULL: 1 beside 1.0)
// keys, keys of 9 and 65 columns — wider than a direct-route key, repeating
// columns so that groups repeat — key columns on the NULL-extended side of
// a LEFT JOIN (a GROUP BY, and a window's PARTITION BY), count(DISTINCT) over REAL, BOOLEAN, VARCHAR and mixed-kind
// arguments, SELECT DISTINCT over aggregate output of REAL and BOOLEAN
// columns, and an arm family dispatched over t.
func TestDifferentialBatchManyGroups(t *testing.T) {
	cat := storage.NewCatalog()
	tab, err := cat.Create("g", storage.Schema{
		{Name: "k", Type: storage.TypeInt}, {Name: "j", Type: storage.TypeInt}, {Name: "s", Type: storage.TypeString},
		{Name: "d", Type: storage.TypeInt}, {Name: "a", Type: storage.TypeInt}, {Name: "b", Type: storage.TypeFloat},
		{Name: "u", Type: storage.TypeInt}, {Name: "o", Type: storage.TypeInt},
		{Name: "f", Type: storage.TypeFloat}, {Name: "t", Type: storage.TypeBool},
	})
	if err != nil {
		t.Fatal(err)
	}
	// j takes 5 values and no NULL: 6 digits. u's 0..top and its NULL make
	// the directory 6·(top + 2) ≤ cap cells; o's one value more, > cap.
	top := int64(engine.DirectCells(9000)/6 - 2)
	rng := rand.New(rand.NewSource(3200))
	negZero, negNaN := math.Copysign(0, -1), math.Float64frombits(math.Float64bits(math.NaN())|1<<63)
	reals := []value.Value{value.NewFloat(0), value.NewFloat(negZero), value.NewFloat(math.NaN()), value.NewFloat(1),
		value.NewFloat(negNaN), value.NewFloat(2), value.NewFloat(1.5), value.Null, value.NewFloat(-3)}
	bools := []value.Value{value.Null, value.NewBool(true), value.NewBool(false)}
	for i := 0; i < 9000; i++ {
		row := []value.Value{
			value.NewInt(int64(i%3200) << 33), // keys that differ only above bit 32
			value.NewInt(int64(i % 5)),
			value.NewString(fmt.Sprintf("store-%04d", i%3100)),
			value.NewInt(int64(rng.Intn(4))),
			value.NewInt(int64(rng.Intn(41) - 20)),
			value.NewFloat(float64(rng.Intn(400)-200) / 8),
			value.NewInt(int64(i % 2900)),
			value.NewInt(int64(i % 2900)),
			reals[i%len(reals)],
			bools[i/7%len(bools)],
		}
		for c := 3; c < 6; c++ {
			if rng.Intn(15) == 0 {
				row[c] = value.Null
			}
		}
		if i%3200 == 17 {
			row[0] = value.Null // one NULL-keyed group beside k = 0
			row[6] = value.Null
		}
		if i == 4500 {
			row[6], row[7] = value.NewInt(top), value.NewInt(top+1)
		}
		if _, err := tab.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	p := core.NewPlanner(engine.New(cat))
	for _, c := range []struct {
		sql  string
		opts core.Options
	}{
		{"SELECT k, sum(a), count(*), max(a) FROM g GROUP BY k", core.Options{}},
		{"SELECT k, j, sum(b), min(b), count(b) FROM g GROUP BY k, j", core.Options{}},
		{"SELECT s, sum(a), min(b), avg(a) FROM g GROUP BY s", core.Options{}},
		{"SELECT k / 2 + j, sum(a), count(DISTINCT d) FROM g GROUP BY 1", core.Options{}},
		{"SELECT DISTINCT s, j FROM g WHERE d = 1", core.Options{}},
		{"SELECT k, j, Vpct(b BY j) FROM g GROUP BY k, j", core.DefaultOptions()},
		{"SELECT k, Hpct(a BY d) FROM g GROUP BY k", core.Options{}},
		{"SELECT s, Hpct(b BY d) FROM g GROUP BY s", core.Options{Hpct: core.HpctOptions{FromFV: true}}},
		{"SELECT k, sum(b BY d), count(* BY d) FROM g GROUP BY k", core.Options{Hagg: core.HaggOptions{Method: core.HaggCASE}}},
		// Group projections past the first batch of groups: k's group at
		// position p is p << 33, so k > 1500 << 33 is group 1501 on.
		{"SELECT k, sum(a) FROM g GROUP BY k HAVING count(*) > 2 AND sum(a) > 0", core.Options{}},
		{"SELECT k, sum(a) FROM g GROUP BY k HAVING CASE WHEN k > 1500 * 8589934592 THEN min(s) + 1 ELSE 1 END > 0", core.Options{}},
		{"SELECT k, CASE WHEN k > 1500 * 8589934592 THEN min(s) + 1 ELSE sum(a) END FROM g GROUP BY k", core.Options{}},
		{"SELECT k, CASE WHEN k > 1500 * 8589934592 THEN min(s) + 1 ELSE 0 END FROM g GROUP BY k HAVING CASE WHEN k > 1600 * 8589934592 THEN max(s) - 1 ELSE 1 END > 0", core.Options{}},
		{"SELECT k, CASE WHEN k > 1600 * 8589934592 THEN min(s) + 1 ELSE 0 END FROM g GROUP BY k HAVING CASE WHEN k > 1500 * 8589934592 THEN max(s) - 1 ELSE 1 END > 0", core.Options{}},
		{"SELECT u, j, sum(a), count(*), min(b) FROM g GROUP BY u, j", core.Options{}},
		{"SELECT o, j, sum(a), count(*), min(b) FROM g GROUP BY o, j", core.Options{}},
		{"SELECT DISTINCT u, j, sum(a) OVER (PARTITION BY u, j), count(*) OVER (PARTITION BY j) FROM g", core.Options{}},

		{"SELECT f, count(*), sum(a), min(b) FROM g GROUP BY f", core.Options{}},
		{"SELECT t, f, count(*), max(a) FROM g GROUP BY t, f", core.Options{}},
		{"SELECT t, j, sum(a), count(*) FROM g GROUP BY t, j", core.Options{}},
		{"SELECT DISTINCT f, t FROM g WHERE d = 1", core.Options{}},
		{"SELECT d * 10 + j, count(*), sum(a) FROM g GROUP BY 1", core.Options{}},
		{"SELECT CASE WHEN d = 1 THEN 'one' WHEN d = 2 THEN 'two' ELSE s END, count(*), sum(a) FROM g GROUP BY 1", core.Options{}},
		{"SELECT CASE WHEN f IS NULL THEN a ELSE f END, count(*), sum(a) FROM g GROUP BY 1", core.Options{}},
		{"SELECT j, t, f, d, a, count(*), sum(b) FROM g GROUP BY j, t, f, d, a, s, j, t, f", core.Options{}},
		{"SELECT count(*), sum(a), min(s) FROM g GROUP BY " + strings.Repeat("j, t, f, d, ", 16) + "a", core.Options{}},
		{"SELECT y.j, y.s, y.f, y.t, count(*), sum(x.a) FROM g x LEFT JOIN g y ON x.k = y.u GROUP BY y.j, y.s, y.f, y.t", core.Options{}},
		{"SELECT DISTINCT y.j, y.f, count(*) OVER (PARTITION BY y.j, y.f) FROM g x LEFT JOIN g y ON x.k = y.u", core.Options{}},
		{"SELECT j, count(DISTINCT f), count(DISTINCT t), count(DISTINCT s), count(DISTINCT CASE WHEN f IS NULL THEN a ELSE f END) FROM g GROUP BY j", core.Options{}},
		{"SELECT DISTINCT t, min(f), max(b), sum(b) > 0 FROM g GROUP BY d, t", core.Options{}},
		{"SELECT k, sum(CASE WHEN t = true THEN a ELSE 0 END), sum(CASE WHEN t = false THEN a ELSE 0 END), sum(CASE WHEN t IS NULL THEN b ELSE 0 END) FROM g GROUP BY k", core.Options{}},
		{"SELECT j, Hpct(a BY t), count(*) FROM g GROUP BY j", core.Options{}},
	} {
		if err := CompareBatch(p, c.sql, c.opts, difftest.Parallelisms); err != nil {
			t.Error(err)
		}
	}
	checkKeyRoute(t, p, "SELECT u, j, sum(a) FROM g GROUP BY u, j", core.Options{}, "direct")
	checkKeyRoute(t, p, "SELECT o, j, sum(a) FROM g GROUP BY o, j", core.Options{}, "hash")
	checkKeyRoute(t, p, "SELECT k, sum(a) FROM g GROUP BY k", core.Options{}, "hash")
	checkKeyRoute(t, p, "SELECT DISTINCT u, j, sum(a) OVER (PARTITION BY u, j) FROM g", core.Options{}, "direct")
	res, err := difftest.Run(p, "SELECT k, count(*) FROM g GROUP BY k", core.Options{}, 8)
	if err != nil || len(res.Rows) != 3200 {
		t.Fatalf("%d groups, want 3200 (3199 keys and NULL): %v", len(res.Rows), err)
	}
}

// dispatchSchema and dispatchRows are the hand-built table of the directed
// dispatch test: an INTEGER and a VARCHAR dimension with NULLs, an INTEGER
// measure and a FLOAT one whose sums are exact. Per group k:
//
//	1  every row is d = 1 and b = -0.0: the arm skips nothing, so the sum
//	   stays -0.0
//	2  d = 1 rows of b = -0.0 beside a d = 2 row: one zero addend makes +0.0
//	3  the d = 1 rows carry only NULL measures and another row is skipped: 0,
//	   not NULL, under ELSE 0 — and NULL under ELSE NULL
//	4  every row is d = 1 with NULL measures: NULL either way
//	5  d is NULL or 2, measures mix signs; s is NULL on one row
var dispatchSchema = storage.Schema{
	{Name: "k", Type: storage.TypeInt},
	{Name: "d", Type: storage.TypeInt},
	{Name: "s", Type: storage.TypeString},
	{Name: "a", Type: storage.TypeInt},
	{Name: "b", Type: storage.TypeFloat},
}

func dispatchRows() [][]value.Value {
	negZero := value.NewFloat(math.Copysign(0, -1))
	i, f, str, null := value.NewInt, value.NewFloat, value.NewString, value.Null
	return [][]value.Value{
		{i(1), i(1), str("x"), i(4), negZero},
		{i(2), i(1), str("x"), i(-3), negZero},
		{i(3), i(1), str("y"), null, null},
		{i(5), null, str("x"), i(7), f(2.5)},
		{i(1), i(1), str("y"), i(6), negZero},
		{i(2), i(2), str("y"), i(9), f(1.25)},
		{i(4), i(1), str("x"), null, null},
		{i(3), i(2), str("x"), i(2), f(-0.75)},
		{i(5), i(2), null, i(-7), f(-2.5)},
		{i(2), i(1), str("x"), i(1), negZero},
		{i(3), i(1), str("x"), null, null},
		{i(4), i(1), str("y"), null, null},
		{i(5), null, str("y"), i(1), f(0.5)},
	}
}

// loadDispatchEdges adds table h to cat: 64 rows whose first eight, folded
// as one batch by one worker at every parallelism up to 8, hold groups k = 1
// and 2. Group 1's d = 1 rows carry 1, 1e16, -1e16 and its d = 2 rows 1e16,
// -1e16, 1, interleaved: each sum is 0 or 1 as the rows are added forwards
// or backwards. The 56 rows after them (k 3 to 6) mix NULLs into d, s and w
// and carry exact measures. d spans [0, 3] and w holds 0 and 10 000 000, a
// range no directory over 64 rows covers.
func loadDispatchEdges(t *testing.T, cat *storage.Catalog) {
	t.Helper()
	tab, err := cat.Create("h", storage.Schema{
		{Name: "k", Type: storage.TypeInt},
		{Name: "d", Type: storage.TypeInt},
		{Name: "s", Type: storage.TypeString},
		{Name: "w", Type: storage.TypeInt},
		{Name: "a", Type: storage.TypeInt},
		{Name: "b", Type: storage.TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	i, f, str, null := value.NewInt, value.NewFloat, value.NewString, value.Null
	rows := [][]value.Value{
		{i(1), i(1), str("x"), i(0), i(1), f(1)},
		{i(1), i(2), str("y"), i(0), i(2), f(1e16)},
		{i(2), i(1), str("x"), i(0), i(3), f(5)},
		{i(1), i(1), str("x"), i(0), i(4), f(1e16)},
		{i(1), i(2), str("y"), i(0), i(5), f(-1e16)},
		{i(1), i(1), str("y"), i(0), i(6), f(-1e16)},
		{i(1), i(2), str("x"), i(0), i(7), f(1)},
		{i(2), i(2), null, null, i(8), f(0.5)},
	}
	ds := []value.Value{null, i(0), i(1), i(2), i(3)}
	ss := []value.Value{null, str("x"), str("y"), str("z")}
	ws := []value.Value{i(0), i(10_000_000), null}
	for n := 0; n < 56; n++ {
		rows = append(rows, []value.Value{i(int64(3 + n%4)), ds[n%5], ss[n%4], ws[n%3], i(int64(n%7 - 3)), f(float64(n%5) - 1.5)})
	}
	for _, r := range rows {
		if _, err := tab.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
}

// The arm families over h whose routes TestDispatchFamilyRoutes pins:
// constants outside d's values and strings s lacks, which match nothing and
// keep the family direct, and a family over w, which takes the hash route.
const (
	dispatchOutOfRange = "SELECT k, sum(CASE WHEN d = 1000 THEN b ELSE 0 END), sum(CASE WHEN d = -100 THEN a END), sum(CASE WHEN d = 1 THEN a ELSE 0 END), count(CASE WHEN s = 'zz' THEN 1 END), sum(CASE WHEN s = 'absent' THEN b ELSE 0 END), sum(CASE WHEN s = 'x' THEN a END) FROM h GROUP BY k"
	dispatchWide       = "SELECT k, sum(CASE WHEN w = 0 THEN b ELSE 0 END), sum(CASE WHEN w = 10000000 THEN a END), sum(CASE WHEN w IS NULL THEN b ELSE 0 END), sum(CASE WHEN w = 5 THEN a ELSE 0 END) FROM h GROUP BY k"
)

// manyArms is a fold over h with one family of more arms than a batch has
// tuples: a = -550 … 550, a range that still goes direct.
func manyArms() string {
	var b strings.Builder
	b.WriteString("SELECT k")
	for v := -550; v <= 550; v++ {
		fmt.Fprintf(&b, ", sum(CASE WHEN a = %d THEN b ELSE 0 END)", v)
	}
	b.WriteString(" FROM h GROUP BY k")
	return b.String()
}

// TestDifferentialBatchDispatch runs the dimension dispatch over the
// hand-built table — where each group pins one clause of the ELSE settlement
// rule — as plain CASE folds over INTEGER, FLOAT and INTEGER-then-FLOAT
// measures and as Hpct and Hagg plans, direct and from FV, one and two BY
// lists per statement. Over h (loadDispatchEdges) it runs the batch's sort
// by entry, whose stability group 1's REAL sums tell, constants no row
// holds, a two-column family with IS NULL arms, batches in which no row
// matches an arm, a family over a LEFT JOIN's NULL-extended column, one on
// the hash route, and one of more entries than a batch has tuples.
func TestDifferentialBatchDispatch(t *testing.T) {
	cat := storage.NewCatalog()
	tab, err := cat.Create("g", dispatchSchema)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range dispatchRows() {
		if _, err := tab.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	loadDispatchEdges(t, cat)
	p := core.NewPlanner(engine.New(cat))
	arms := func(then, els string) string {
		return fmt.Sprintf("sum(CASE WHEN d = 1 THEN %s%s END), sum(CASE WHEN d = 2 THEN %s%s END), sum(CASE WHEN d IS NULL THEN %s%s END), sum(CASE WHEN d = 3 THEN %s%s END)",
			then, els, then, els, then, els, then, els)
	}
	caseFV := core.Options{Hagg: core.HaggOptions{Method: core.HaggCASE, FromFV: true}}
	cases := []struct {
		sql  string
		opts core.Options
	}{
		{"SELECT k, " + arms("b", " ELSE 0") + " FROM g GROUP BY k", core.Options{}},
		{"SELECT k, " + arms("a", " ELSE 0") + " FROM g GROUP BY k", core.Options{}},
		{"SELECT k, " + arms("b", " ELSE NULL") + ", " + arms("a", "") + " FROM g GROUP BY k", core.Options{}},
		{"SELECT s, " + arms("CASE WHEN a > 0 THEN a ELSE b END", " ELSE 0") + " FROM g GROUP BY s", core.Options{}},
		{"SELECT " + arms("b", " ELSE 0") + " FROM g", core.Options{}},
		{"SELECT k, sum(CASE WHEN s = 'x' AND d = 1 THEN b ELSE 0 END), sum(CASE WHEN s IS NULL AND d = 2 THEN b ELSE 0 END), sum(CASE WHEN s = 'y' AND d IS NULL THEN b ELSE 0 END) FROM g GROUP BY k", core.Options{}},
		{"SELECT k, Hpct(a BY d) FROM g GROUP BY k", core.Options{}},
		{"SELECT k, Hpct(b BY d) FROM g GROUP BY k", core.Options{Hpct: core.HpctOptions{FromFV: true}}},
		{"SELECT k, Hpct(a BY d), Hpct(a BY s, d), count(*) FROM g GROUP BY k", core.Options{}},
		{"SELECT Hpct(b BY s) FROM g", core.Options{}},
		{"SELECT k, sum(b BY d), count(a BY d), min(a BY s) FROM g GROUP BY k", core.Options{Hagg: core.HaggOptions{Method: core.HaggCASE}}},
		{"SELECT k, sum(b BY d), count(a BY d), max(b BY s) FROM g GROUP BY k", caseFV},
		{"SELECT k, count(* BY d), avg(b BY d) FROM g GROUP BY k", core.Options{Hagg: core.HaggOptions{Method: core.HaggCASE}}},

		{"SELECT k, sum(CASE WHEN d = 1 THEN b END), sum(CASE WHEN d = 2 THEN b ELSE 0 END), count(CASE WHEN d = 1 THEN 1 END), sum(CASE WHEN d = 3 THEN b ELSE 0 END) FROM h GROUP BY k", core.Options{}},
		{dispatchOutOfRange, core.Options{}},
		{"SELECT k, sum(CASE WHEN d = 1000 THEN b ELSE 0 END), sum(CASE WHEN d = -100 THEN a END), sum(CASE WHEN s = 'zz' THEN a ELSE 0 END) FROM h GROUP BY k", core.Options{}},
		{"SELECT k, sum(CASE WHEN s IS NULL AND d = 1 THEN b ELSE 0 END), sum(CASE WHEN s = 'x' AND d IS NULL THEN a ELSE 0 END), sum(CASE WHEN s IS NULL AND d IS NULL THEN b END), sum(CASE WHEN s = 'y' AND d = 2 THEN b ELSE 0 END), sum(CASE WHEN s = 'zz' AND d = 1 THEN a END) FROM h GROUP BY k", core.Options{}},
		{"SELECT k, Hpct(a BY s, d) FROM h GROUP BY k", core.Options{}},
		{"SELECT k, sum(CASE WHEN d = 1 THEN b ELSE 0 END), sum(CASE WHEN d = 2 THEN a END), sum(CASE WHEN s IS NULL AND d = 0 THEN a ELSE 0 END) FROM h WHERE d = 3 GROUP BY k", core.Options{}},
		{"SELECT sum(CASE WHEN d = 1 THEN b ELSE 0 END), sum(CASE WHEN d IS NULL THEN a END) FROM h WHERE s = 'z' AND d > 1", core.Options{}},
		{"SELECT x.k, sum(CASE WHEN y.d = 1 THEN x.a ELSE 0 END), sum(CASE WHEN y.d IS NULL THEN x.a ELSE 0 END), sum(CASE WHEN y.d = 2 THEN x.b END), sum(CASE WHEN y.s = 'x' AND y.d = 1 THEN x.a END) FROM h x LEFT JOIN g y ON x.k = y.k GROUP BY x.k", core.Options{}},
		{dispatchWide, core.Options{}},
		{manyArms(), core.Options{}},
	}
	for _, c := range cases {
		if err := CompareBatch(p, c.sql, c.opts, difftest.Parallelisms); err != nil {
			t.Error(err)
		}
	}
	// The rule itself, not only agreement with the reference.
	res, err := difftest.Run(p, "SELECT k, sum(CASE WHEN d = 1 THEN b ELSE 0 END), sum(CASE WHEN d = 1 THEN b ELSE NULL END) FROM g GROUP BY k ORDER BY k", core.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"-0 -0", "+0 -0", "0 NULL", "NULL NULL", "0 NULL"}
	for ri, row := range res.Rows {
		var got []string
		for _, v := range row[1:] {
			switch {
			case v.Kind() == value.KindFloat && math.Signbit(v.Float()):
				got = append(got, "-0")
			case v.Kind() == value.KindFloat:
				got = append(got, "+0")
			default:
				got = append(got, v.String())
			}
		}
		if g := strings.Join(got, " "); g != want[ri] {
			t.Errorf("group k=%v: ELSE 0 / ELSE NULL arms = %s, want %s", row[0], g, want[ri])
		}
	}
}

// TestDifferentialBatchErroringPredicates pins the error-determinism rule:
// WHERE clauses that can raise per-row errors (division by zero, type
// mismatches) force the batch path into interleaved pred-then-fold order,
// so the batch run must fail with exactly the scalar path's error — same
// row, same message — or succeed with identical rows when no row errors.
func TestDifferentialBatchErroringPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	queries := []string{
		// 10/d2 errors on the first d2=0 row; scan order fixes which row.
		"SELECT d1, sum(a) FROM f WHERE 10 / d2 > 2 GROUP BY d1",
		// Errors only when a d2=0 row survives the d1 filter first.
		"SELECT d1, count(*) FROM f WHERE d1 = 1 AND 10 / d2 > 2 GROUP BY d1",
		// Error-free filters stay vectorized; results must still match.
		"SELECT d1, sum(a), min(a), max(a) FROM f WHERE d2 = 1 GROUP BY d1",
		"SELECT d3, count(a) FROM f WHERE d1 IS NULL GROUP BY d3",
	}
	for trial := 0; trial < 4; trial++ {
		rows := difftest.RandTableRows(rng, 300)
		p := difftest.PlannerFor(t, rows)
		for qi, sql := range queries {
			if err := CompareBatch(p, sql, core.Options{}, difftest.Parallelisms); err != nil {
				t.Errorf("trial %d query %d: %v", trial, qi, err)
			}
		}
	}
}

// TestDifferentialBatchMetamorphicVpct rides the paper's vertical invariant
// on the batch path: with a non-negative measure, every Vpct value lies in
// [0, 1] and each super-group sums to 1 at every parallelism, batch on.
func TestDifferentialBatchMetamorphicVpct(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 3; trial++ {
		rows := difftest.RandTableRows(rng, 400)
		for _, r := range rows {
			if !r[3].IsNull() && r[3].Int() < 0 {
				r[3] = value.NewInt(-r[3].Int())
			}
		}
		p := difftest.PlannerFor(t, rows)
		for _, par := range difftest.Parallelisms {
			res, err := difftest.Run(p, "SELECT d1, d2, Vpct(a BY d2) FROM f GROUP BY d1, d2", core.DefaultOptions(), par)
			if err != nil {
				t.Fatal(err)
			}
			sums := map[string]float64{}
			skip := map[string]bool{}
			for ri, row := range res.Rows {
				v := row[2]
				key := row[0].String()
				if v.IsNull() {
					skip[key] = true
					continue
				}
				f, _ := v.AsFloat()
				if f < 0 || f > 1 {
					t.Fatalf("trial %d P=%d row %d: Vpct %v outside [0,1]", trial, par, ri, f)
				}
				sums[key] += f
			}
			for key, s := range sums {
				if skip[key] {
					continue
				}
				if s < 1-1e-9 || s > 1+1e-9 {
					t.Fatalf("trial %d P=%d super-group %s sums to %v, want 1", trial, par, key, s)
				}
			}
		}
	}
}

// TestDifferentialBatchMetamorphicHpct rides the horizontal invariant on
// the batch path: each Hpct row sums to 1 or NULL-propagates whole.
func TestDifferentialBatchMetamorphicHpct(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 3; trial++ {
		p := difftest.PlannerFor(t, difftest.RandTableRows(rng, 400))
		for _, par := range difftest.Parallelisms {
			res, err := difftest.Run(p, "SELECT d1, Hpct(a BY d2) FROM f GROUP BY d1", core.Options{}, par)
			if err != nil {
				t.Fatal(err)
			}
			for ri, row := range res.Rows {
				sum := 0.0
				nulls := 0
				for _, v := range row[1:] {
					if v.IsNull() {
						nulls++
						continue
					}
					f, _ := v.AsFloat()
					sum += f
				}
				switch {
				case nulls == len(row)-1:
					// whole row NULL-propagated under the division-by-zero rule
				case nulls > 0:
					t.Fatalf("trial %d P=%d row %d: mixed NULL and non-NULL percentages: %v", trial, par, ri, row)
				case sum < 1-1e-9 || sum > 1+1e-9:
					t.Fatalf("trial %d P=%d row %d: percentages sum to %v, want 1", trial, par, ri, sum)
				}
			}
		}
	}
}

// TestDifferentialBatchFullDirectory covers the early stop of a fold with no
// aggregate (foldOp.saturation): DISTINCT and GROUP BY without aggregates
// agree with the reference at every parallelism, row for row and error for
// error, and read less than the table only where the stop is allowed — a
// key of bare NULL-free columns, plain or under a kernel filter, an INTEGER,
// a dictionary-coded VARCHAR or a BOOLEAN. A key holding a NULL, a computed
// key, a LEFT JOIN and a filter that can raise read every row, and the filter
// still raises at the table's last row. Rows appended after the fold was
// planned are not read: the fold reads the rows its plan counted.
func TestDifferentialBatchFullDirectory(t *testing.T) {
	const n = 5000
	cat := storage.NewCatalog()
	tab, err := cat.Create("t", storage.Schema{
		{Name: "a", Type: storage.TypeInt}, {Name: "b", Type: storage.TypeInt}, {Name: "s", Type: storage.TypeString},
		{Name: "c", Type: storage.TypeBool}, {Name: "nl", Type: storage.TypeInt}, {Name: "z", Type: storage.TypeInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		nl, z := value.NewInt(int64(i%4)), value.NewInt(1)
		if i%11 == 10 {
			nl = value.Null
		}
		if i == n-1 {
			z = value.NewInt(0)
		}
		row := []value.Value{value.NewInt(int64(i % 7)), value.NewInt(int64(i % 3)), value.NewString(fmt.Sprint("s", i%5)), value.NewBool(i%2 == 0), nl, z}
		if _, err := tab.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	u, err := cat.Create("u", storage.Schema{{Name: "a", Type: storage.TypeInt}, {Name: "d", Type: storage.TypeInt}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := u.AppendRow([]value.Value{value.NewInt(int64(i)), value.NewInt(int64(i * 10))}); err != nil {
			t.Fatal(err)
		}
	}
	p := core.NewPlanner(engine.New(cat))
	scanned := obs.Default.Counter("engine.rows.scanned")
	for _, tc := range []struct {
		sql   string
		stops bool
	}{
		{"SELECT DISTINCT a, b FROM t", true},
		{"SELECT a, b FROM t GROUP BY a, b", true},
		{"SELECT DISTINCT b, a FROM t ORDER BY a DESC, b", true},
		{"SELECT DISTINCT s FROM t", true},
		{"SELECT DISTINCT c, s FROM t", true},
		{"SELECT DISTINCT a FROM t WHERE b = 1", true},
		{"SELECT a FROM t WHERE s = 's2' AND c IS NOT NULL GROUP BY a HAVING a > 2", true},
		{"SELECT DISTINCT nl FROM t", false},
		{"SELECT DISTINCT a, nl FROM t", false},
		{"SELECT DISTINCT a + 1 FROM t", false},
		{"SELECT DISTINCT a FROM t WHERE 10 / z > 0", false},
		{"SELECT a FROM t WHERE b = 1 AND 10 / z > 0 GROUP BY a", false},
		{"SELECT DISTINCT t.a, u.d FROM t LEFT JOIN u ON t.a = u.a", false},
		{"SELECT DISTINCT t.a FROM t LEFT JOIN u ON t.a = u.a", false},
		{"SELECT a, count(*) FROM t GROUP BY a", false},
	} {
		if err := CompareBatch(p, tc.sql, core.Options{}, difftest.Parallelisms); err != nil {
			t.Error(err)
		}
		for _, par := range []int{1, 2} {
			before := scanned.Value()
			_, err := p.Eng.ExecSQLCtxP(context.Background(), tc.sql, par)
			if read := scanned.Value() - before; err == nil && (read < n) != tc.stops {
				t.Errorf("%s at P=%d scanned %d of %d rows; want a stop: %v", tc.sql, par, read, n, tc.stops)
			}
		}
	}

	// Appended after planning: an out-of-bounds a, a new string and a NULL,
	// none of which the fold may meet.
	for _, par := range difftest.Parallelisms {
		name := fmt.Sprint("w", par)
		w, err := cat.Create(name, storage.Schema{{Name: "a", Type: storage.TypeInt}, {Name: "s", Type: storage.TypeString}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := w.AppendRow([]value.Value{value.NewInt(int64(i % 3)), value.NewString(fmt.Sprint("s", i%2))}); err != nil {
				t.Fatal(err)
			}
		}
		engine.UseReference(p.Eng, true)
		want, err := p.Eng.ExecSQL("SELECT DISTINCT a, s FROM " + name)
		engine.UseReference(p.Eng, false)
		if err != nil {
			t.Fatal(err)
		}
		got, read, err := engine.DistinctAfter(p.Eng, name, []string{"a", "s"}, par, func() error {
			for _, row := range [][]value.Value{
				{value.NewInt(9), value.NewString("s0")},
				{value.NewInt(1), value.NewString("late")},
				{value.Null, value.NewString("s1")},
			} {
				if _, err := w.AppendRow(row); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want.Rows) {
			t.Errorf("P=%d, rows appended after planning: %v, want the first %d rows' %v", par, got, n, want.Rows)
		}
		if read > n {
			t.Errorf("P=%d: the fold read %d rows; the plan counted %d", par, read, n)
		}
		if par < 8 && read >= n {
			t.Errorf("P=%d: the fold read %d rows; its directory filling should have stopped it", par, read)
		}
	}
}
