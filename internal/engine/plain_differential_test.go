package engine_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/leakcheck"
	"repro/internal/storage"
	"repro/internal/value"
)

// plainFixture loads what the plain-select shapes read, n rows of t:
//
//	t  (id, i, r, s, b, z, w)  a row number; a small INTEGER, a REAL (with both
//	                           zeros), a VARCHAR and a BOOLEAN, each NULL now and
//	                           then; z, a divisor that is often 0 or NULL; and w,
//	                           INTEGERs spread over all 64 bits
//	d  (k, v, name)            dimension rows by k: no row for some values of
//	                           t.i, one for some, many for others, and NULL keys
//	dx                         d again, indexed on k
//	n  (name, q)               a third table, keyed by d.name
//	o  (a, b, c)               an INSERT target holding two rows, indexed on a
func plainFixture(t *testing.T, n int) *engine.Engine {
	t.Helper()
	e := engine.New(storage.NewCatalog())
	difftest.MustExec(t, e, `CREATE TABLE t (id INTEGER, i INTEGER, r REAL, s VARCHAR, b BOOLEAN, z INTEGER, w INTEGER);
		CREATE TABLE d (k INTEGER, v REAL, name VARCHAR); CREATE TABLE dx (k INTEGER, v REAL, name VARCHAR);
		CREATE TABLE n (name VARCHAR, q INTEGER);
		CREATE TABLE o (a INTEGER, b REAL, c VARCHAR); CREATE INDEX o_a ON o (a)`)
	rng := rand.New(rand.NewSource(int64(24 + n)))
	tab, _ := e.Catalog().Get("t")
	reals := []float64{-2.5, math.Copysign(0, -1), 0, 0.5, 3, 1e300}
	strs := []string{"", "a", "ab", "b", "B", "x"}
	wide := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
	null := func(v value.Value) value.Value {
		if rng.Intn(9) == 0 {
			return value.Null
		}
		return v
	}
	for id := 0; id < n; id++ {
		row := []value.Value{
			value.NewInt(int64(id)),
			null(value.NewInt(int64(rng.Intn(9) - 2))),
			null(value.NewFloat(reals[rng.Intn(len(reals))])),
			null(value.NewString(strs[rng.Intn(len(strs))])),
			null(value.NewBool(rng.Intn(2) == 0)),
			null(value.NewInt(int64(rng.Intn(3)))),
			null(value.NewInt(wide[rng.Intn(len(wide))])),
		}
		if _, err := tab.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	// Keys -2 and -1 have no row, 0..2 one, 3 and 4 three each, 5 forty.
	var dim []string
	for k, copies := range map[int]int{0: 1, 1: 1, 2: 1, 3: 3, 4: 3, 5: 40} {
		for c := 0; c < copies; c++ {
			dim = append(dim, fmt.Sprintf("(%d, %d.5, '%s')", k, k*10+c, strs[(k+c)%len(strs)]))
		}
	}
	dim = append(dim, "(NULL, 7, 'a')", "(NULL, NULL, NULL)", "(6, 0, 'b')")
	sortStrings(dim) // map order is not the fixture's to depend on
	for _, name := range []string{"d", "dx"} {
		difftest.MustExec(t, e, "INSERT INTO "+name+" VALUES "+strings.Join(dim, ", "))
	}
	difftest.MustExec(t, e, `CREATE INDEX dx_k ON dx (k);
		INSERT INTO n VALUES ('a', 1), ('a', 2), ('b', 3), (NULL, 4), ('zz', 5)`)
	return e
}

func sortStrings(s []string) {
	for i := range s {
		for j := i + 1; j < len(s); j++ {
			if s[j] < s[i] {
				s[i], s[j] = s[j], s[i]
			}
		}
	}
}

// plainShapes are the statements the batch pipeline runs, every one against
// the row-at-a-time oracle. The raising items fire on row 1500 — row 476 of
// the second batch — and the rows around it, so the smaller fixtures run them
// clean.
var plainShapes = []string{
	// Scans and gathers of every column type.
	"SELECT * FROM t",
	"SELECT s, b, r, i, id FROM t",
	"SELECT id, i + 1, r * 2, s FROM t",
	// Filters: kernel conjuncts, non-kernel ones, both, and ones that raise.
	"SELECT id, s FROM t WHERE i = 3",
	"SELECT id FROM t WHERE s = 'a' AND b IS NOT NULL AND i = 1",
	"SELECT id, r FROM t WHERE r > 0",
	"SELECT id, r FROM t WHERE i = 2 AND r > 0",
	"SELECT id FROM t WHERE id = id AND i = 4 AND z IS NULL",
	"SELECT id FROM t WHERE i = 2 AND 10 / z > 2",
	"SELECT id FROM t WHERE z = 1 AND CASE WHEN id = 1500 THEN 'x' + 1 ELSE 1 END = 1",
	"SELECT id FROM t WHERE b AND i <> 5 AND CASE WHEN id >= 1500 THEN 'x' + 1 ELSE 1 END = 1",
	// The guarded division over INTEGER / REAL / NULL / zero divisors.
	"SELECT id, CASE WHEN z <> 0 THEN i / z ELSE NULL END FROM t",
	"SELECT id, CASE WHEN r <> 0 THEN i / r ELSE NULL END, CASE WHEN z <> 0 THEN r / z END FROM t",
	"SELECT id, CASE WHEN r <> 0 THEN r / r ELSE NULL END, CASE WHEN w <> 0 THEN id / w ELSE NULL END FROM t WHERE z = 0",
	"SELECT id, CASE WHEN s <> 0 THEN i / s ELSE NULL END FROM t WHERE id < 1200",
	"SELECT id, CASE WHEN b <> 0 THEN i / b ELSE NULL END FROM t",
	// Items that raise: the first error in row order wins, whichever item,
	// predicate or batch it is in.
	"SELECT id, CASE WHEN id = 1500 THEN 'x' + 1 ELSE id END FROM t",
	"SELECT CASE WHEN id = 1500 THEN 'x' + 1 ELSE id END, CASE WHEN id = 1400 THEN -s ELSE s END FROM t",
	"SELECT CASE WHEN id = 1200 THEN -s ELSE s END FROM t WHERE CASE WHEN id = 1300 THEN 'x' + 1 ELSE 1 END = 1",
	"SELECT CASE WHEN id = 1300 THEN -s ELSE s END FROM t WHERE CASE WHEN id = 1200 THEN 'x' + 1 ELSE 1 END = 1",
	// Joins: inner, left outer, NULL-safe; an index and an ad-hoc build; keys
	// with no, one and many matches; three tables; residual conditions.
	"SELECT t.id, d.v, d.name FROM t, d WHERE t.i = d.k",
	"SELECT t.id, dx.v, dx.name FROM t, dx WHERE t.i = dx.k",
	"SELECT t.id, d.v FROM t JOIN d ON t.i = d.k",
	"SELECT t.id, t.s, d.k, d.v FROM t LEFT OUTER JOIN d ON t.i = d.k",
	"SELECT t.id, dx.k, dx.name FROM t LEFT OUTER JOIN dx ON t.i = dx.k",
	"SELECT t.id, d.v FROM t, d WHERE (t.i = d.k OR (t.i IS NULL AND d.k IS NULL))",
	"SELECT t.id, dx.v FROM t, dx WHERE (t.i = dx.k OR (t.i IS NULL AND dx.k IS NULL)) AND t.z = 1",
	"SELECT t.id, d.v, CASE WHEN d.v <> 0 THEN t.i / d.v ELSE NULL END FROM t, d WHERE t.i = d.k AND t.r > 0",
	"SELECT t.id, d.name, n.q FROM t, d, n WHERE t.i = d.k AND d.name = n.name",
	"SELECT t.id, d.name, n.q FROM t LEFT OUTER JOIN d ON t.i = d.k LEFT OUTER JOIN n ON d.name = n.name",
	"SELECT t.id, d.v FROM t JOIN d ON t.i = d.k AND d.v > t.id",
	"SELECT t.id, d.v + t.r FROM t, d WHERE t.i = d.k AND CASE WHEN t.id = 1500 THEN 'x' + 1 ELSE 1 END = 1",
	"SELECT a.id, b.id FROM t a, t b WHERE a.id = b.id AND a.i = 3",
	// Nested loops: a cross join, a non-equi LEFT JOIN ON, an ON that raises;
	// each into a projection and into a fold.
	"SELECT t.id, n.name, n.q FROM t, n",
	"SELECT t.id, d.k, d.v FROM t LEFT OUTER JOIN d ON t.i < d.k AND d.v > 40",
	"SELECT t.id, n.q FROM t JOIN n ON CASE WHEN t.id = 1500 THEN 'x' + 1 ELSE t.i END > n.q",
	"SELECT n.name, count(*), sum(t.i), min(t.r), max(t.s) FROM t, n GROUP BY n.name",
	"SELECT t.i, count(*), sum(d.v), count(d.k) FROM t LEFT OUTER JOIN d ON t.i < d.k AND d.v > 40 GROUP BY t.i",
	"SELECT n.name, count(*) FROM t JOIN n ON CASE WHEN t.id = 1500 THEN 'x' + 1 ELSE t.i END > n.q GROUP BY n.name",
	// No FROM: one tuple of no table, projected, filtered and folded.
	"SELECT 1 + 1",
	"SELECT 1 + 1, 'x' WHERE 1 = 2",
	"SELECT count(*), sum(2) WHERE 1 = 1",
	// ORDER BY: INTEGER, BOOLEAN, REAL and VARCHAR keys with NULLs, DESC,
	// duplicates, LIMIT, a range too wide to pack, a selection to sort.
	"SELECT id, i FROM t ORDER BY i, id",
	"SELECT id, i, b FROM t ORDER BY b DESC, i, z DESC",
	"SELECT id FROM t ORDER BY b, i DESC LIMIT 7",
	"SELECT id, w FROM t ORDER BY w, i",
	"SELECT id, w FROM t ORDER BY w DESC, z, b",
	"SELECT id, r FROM t ORDER BY r DESC, s",
	"SELECT id, s FROM t ORDER BY s, r LIMIT 40",
	"SELECT id, i + 0 FROM t ORDER BY 2, 1 DESC",
	"SELECT id, s FROM t WHERE i = 3 ORDER BY z DESC, b",
	"SELECT id FROM t WHERE r > 0 ORDER BY i, w DESC LIMIT 5",
	"SELECT id, r FROM t WHERE i = 1 AND r > 0 ORDER BY r, s DESC",
	"SELECT i + id FROM t WHERE z = 1 ORDER BY i LIMIT 3",
	"SELECT id FROM t WHERE 10 / z > 2 ORDER BY i",
	"SELECT id, s FROM t WHERE s = 'none' ORDER BY i, b",
	"SELECT id, CASE WHEN id = 1500 THEN 'x' + 1 ELSE id END FROM t WHERE z = 2 ORDER BY w, i",
	// INSERT: streamed, with a column list, from a join, reading its own
	// target, and failing at a late row.
	"INSERT INTO o SELECT id, r, s FROM t",
	"INSERT INTO o (c, a) SELECT s, i FROM t WHERE z = 1",
	"INSERT INTO o (b) SELECT CASE WHEN d.v <> 0 THEN t.i / d.v ELSE NULL END FROM t, d WHERE t.i = d.k",
	"INSERT INTO o SELECT t.id, dx.v, dx.name FROM t LEFT OUTER JOIN dx ON t.i = dx.k ORDER BY t.id DESC LIMIT 2000",
	"INSERT INTO o SELECT a + 10, b, c FROM o",
	"INSERT INTO o SELECT o.a, t.r, t.s FROM o, t WHERE o.a = t.id",
	"INSERT INTO o SELECT id, r, s FROM t ORDER BY i, id",
	"INSERT INTO o SELECT CASE WHEN id = 1500 THEN 0.5 ELSE id END, r, s FROM t",
	"INSERT INTO o SELECT id, CASE WHEN id = 1500 THEN s ELSE r END, s FROM t",
	"INSERT INTO o SELECT CASE WHEN id = 1500 THEN 0.5 ELSE id END, CASE WHEN id = 1500 THEN s ELSE r END, s FROM t",
	"INSERT INTO o SELECT CASE WHEN id = 1400 THEN 0.5 ELSE id END, CASE WHEN id = 1500 THEN 'x' + 1 ELSE r END, s FROM t",
	"INSERT INTO o SELECT CASE WHEN id = 1500 THEN 0.5 ELSE id END, CASE WHEN id = 1400 THEN 'x' + 1 ELSE r END, s FROM t",
	"INSERT INTO o SELECT id, r FROM t",
	// Reading its own target through a computed group item, the summary
	// lattice's ordered node insert, and VALUES whose rows fail at the append
	// or at the evaluation, the earlier row's error first.
	"INSERT INTO o SELECT count(*) + a, CASE WHEN b <> 0 THEN a / b ELSE NULL END, c FROM o GROUP BY a, b, c HAVING a > 1",
	"INSERT INTO o SELECT t.id, CASE WHEN n.q <> 0 THEN t.r / n.q ELSE NULL END, n.name FROM t, n ORDER BY 1",
	"INSERT INTO o (a) VALUES (1.5), ('a' + 1)",
	"INSERT INTO o (b, a) VALUES (1, 2), (3, 'x' + 1)",
	"INSERT INTO o VALUES (3, 2.5, 'x'), (4, 3.5)",
}

// plainOutcome is everything a statement leaves behind.
type plainOutcome struct {
	res    *engine.Result
	target *engine.Result
	err    string
}

func runPlain(t *testing.T, e *engine.Engine, sql string, par int) plainOutcome {
	t.Helper()
	difftest.MustExec(t, e, "DELETE FROM o; INSERT INTO o VALUES (1, 1.5, 'one'), (2, NULL, NULL)")
	var out plainOutcome
	res, err := e.ExecSQLCtxP(context.Background(), sql, par)
	if out.res = res; err != nil {
		out.err = err.Error()
	}
	if out.target, err = e.ExecSQL("SELECT a, b, c FROM o"); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDifferentialBatchPlainSelect proves the pipeline — batches of row ids
// through selection kernels, id-tuple joins and nested loops, column ops, the
// fold, the packed sort and the bulk append — equivalent to the oracle on
// every shape: exact rows, exact target contents, exact error text, at each
// parallelism and at table sizes on both sides of a batch.
func TestDifferentialBatchPlainSelect(t *testing.T) {
	defer leakcheck.Check(t)()
	for _, n := range []int{0, 1, 1023, 1024, 1025, 5000} {
		e := plainFixture(t, n)
		for _, sql := range plainShapes {
			engine.UseReference(e, true)
			want := runPlain(t, e, sql, 1)
			engine.UseReference(e, false)
			for _, par := range difftest.Parallelisms {
				got := runPlain(t, e, sql, par)
				if got.err != want.err {
					t.Errorf("n=%d P=%d %s:\n  batch error %q\n  rows error  %q", n, par, sql, got.err, want.err)
					continue
				}
				if want.err == "" && want.res.Columns != nil {
					if diff := difftest.Equal(want.res, got.res); diff != "" {
						t.Errorf("n=%d P=%d %s: batch diverges from rows: %s", n, par, sql, diff)
					}
				} else if want.err == "" && got.res.Affected != want.res.Affected {
					t.Errorf("n=%d P=%d %s: %d rows affected, rows path %d", n, par, sql, got.res.Affected, want.res.Affected)
				}
				if diff := difftest.Equal(want.target, got.target); diff != "" {
					t.Errorf("n=%d P=%d %s: target diverges: %s", n, par, sql, diff)
				}
			}
		}
	}
}

// TestDifferentialBatchGuardedDivision pins the divide op to value.Div cell by
// cell: every pairing of INTEGER and REAL operands over NULL, both zeros, NaN,
// the infinities and the extremes, through the column path and through Eval.
// The grouped form divides sums over the same cells — one group a row, plus
// groups whose sums are NULL-only, cancel to 0 or -0.0, or make a NaN — with
// the projector's divide over the fold's group slots, which is what every
// Hpct cell compiles to.
func TestDifferentialBatchGuardedDivision(t *testing.T) {
	e := engine.New(storage.NewCatalog())
	difftest.MustExec(t, e, "CREATE TABLE q (k INTEGER, ni INTEGER, nr REAL, di INTEGER, dr REAL)")
	tab, _ := e.Catalog().Get("q")
	ints := []value.Value{value.Null, value.NewInt(0), value.NewInt(-7), value.NewInt(math.MaxInt64), value.NewInt(math.MinInt64)}
	var reals []value.Value
	for _, f := range []float64{0, math.Copysign(0, -1), 2.5, -1e-310, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64} {
		reals = append(reals, value.NewFloat(f))
	}
	reals = append(reals, value.Null)
	k := 0
	add := func(row ...value.Value) {
		t.Helper()
		if _, err := tab.AppendRow(append([]value.Value{value.NewInt(int64(k))}, row...)); err != nil {
			t.Fatal(err)
		}
	}
	for _, ni := range ints {
		for _, nr := range reals {
			for _, di := range ints {
				for _, dr := range reals {
					add(ni, nr, di, dr)
					k++
				}
			}
		}
	}
	f := value.NewFloat
	for _, pair := range [][2][4]value.Value{
		{{value.Null, value.Null, value.Null, value.Null}, {value.Null, value.Null, value.Null, value.Null}},                                                  // NULL-only
		{{value.NewInt(3), f(2.5), value.NewInt(3), f(2.5)}, {value.NewInt(-3), f(-2.5), value.NewInt(-3), f(-2.5)}},                                          // sums of 0
		{{value.NewInt(1), f(math.Copysign(0, -1)), value.NewInt(1), f(math.Copysign(0, -1))}, {value.Null, value.Null, value.Null, f(math.Copysign(0, -1))}}, // -0.0
		{{value.NewInt(5), f(math.Inf(1)), value.NewInt(2), f(math.Inf(1))}, {value.NewInt(1), f(math.Inf(-1)), value.Null, f(math.Inf(-1))}},                 // NaN
		{{value.NewInt(5), f(1), value.NewInt(2), f(math.Inf(1))}, {value.NewInt(1), f(2), value.Null, f(3)}},                                                 // +Inf
	} {
		for _, row := range pair {
			add(row[:]...)
		}
		k++
	}
	var items []string
	for _, num := range []string{"ni", "nr"} {
		for _, den := range []string{"di", "dr"} {
			items = append(items, fmt.Sprintf("CASE WHEN %s <> 0 THEN %s / %s ELSE NULL END", den, num, den))
		}
	}
	grouped := strings.NewReplacer("ni", "sum(ni)", "nr", "sum(nr)", "di", "sum(di)", "dr", "sum(dr)").Replace(strings.Join(items, ", "))
	for _, sql := range []string{
		"SELECT " + strings.Join(items, ", ") + " FROM q",
		"SELECT k, " + grouped + " FROM q GROUP BY k",
	} {
		engine.UseReference(e, true)
		want, err := e.ExecSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		engine.UseReference(e, false)
		got, err := e.ExecSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: %d rows, want %d", sql, len(got.Rows), len(want.Rows))
		}
		for r := range want.Rows {
			for c, w := range want.Rows[r] {
				g := got.Rows[r][c]
				same := g.Kind() == w.Kind() && (w.IsNull() || math.Float64bits(g.Float()) == math.Float64bits(w.Float()))
				if !same {
					t.Fatalf("%s: row %d item %d: divide gives %v (%v), Eval %v (%v)", sql, r, c, g, g.Kind(), w, w.Kind())
				}
			}
		}
	}
	// Every guarded division over group slots compiles to the divide op: the
	// four above and a 3-arm Hpct cell.
	hpct := "SELECT k"
	for v := range 3 {
		hpct += fmt.Sprintf(", CASE WHEN sum(di) <> 0 THEN sum(CASE WHEN ni = %d THEN di ELSE 0 END) / sum(di) ELSE NULL END", v)
	}
	ops, err := engine.ProjectedOps(e, func() error {
		for _, sql := range []string{"SELECT k, " + grouped + " FROM q GROUP BY k", hpct + " FROM q GROUP BY k"} {
			if _, err := e.ExecSQL(sql); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"gather", "divide", "divide", "divide", "divide"}, {"gather", "divide", "divide", "divide"}}
	if fmt.Sprint(ops) != fmt.Sprint(want) {
		t.Errorf("projected ops %v, want %v", ops, want)
	}
}

// orderedTailShapes are the plain selects whose ORDER BY or LIMIT runs the
// tail over positions: bare items of one stored table, filtered or not, which
// the tail reads in the table's own vectors, and the shapes that collect
// first — a computed item, an INSERT reading its own target.
var orderedTailShapes = []string{
	// Bare items, unfiltered and filtered, with and without LIMIT.
	"SELECT id, i, s FROM t ORDER BY i, id",
	"SELECT * FROM t ORDER BY z DESC, w, id",
	"SELECT id, i FROM t ORDER BY i DESC, id LIMIT 10",
	"SELECT id FROM t ORDER BY s LIMIT 0",
	"SELECT id, s FROM t WHERE i = 3 ORDER BY s, id",
	"SELECT id, r FROM t WHERE r > 0 ORDER BY r DESC, id LIMIT 25",
	"SELECT id FROM t WHERE z = 1 ORDER BY b LIMIT 0",
	"SELECT id FROM t WHERE 10 / z > 2 ORDER BY i, id LIMIT 7",
	"SELECT id, s FROM t LIMIT 30",
	"SELECT * FROM t WHERE b LIMIT 5",
	// Hidden ORDER BY columns.
	"SELECT id FROM t ORDER BY w, id",
	"SELECT s FROM t WHERE i = 1 ORDER BY r DESC, id LIMIT 9",
	// VARCHAR, BOOLEAN and REAL keys holding NULLs, ascending and DESC.
	"SELECT id, s, b, r FROM t ORDER BY s DESC, b, r DESC, id",
	"SELECT id FROM t ORDER BY b DESC, r, s DESC, id LIMIT 100",
	"SELECT r, s FROM t WHERE b IS NOT NULL ORDER BY r, s, b DESC, id",
	// A computed item is evaluated for every admitted row, so one that raises
	// at a row the LIMIT cuts raises.
	"SELECT id, CASE WHEN id = 1500 THEN 'x' + 1 ELSE id END FROM t ORDER BY id LIMIT 10",
	"SELECT CASE WHEN id = 1500 THEN 'x' + 1 ELSE i END FROM t WHERE z = 1 OR id = 1500 ORDER BY id DESC LIMIT 0",
	"SELECT CASE WHEN id = 1500 THEN 'x' + 1 ELSE id END FROM t LIMIT 10",
	// INSERT … SELECT … ORDER BY into another table and into its own target.
	"INSERT INTO o SELECT id, r, s FROM t ORDER BY s DESC, id LIMIT 50",
	"INSERT INTO o (c, a) SELECT s, id FROM t WHERE i = 2 ORDER BY r, id",
	"INSERT INTO o SELECT a, b, c FROM o ORDER BY a DESC",
	"INSERT INTO o SELECT a + 10, b, c FROM o ORDER BY c, a LIMIT 1",
}

// TestDifferentialBatchOrderedTail proves the tail — over a stored table's
// own vectors or over what it collected — equivalent to the oracle, which
// collects every shape row by row: exact rows, target contents and error
// text. A computed item that raises at row 1500 raises wherever the table
// holds that row, whatever the LIMIT keeps.
func TestDifferentialBatchOrderedTail(t *testing.T) {
	for _, n := range []int{0, 1, 1023, 1025, 5000} {
		e := plainFixture(t, n)
		for _, sql := range orderedTailShapes {
			engine.UseReference(e, true)
			want := runPlain(t, e, sql, 1)
			engine.UseReference(e, false)
			if raises := strings.Contains(sql, "'x' + 1"); raises != (want.err != "") && n > 1500 {
				t.Errorf("n=%d %s: rows error %q", n, sql, want.err)
			}
			for _, par := range []int{1, 2} {
				got := runPlain(t, e, sql, par)
				if got.err != want.err {
					t.Errorf("n=%d P=%d %s:\n  batch error %q\n  rows error  %q", n, par, sql, got.err, want.err)
					continue
				}
				if want.err == "" && want.res.Columns != nil {
					if diff := difftest.Equal(want.res, got.res); diff != "" {
						t.Errorf("n=%d P=%d %s: batch diverges from rows: %s", n, par, sql, diff)
					}
				} else if want.err == "" && got.res.Affected != want.res.Affected {
					t.Errorf("n=%d P=%d %s: %d rows affected, rows path %d", n, par, sql, got.res.Affected, want.res.Affected)
				}
				if diff := difftest.Equal(want.target, got.target); diff != "" {
					t.Errorf("n=%d P=%d %s: target diverges: %s", n, par, sql, diff)
				}
			}
		}
	}
}

// TestOrderedSelectMaxRows: an ordered select of a stored table's columns
// charges the rows it returns, once, against MaxRows: m of them pass a limit
// of m and trip PCT202 under m−1, on the pipeline and on the oracle, at P=1
// and P=2. Behind a LIMIT the pipeline charges only the rows the LIMIT keeps.
func TestOrderedSelectMaxRows(t *testing.T) {
	e := plainFixture(t, 5000)
	run := func(sql string, par int, limit int64) error {
		_, err := e.ExecSQLCtxP(engine.WithLimits(context.Background(), engine.Limits{MaxRows: limit}), sql, par)
		return err
	}
	for _, tc := range []struct {
		sql  string
		ref  bool // the oracle, which collects every admitted row, too
		rows int64
	}{
		{"SELECT id, i, s, r FROM t ORDER BY i, s, id", true, 5000},
		{"SELECT id, s FROM t WHERE z = 1 ORDER BY s DESC, id", true, 0},
		{"SELECT id, i FROM t ORDER BY i, id LIMIT 1200", false, 1200},
		{"SELECT id FROM t WHERE z = 1 ORDER BY w LIMIT 300", false, 300},
	} {
		if tc.rows == 0 {
			res, err := e.ExecSQL(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			tc.rows = int64(len(res.Rows))
		}
		for _, ref := range []bool{false, true} {
			if ref && !tc.ref {
				continue
			}
			engine.UseReference(e, ref)
			for _, par := range []int{1, 2} {
				if err := run(tc.sql, par, tc.rows); err != nil {
					t.Errorf("ref=%v P=%d %s under MaxRows %d: %v", ref, par, tc.sql, tc.rows, err)
				}
				if err := run(tc.sql, par, tc.rows-1); diag.CodeOf(err) != diag.CodeRowLimit {
					t.Errorf("ref=%v P=%d %s under MaxRows %d: %v, want %s", ref, par, tc.sql, tc.rows-1, err, diag.CodeRowLimit)
				}
			}
		}
	}
	engine.UseReference(e, false)
}
