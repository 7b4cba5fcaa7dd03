package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/diag"
	"repro/internal/storage"
	"repro/internal/value"
)

// Tests of the dataflow between operators (DESIGN.md): the permutation sort
// against the stable row sort it replaced, INSERT … SELECT streaming into its
// target with the atomicity, snapshot and budget semantics of the buffered
// insert, and the three statement-level fixes that rode along.

// sortFixture loads s(id, i, f, v, b, w): a row number, then one nullable key
// column per type with few distinct values, so ties and NULLs are common, and
// w, INTEGERs from both ends of the 64-bit range. REAL holds -0.0 next to +0.0
// (equal under value.Compare) and, only when withNaN is set, NaN.
func sortFixture(t *testing.T, rng *rand.Rand, n int, withNaN bool) *Engine {
	t.Helper()
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE s (id INTEGER, i INTEGER, f REAL, v VARCHAR, b BOOLEAN, w INTEGER)")
	tab, _ := e.Catalog().Get("s")
	floats := []float64{-1.5, math.Copysign(0, -1), 0, 2.25, math.Inf(1)}
	if withNaN {
		floats = append(floats, math.NaN())
	}
	strs := []string{"", "a", "ab", "b", "B"}
	wide := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 7, math.MaxInt64}
	for r := 0; r < n; r++ {
		row := []value.Value{
			value.NewInt(int64(r)),
			value.NewInt(int64(rng.Intn(5) - 2)),
			value.NewFloat(floats[rng.Intn(len(floats))]),
			value.NewString(strs[rng.Intn(len(strs))]),
			value.NewBool(rng.Intn(2) == 0),
			value.NewInt(wide[rng.Intn(len(wide))]),
		}
		for c := 1; c < len(row); c++ {
			if rng.Intn(6) == 0 {
				row[c] = value.Null
			}
		}
		if _, err := tab.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// stableSorted is the sort this PR replaced: sort.SliceStable over boxed rows
// with value.Compare per key.
func stableSorted(rows [][]value.Value, cols []int, desc []bool) [][]value.Value {
	out := append([][]value.Value(nil), rows...)
	sort.SliceStable(out, func(a, b int) bool {
		for k, c := range cols {
			if cmp := value.Compare(out[a][c], out[b][c]); cmp != 0 {
				return (cmp < 0) != desc[k]
			}
		}
		return false
	})
	return out
}

func renderRows(rows [][]value.Value) string {
	var sb strings.Builder
	for _, r := range rows {
		for _, v := range r {
			sb.WriteString(v.String())
			sb.WriteByte('|')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestPermutationSortMatchesStableSort pins ORDER BY, on each of its routes,
// to the stable row sort: random key lists over every column type with NULLs,
// duplicates, DESC, positions, hidden columns and computed keys — packed when
// every key is an INTEGER or BOOLEAN column whose codes fit a word beside the
// position, by comparator over the vectors when one is not or w's range
// overflows it, over collected columns when the select list computes — typed
// on the pipeline, boxed and by value.Compare where the oracle gathers them.
func TestPermutationSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	e := sortFixture(t, rng, 700, false)
	base := mustExec(t, e, "SELECT id, i, f, v, b, w FROM s").Rows
	tab, _ := e.Catalog().Get("s")
	for _, tc := range []struct {
		cols   []int
		packed bool
	}{{[]int{1}, true}, {[]int{4, 1}, true}, {[]int{0, 1, 4}, true}, {[]int{5}, false}, {[]int{1, 5}, false}, {[]int{1, 2}, false}, {[]int{3}, false}} {
		keys := make([]sortKey, len(tc.cols))
		for i, c := range tc.cols {
			keys[i] = columnKey(tab.Column(c), i%2 == 1)
		}
		ids, _ := positions(tab.NumRows())
		if got := packedSort(ids, keys); got != tc.packed {
			t.Errorf("packedSort over columns %v = %v, want %v", tc.cols, got, tc.packed)
		}
	}
	// Key expressions by the column of s they order by. "i + 0" and
	// "CASE …" are computed, so their statements take the collected path; the
	// second is a mixed-kind key (INTEGER, VARCHAR and NULL in one column).
	type key struct {
		sql string
		col int
	}
	stored := []key{{"i", 1}, {"f", 2}, {"v", 3}, {"b", 4}, {"2", 1}, {"4", 3}, {"w", 5}, {"b", 4}, {"i", 1}}
	for round := 0; round < 120; round++ {
		UseReference(e, round%4 == 3) // every fourth round on the reference path
		var keys []key
		for n := 1 + rng.Intn(3); len(keys) < n; {
			keys = append(keys, stored[rng.Intn(len(stored))])
		}
		cols, desc, by := make([]int, len(keys)), make([]bool, len(keys)), make([]string, len(keys))
		for k, key := range keys {
			cols[k], desc[k], by[k] = key.col, rng.Intn(3) == 0, key.sql
			if desc[k] {
				by[k] += " DESC"
			}
		}
		want := renderRows(stableSorted(base, cols, desc))
		orderBy := " ORDER BY " + strings.Join(by, ", ")
		// Sorted at the scan; the same keys hidden behind a narrower select list
		// (positions need their column visible); and collected, because the
		// select list computes.
		got := mustExec(t, e, "SELECT id, i, f, v, b, w FROM s"+orderBy).Rows
		if g := renderRows(got); g != want {
			t.Fatalf("scan-sorted%s differs from the stable sort\ngot:\n%.400s\nwant:\n%.400s", orderBy, g, want)
		}
		if !strings.ContainsAny(orderBy, "24") {
			ids := mustExec(t, e, "SELECT id FROM s"+orderBy).Rows
			for r := range ids {
				if ids[r][0].Int() != got[r][0].Int() {
					t.Fatalf("hidden keys%s: row %d is id %d, want %d", orderBy, r, ids[r][0].Int(), got[r][0].Int())
				}
			}
		}
		coll := mustExec(t, e, "SELECT id + 0, i, f, v, b, w FROM s"+orderBy).Rows
		if g := renderRows(coll); g != want {
			t.Fatalf("collected%s differs from the stable sort\ngot:\n%.400s\nwant:\n%.400s", orderBy, g, want)
		}
	}

	UseReference(e, false)

	// A mixed-kind computed key exists only on the collected path.
	mixed := "CASE WHEN b THEN i WHEN v = 'a' THEN NULL ELSE v END"
	got := mustExec(t, e, "SELECT id, "+mixed+" AS k FROM s ORDER BY k DESC, id DESC").Rows
	want := stableSorted(mustExec(t, e, "SELECT id, "+mixed+" FROM s").Rows, []int{1, 0}, []bool{true, true})
	if renderRows(got) != renderRows(want) {
		t.Errorf("mixed-kind computed key differs from the stable sort")
	}
}

// TestSortNaNOrderPinned states what ORDER BY does with NaN. value.Compare
// calls NaN equal to every number, which is not a strict weak order, so no
// sort algorithm's result is "the" sorted order; the engine's is
// deterministic, identical on both sort paths, and keeps NULLs — which do
// compare strictly — first.
func TestSortNaNOrderPinned(t *testing.T) {
	e := sortFixture(t, rand.New(rand.NewSource(5)), 300, true)
	scan := mustExec(t, e, "SELECT id, f FROM s ORDER BY f, id").Rows
	again := mustExec(t, e, "SELECT id, f FROM s ORDER BY f, id").Rows
	coll := mustExec(t, e, "SELECT id + 0, f FROM s ORDER BY f, 1").Rows
	if renderRows(scan) != renderRows(again) || renderRows(scan) != renderRows(coll) {
		t.Fatal("ORDER BY over NaN is not deterministic across runs and sort paths")
	}
	if len(scan) != 300 {
		t.Fatalf("%d rows, want 300", len(scan))
	}
	seenValue := false
	for _, r := range scan {
		if seenValue && r[1].IsNull() {
			t.Fatal("NULL after a non-NULL key")
		}
		seenValue = seenValue || !r[1].IsNull()
	}
	// The small fixed case DESIGN.md quotes: every adjacent pair holds a NaN
	// and so ties, and nothing moves — 2.0 stays ahead of 0.5.
	mustExec(t, e, "CREATE TABLE nan5 (k INTEGER, f REAL)")
	tab, _ := e.Catalog().Get("nan5")
	for k, f := range []float64{2, math.NaN(), 1, math.NaN(), 0.5} {
		tab.AppendRow([]value.Value{value.NewInt(int64(k + 1)), value.NewFloat(f)})
	}
	if got := renderRows(mustExec(t, e, "SELECT k FROM nan5 ORDER BY f").Rows); got != nanPinned {
		t.Errorf("ORDER BY f over (2, NaN, 1, NaN, 0.5) = %q, pinned %q", got, nanPinned)
	}
}

const nanPinned = "1|\n2|\n3|\n4|\n5|\n"

// TestFilteredOrderBySortsIds: a plain select that filters one stored table
// and orders by its columns sorts the selected row ids in the table's own
// vectors on the column path, and the rows it collected on the reference
// path, and both return the stable sort of the passing rows: same rows, same
// order, NULLs first, DESC and LIMIT honoured, under kernel and evaluated
// predicates alike, and a key holding NaN ordered as the collected sort
// orders it.
func TestFilteredOrderBySortsIds(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	e := sortFixture(t, rng, 2500, false)
	for _, batch := range []bool{true, false} {
		UseReference(e, !batch)
		for _, where := range []string{"i = 1", "b IS NOT NULL AND i = -1", "f > 0", "i = 0 AND f <= 2.25", "v = 'zz'"} {
			base := mustExec(t, e, "SELECT id, i, f, v, b, w FROM s WHERE "+where).Rows
			for _, tc := range []struct {
				by    string
				cols  []int
				desc  []bool
				limit int
			}{
				{"b, w", []int{4, 5}, []bool{false, false}, -1},
				{"i DESC, b, id DESC", []int{1, 4, 0}, []bool{true, false, true}, -1},
				{"f, v DESC", []int{2, 3}, []bool{false, true}, -1},
				{"w DESC, i", []int{5, 1}, []bool{true, false}, 9},
				{"v, b DESC", []int{3, 4}, []bool{false, true}, 0},
			} {
				want := stableSorted(base, tc.cols, tc.desc)
				sql := "SELECT id, i, f, v, b, w FROM s WHERE " + where + " ORDER BY " + tc.by
				if tc.limit >= 0 {
					sql += fmt.Sprint(" LIMIT ", tc.limit)
					want = want[:min(tc.limit, len(want))]
				}
				if got := renderRows(mustExec(t, e, sql).Rows); got != renderRows(want) {
					t.Errorf("batch=%v %s differs from the stable sort of the passing rows\ngot:\n%.300s\nwant:\n%.300s", batch, sql, got, renderRows(want))
				}
			}
		}
	}
	e = sortFixture(t, rand.New(rand.NewSource(5)), 600, true)
	coll := renderRows(mustExec(t, e, "SELECT id + 0, f FROM s WHERE i >= 0 ORDER BY f, 1").Rows)
	for _, batch := range []bool{true, false} {
		UseReference(e, !batch)
		if got := renderRows(mustExec(t, e, "SELECT id, f FROM s WHERE i >= 0 ORDER BY f, id").Rows); got != coll {
			t.Errorf("batch=%v: a filtered ORDER BY over NaN differs from the collected sort", batch)
		}
	}
}

func TestOrderByPositionBoundByVisibleList(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE t (a INTEGER, b INTEGER); INSERT INTO t VALUES (1, 3), (2, 2), (3, 1)")
	wantErr(t, e, "SELECT a FROM t ORDER BY 2", "ORDER BY position 2 out of range")
	// The hidden column carried for the first key is not addressable.
	wantErr(t, e, "SELECT a FROM t ORDER BY b, 2", "ORDER BY position 2 out of range")
	wantErr(t, e, "SELECT a + 0 FROM t ORDER BY b, 2", "ORDER BY position 2 out of range")
	r := mustExec(t, e, "SELECT a FROM t ORDER BY b, 1")
	if got := renderRows(r.Rows); got != "3|\n2|\n1|\n" || len(r.Columns) != 1 {
		t.Errorf("ORDER BY b, 1 = %q (columns %v)", got, r.Columns)
	}
}

func TestLimitZeroAndLimitPaths(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE t (a INTEGER, b INTEGER); INSERT INTO t VALUES (1, 3), (2, 2), (3, 1)")
	for sql, want := range map[string]string{
		"SELECT a FROM t LIMIT 0":                               "",
		"SELECT a FROM t ORDER BY a LIMIT 0":                    "",
		"SELECT a + 0 FROM t ORDER BY 1 LIMIT 0":                "",
		"SELECT count(*) FROM t LIMIT 0":                        "",
		"SELECT DISTINCT b FROM t LIMIT 0":                      "",
		"SELECT a FROM t LIMIT 2":                               "1|\n2|\n",
		"SELECT a FROM t ORDER BY b LIMIT 2":                    "3|\n2|\n",
		"SELECT a * 1 FROM t ORDER BY b LIMIT 2":                "3|\n2|\n",
		"SELECT a FROM t ORDER BY b LIMIT 9":                    "3|\n2|\n1|\n",
		"SELECT DISTINCT count(*) FROM t GROUP BY a LIMIT 1":    "1|\n",
		"SELECT a, sum(b) FROM t GROUP BY a ORDER BY 1 LIMIT 1": "1|3|\n",
	} {
		if got := renderRows(mustExec(t, e, sql).Rows); got != want {
			t.Errorf("%s = %q, want %q", sql, got, want)
		}
	}
	mustExec(t, e, "CREATE TABLE o (a INTEGER); INSERT INTO o SELECT a FROM t ORDER BY b LIMIT 0")
	mustExec(t, e, "INSERT INTO o SELECT a FROM t LIMIT 0")
	if n := len(mustExec(t, e, "SELECT * FROM o").Rows); n != 0 {
		t.Errorf("INSERT … LIMIT 0 inserted %d rows", n)
	}
}

// TestLimitCountsTheTableScanned: a plain select over one stored table reads
// every row of it once, whatever cuts the result after — an ORDER BY … LIMIT,
// filtered or not, and a bare LIMIT — so engine.rows.scanned grows by the
// table's size for each.
func TestLimitCountsTheTableScanned(t *testing.T) {
	const n = 5000
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE t (k INTEGER, v INTEGER)")
	tab, _ := e.Catalog().Get("t")
	for i := 0; i < n; i++ {
		tab.AppendRow([]value.Value{value.NewInt(int64(n - i)), value.NewInt(int64(i % 10))})
	}
	for _, sql := range []string{
		"SELECT k FROM t ORDER BY k LIMIT 10",
		"SELECT k FROM t WHERE v >= 0 ORDER BY k LIMIT 10",
		"SELECT k FROM t LIMIT 10",
	} {
		before := mRowsScanned.Value()
		if r := mustExec(t, e, sql); len(r.Rows) != 10 {
			t.Fatalf("%s: %d rows, want 10", sql, len(r.Rows))
		}
		if got := mRowsScanned.Value() - before; got != n {
			t.Errorf("%s: engine.rows.scanned grew by %d, want %d", sql, got, n)
		}
	}
}

func TestInsertColumnNamedTwiceRejected(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE t (a INTEGER, b INTEGER)")
	wantErr(t, e, "INSERT INTO t (a, a) VALUES (1, 2)", `names column "a" twice`)
	wantErr(t, e, "INSERT INTO t (b, a, B) SELECT 1, 2, 3", `names column "B" twice`)
	if n := len(mustExec(t, e, "SELECT * FROM t").Rows); n != 0 {
		t.Errorf("rejected INSERT left %d rows", n)
	}
	mustExec(t, e, "INSERT INTO t (b) VALUES (7); INSERT INTO t (b, a) SELECT 8, 9")
	if got := renderRows(mustExec(t, e, "SELECT a, b FROM t").Rows); got != "NULL|7|\n9|8|\n" {
		t.Errorf("column-list inserts = %q", got)
	}
}

// TestInsertSelectFromOwnTarget: a SELECT that reads its INSERT's target sees
// the pre-statement rows only, whatever feeds the insert and however many
// workers fold.
func TestInsertSelectFromOwnTarget(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		for _, tc := range []struct{ name, sql, want string }{
			{"plain", "INSERT INTO t SELECT a + 100, g FROM t", "SELECT a + 100, g FROM t0"},
			{"filtered", "INSERT INTO t SELECT a, g + 10 FROM t WHERE a >= 50", "SELECT a, g + 10 FROM t0 WHERE a >= 50"},
			{"group by", "INSERT INTO t SELECT sum(a), g FROM t GROUP BY g", "SELECT sum(a), g FROM t0 GROUP BY g"},
			{"join", "INSERT INTO t SELECT x.a, y.g FROM t x, t y WHERE x.a = y.a", "SELECT a, g FROM t0"},
			{"ordered", "INSERT INTO t SELECT a, g FROM t ORDER BY a DESC LIMIT 7", "SELECT a, g FROM t0 ORDER BY a DESC LIMIT 7"},
		} {
			e := New(storage.NewCatalog())
			mustExec(t, e, "CREATE TABLE t (a INTEGER, g INTEGER); CREATE TABLE t0 (a INTEGER, g INTEGER)")
			for i := 0; i < 200; i++ {
				mustExec(t, e, fmt.Sprintf("INSERT INTO t VALUES (%d, %d); INSERT INTO t0 VALUES (%d, %d)", i, i%7, i, i%7))
			}
			if _, err := e.ExecSQLCtxP(context.Background(), tc.sql, par); err != nil {
				t.Fatalf("%s at P=%d: %v", tc.name, par, err)
			}
			image, err := e.ExecSQLCtxP(context.Background(), tc.want, par)
			if err != nil {
				t.Fatal(err)
			}
			all := mustExec(t, e, "SELECT a, g FROM t").Rows
			if len(all) != 200+len(image.Rows) {
				t.Fatalf("%s at P=%d: target has %d rows, want 200 + %d", tc.name, par, len(all), len(image.Rows))
			}
			if got, want := renderRows(all[200:]), renderRows(image.Rows); got != want {
				t.Errorf("%s at P=%d inserted\n%.300s\nwant the pre-statement image\n%.300s", tc.name, par, got, want)
			}
		}
	}
}

// tableState is everything a failed INSERT must leave as it found it.
type tableState struct {
	rows    string
	epoch   int64
	index   string
	viaScan int
}

func stateOf(t *testing.T, e *Engine, name string) tableState {
	t.Helper()
	tab, err := e.Catalog().Get(name)
	if err != nil {
		t.Fatal(err)
	}
	st := tableState{epoch: tab.Epoch(), viaScan: len(mustExec(t, e, "SELECT * FROM "+name).Rows)}
	var buf []value.Value
	for r := 0; r < tab.NumRows(); r++ {
		buf = tab.Row(r, buf)
		st.rows += renderRows([][]value.Value{buf})
	}
	for _, ix := range tab.Indexes() {
		st.index += joinedThrough(t, tab, ix) + ";"
	}
	return st
}

// joinedThrough is what a join through the index ix of tab returns: every
// distinct key of the table, in first-appearance order, joined to the rows
// holding it — the index's contents, row order included. The keys sit in a
// table of their own, in a catalog of their own beside tab; the join's
// null-safe equality on each of ix's columns makes ix its build side and lets
// a NULL key find its rows.
func joinedThrough(t *testing.T, tab *storage.Table, ix *storage.Index) string {
	t.Helper()
	e := New(storage.NewCatalog())
	e.Catalog().Put(tab)
	var defs storage.Schema
	var pos []int
	var conds, cols []string
	for _, c := range tab.Schema() {
		cols = append(cols, "t."+c.Name)
	}
	for _, c := range ix.Columns() {
		pos = append(pos, tab.Schema().ColumnIndex(c))
		defs = append(defs, tab.Schema()[pos[len(pos)-1]])
		conds = append(conds, fmt.Sprintf("(k.%[1]s = t.%[1]s OR (k.%[1]s IS NULL AND t.%[1]s IS NULL))", c))
	}
	keys, err := e.Catalog().Create("k", defs)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for r := 0; r < tab.NumRows(); r++ {
		key := make([]value.Value, len(pos))
		for i, p := range pos {
			key[i] = tab.Get(r, p)
		}
		if k := string(value.EncodeKey(key...)); !seen[k] {
			seen[k] = true
			keys.AppendRow(key)
		}
	}
	sql := "SELECT " + strings.Join(cols, ", ") + " FROM k, " + tab.Name() + " t WHERE " + strings.Join(conds, " AND ")
	return renderRows(mustExec(t, e, sql).Rows)
}

// TestInsertSelectMidStreamFailureIsAtomic: rows now land in the target while
// the SELECT is still producing, so every way the statement can die after the
// first append — a late evaluation error, an injected sink fault, a budget, a
// cancelled context — must roll the target, its index and its visible row
// count back. The epoch may only move forward (a rollback is a mutation).
func TestInsertSelectMidStreamFailureIsAtomic(t *testing.T) {
	feeds := []struct{ name, sql string }{
		{"fold-fed", "INSERT INTO dst SELECT g, sum(a) FROM src GROUP BY g"},
		{"join-fed", "INSERT INTO dst SELECT s.g, s.a * d.w FROM src s, dim d WHERE s.a = d.a"},
		{"plain-fed", "INSERT INTO dst SELECT g, a FROM src"},
	}
	fixture := func() *Engine {
		e := New(storage.NewCatalog())
		mustExec(t, e, `CREATE TABLE src (g INTEGER, a INTEGER); CREATE TABLE dim (a INTEGER, w INTEGER);
			CREATE TABLE dst (g INTEGER, a INTEGER, PRIMARY KEY (g)); INSERT INTO dst VALUES (-1, 0), (-2, 0)`)
		src, _ := e.Catalog().Get("src")
		for i := 0; i < 3000; i++ {
			src.AppendRow([]value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 13))})
		}
		for a := 0; a < 13; a++ {
			mustExec(t, e, fmt.Sprintf("INSERT INTO dim VALUES (%d, 2)", a))
		}
		return e
	}
	failures := []struct {
		name string
		ctx  func(sql string) context.Context
		arm  func()
		code string
	}{
		{"sink fault at row 700", nil, func() {
			chaos.Arm(chaos.InsertSink, chaos.Fault{Err: errors.New("injected sink fault"), After: 700})
		}, ""},
		{"MaxRows", func(string) context.Context { return WithLimits(context.Background(), Limits{MaxRows: 1500}) }, nil, diag.CodeRowLimit},
		{"MaxBytes", func(string) context.Context { return WithLimits(context.Background(), Limits{MaxBytes: 40_000}) }, nil, diag.CodeByteBudget},
		// Cancelled at the statement's last governor check — the settling of the
		// sink's charge, every row already in the target: count the checks of
		// a run that succeeds, then cancel one short of them.
		{"cancelled at the last check", func(sql string) context.Context {
			// (A context without a Done channel gets no governor; a limit does.)
			unlimited := Limits{MaxRows: math.MaxInt64}
			count := &countdownCtx{Context: context.Background(), after: math.MaxInt}
			if _, err := fixture().ExecSQLCtxP(WithLimits(count, unlimited), sql, 2); err != nil {
				t.Fatal(err)
			}
			return WithLimits(&countdownCtx{Context: context.Background(), after: count.calls - 1}, unlimited)
		}, nil, diag.CodeCancelled},
	}
	chaos.Enable()
	defer chaos.Disable()
	for _, feed := range feeds {
		for _, fail := range failures {
			e := fixture()
			before := stateOf(t, e, "dst")
			ctx := context.Background()
			if fail.ctx != nil {
				ctx = fail.ctx(feed.sql)
			}
			if fail.arm != nil {
				fail.arm()
			}
			_, err := e.ExecSQLCtxP(ctx, feed.sql, 2)
			chaos.Disarm(chaos.InsertSink)
			if err == nil {
				t.Fatalf("%s, %s: statement succeeded", feed.name, fail.name)
			}
			var coded interface{ Code() string }
			if fail.code != "" && (!errors.As(err, &coded) || coded.Code() != fail.code) {
				t.Errorf("%s, %s: err = %v, want code %s", feed.name, fail.name, err, fail.code)
			}
			after := stateOf(t, e, "dst")
			if after.epoch < before.epoch {
				t.Errorf("%s, %s: epoch moved backwards", feed.name, fail.name)
			}
			before.epoch, after.epoch = 0, 0
			if !reflect.DeepEqual(before, after) {
				t.Errorf("%s, %s: target changed by a failed statement\nbefore %+v\nafter  %+v", feed.name, fail.name, before, after)
			}
		}
	}

	// An evaluation error on a late row: sum() meets a VARCHAR in the last
	// group's rows, the plain projection divides a VARCHAR there.
	e := New(storage.NewCatalog())
	mustExec(t, e, `CREATE TABLE src (g INTEGER, v VARCHAR); CREATE TABLE dst (g INTEGER, a INTEGER, PRIMARY KEY (g));
		INSERT INTO dst VALUES (-1, 0)`)
	src, _ := e.Catalog().Get("src")
	for i := 0; i < 3000; i++ {
		src.AppendRow([]value.Value{value.NewInt(int64(i)), value.NewString("x")})
	}
	before := stateOf(t, e, "dst")
	for _, sql := range []string{
		"INSERT INTO dst SELECT g, sum(CASE WHEN g < 2990 THEN 1 ELSE v END) FROM src GROUP BY g",
		"INSERT INTO dst SELECT g, CASE WHEN g < 2990 THEN 1 ELSE v / 2 END FROM src",
	} {
		if _, err := e.ExecSQLCtxP(context.Background(), sql, 2); err == nil {
			t.Fatalf("%s succeeded", sql)
		}
		after := stateOf(t, e, "dst")
		before.epoch, after.epoch = 0, 0
		if !reflect.DeepEqual(before, after) {
			t.Errorf("%s: target changed by a failed statement\nbefore %+v\nafter  %+v", sql, before, after)
		}
	}
}

// TestInsertSelectChargedOnce: a result that streams into its target is not
// charged as a buffer on the way — the budget that fails a buffered plain
// SELECT lets the same rows through an INSERT — while the rows that land are
// charged, rows and bytes, so a runaway INSERT … SELECT still stops.
func TestInsertSelectChargedOnce(t *testing.T) {
	e := New(storage.NewCatalog())
	e.Catalog().Put(bigGroupTable(t, 3000))
	mustExec(t, e, "CREATE TABLE dst (g INTEGER, v INTEGER)")
	run := func(lim Limits, sql string) error {
		_, err := e.ExecSQLCtx(WithLimits(context.Background(), lim), sql)
		mustExec(t, e, "DELETE FROM dst")
		return err
	}
	// 3000 rows buffered once fit 4000; buffered and inserted (the pre-PR
	// charge: once as the SELECT's result, once as staged rows) would not.
	if err := run(Limits{MaxRows: 4000}, "INSERT INTO dst SELECT g, v FROM big"); err != nil {
		t.Errorf("streamed INSERT under MaxRows 4000: %v (charged twice?)", err)
	}
	for _, sql := range []string{
		"INSERT INTO dst SELECT g, v FROM big",
		"INSERT INTO dst SELECT v, sum(g) FROM big GROUP BY v",
		"INSERT INTO dst SELECT a.g, a.v FROM big a, big b WHERE a.v = b.v",
	} {
		for _, tc := range []struct {
			lim  Limits
			code string
		}{
			{Limits{MaxRows: 2000}, diag.CodeRowLimit},
			{Limits{MaxBytes: 60_000}, diag.CodeByteBudget},
		} {
			var le *LimitError
			if err := run(tc.lim, sql); !errors.As(err, &le) || le.Code() != tc.code {
				t.Errorf("%s under %+v: err = %v, want %s", sql, tc.lim, err, tc.code)
			}
		}
	}
}

// TestDistinctOverProducedRowsChargedOnce: DISTINCT over aggregate or window
// output charges a row once, where the tail collects it — the rows it keeps
// are not charged again — so it needs the budgets the same SELECT without
// DISTINCT needs: 2 rows for the two groups; 22 for the window (10 input
// tuples, 2 group rows, 10 output rows); and as many bytes. A DISTINCT that
// charged its kept rows again needed 4 and 24.
func TestDistinctOverProducedRowsChargedOnce(t *testing.T) {
	e := newTestEngine(t)
	// need is the least budget sql runs under; every smaller one trips code.
	need := func(sql string, limit func(n int64) Limits, code string) int64 {
		t.Helper()
		for n := int64(1); n < 10_000; n++ {
			_, err := e.ExecSQLCtx(WithLimits(context.Background(), limit(n)), sql)
			if err == nil {
				return n
			}
			if diag.CodeOf(err) != code {
				t.Fatalf("%s under %+v: %v, want %s", sql, limit(n), err, code)
			}
		}
		t.Fatalf("%s: no budget under 10 000 suffices", sql)
		return 0
	}
	rows := func(n int64) Limits { return Limits{MaxRows: n} }
	bytes := func(n int64) Limits { return Limits{MaxBytes: n} }
	for _, tc := range []struct {
		sql  string
		rows int64
	}{
		{"SELECT state, sum(salesAmt) FROM sales GROUP BY state", 2},
		{"SELECT state, sum(salesAmt) OVER (PARTITION BY state) FROM sales", 22},
	} {
		distinct := strings.Replace(tc.sql, "SELECT", "SELECT DISTINCT", 1)
		for _, sql := range []string{tc.sql, distinct} {
			if got := need(sql, rows, diag.CodeRowLimit); got != tc.rows {
				t.Errorf("%s needs MaxRows %d, want %d", sql, got, tc.rows)
			}
		}
		if got, want := need(distinct, bytes, diag.CodeByteBudget), need(tc.sql, bytes, diag.CodeByteBudget); got != want {
			t.Errorf("%s needs MaxBytes %d, without DISTINCT %d", distinct, got, want)
		}
	}
}

// TestValuesErrorsKeepRowOrder: INSERT … VALUES evaluates its rows into one
// batch, and the first failing row's error is the statement's whether it
// fails converting to the column or evaluating: row 1's REAL into an INTEGER
// column beats row 2's VARCHAR arithmetic, which beats row 3's width.
func TestValuesErrorsKeepRowOrder(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE t (i INTEGER, s VARCHAR)")
	for _, tc := range []struct{ sql, want string }{
		{"INSERT INTO t (i) VALUES (1.5), ('a' + 1)", `storage: table "t" column "i": storage: cannot store REAL 1.5 in INTEGER column`},
		{"INSERT INTO t (i) VALUES (1), ('a' + 1), (2, 3)", `value: cannot apply "+" to VARCHAR and INTEGER`},
		{"INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3), (1.5, 'z')", `engine: INSERT into "t" expects 2 values, got 1`},
	} {
		_, err := e.ExecSQL(tc.sql)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want+"\n") {
			t.Errorf("%s: err = %v, want %q", tc.sql, err, tc.want)
		}
	}
	if n := len(mustExec(t, e, "SELECT * FROM t").Rows); n != 0 {
		t.Errorf("failed inserts left %d rows", n)
	}
}

// TestUpdateFromGoverned: UPDATE … FROM builds its FROM side the way a SELECT's
// hash join does — through buildSide.ensure — so the build is charged against
// MaxRows, polls the context every stride and passes the join-build fault
// point; a matching index skips it. However the statement dies, the target,
// its index and its epoch are untouched: it dies before its first write.
func TestUpdateFromGoverned(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, `CREATE TABLE tgt (g INTEGER, a REAL, PRIMARY KEY (g)); CREATE TABLE src (g INTEGER, w REAL);
		INSERT INTO tgt VALUES (-1, 1), (5, 2), (7, 3)`)
	src, _ := e.Catalog().Get("src")
	for i := 0; i < 5000; i++ {
		src.AppendRow([]value.Value{value.NewInt(int64(i)), value.NewFloat(2)})
	}
	const sql = "UPDATE tgt FROM src SET a = tgt.a / src.w WHERE tgt.g = src.g"
	cancel := &countdownCtx{Context: context.Background(), after: 1} // the statement's opening check passes
	chaos.Enable()
	defer chaos.Disable()
	for _, fail := range []struct {
		name string
		ctx  context.Context
		arm  *chaos.Fault
		code string
	}{
		{"MaxRows", WithLimits(context.Background(), Limits{MaxRows: 100}), nil, diag.CodeRowLimit},
		// (A context without a Done channel gets no governor; a limit does.)
		{"cancelled", WithLimits(cancel, Limits{MaxRows: math.MaxInt64}), nil, diag.CodeCancelled},
		{"build fault", context.Background(), &chaos.Fault{Err: errors.New("injected build fault")}, ""},
		{"build panic", context.Background(), &chaos.Fault{Panic: "chaos-panic"}, diag.CodePanic},
	} {
		before := stateOf(t, e, "tgt")
		if fail.arm != nil {
			chaos.Arm(chaos.JoinBuild, *fail.arm)
		}
		_, err := e.ExecSQLCtx(fail.ctx, sql)
		chaos.Disarm(chaos.JoinBuild)
		var coded interface{ Code() string }
		if err == nil || fail.code != "" && (!errors.As(err, &coded) || coded.Code() != fail.code) {
			t.Errorf("%s: err = %v, want code %q", fail.name, err, fail.code)
		}
		if after := stateOf(t, e, "tgt"); !reflect.DeepEqual(before, after) {
			t.Errorf("%s: target changed by a failed statement\nbefore %+v\nafter  %+v", fail.name, before, after)
		}
	}
	if cancel.calls != 2 {
		t.Errorf("cancelled build made %d context checks, want 2: it must stop at its first stride", cancel.calls)
	}

	// An index on the join column is the hash table: the join builds it, as
	// the table's, charged against no budget, and the reuse is counted.
	mustExec(t, e, "CREATE INDEX src_g ON src (g)")
	reuse, builds := mJoinIndexReuse.Value(), mJoinBuilds.Value()
	res, err := e.ExecSQLCtx(WithLimits(context.Background(), Limits{MaxRows: 100}), sql)
	if err != nil || res.Affected != 2 {
		t.Fatalf("indexed UPDATE … FROM under MaxRows 100: %+v, %v", res, err)
	}
	if r, b := mJoinIndexReuse.Value()-reuse, mJoinBuilds.Value()-builds; r != 1 || b != 0 {
		t.Errorf("index reuse counted %d times and %d builds, want 1 and 0", r, b)
	}
	if got := renderRows(mustExec(t, e, "SELECT g, a FROM tgt ORDER BY g").Rows); got != renderRows([][]value.Value{
		{value.NewInt(-1), value.NewFloat(1)}, {value.NewInt(5), value.NewFloat(1)}, {value.NewInt(7), value.NewFloat(1.5)},
	}) {
		t.Errorf("rows after the update:\n%s", got)
	}
}

// TestRecodeLooksUpOnlyProbedCodes: a probe column under another dictionary
// than its join index's has each code recoded the first time a tuple meets
// it, not its whole dictionary's: ten probe rows, filled by INSERT … SELECT
// from a table of 100 000 strings and so sharing its dictionary, look up at
// most ten strings in the index's.
func TestRecodeLooksUpOnlyProbedCodes(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, `CREATE TABLE words (s VARCHAR, i INTEGER); CREATE TABLE probe (s VARCHAR);
		CREATE TABLE b (s VARCHAR, n INTEGER, PRIMARY KEY (s))`)
	words, _ := e.Catalog().Get("words")
	for i := range 100_000 {
		if _, err := words.AppendRow([]value.Value{value.NewString(fmt.Sprint("w", i*7919%100_000)), value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, e, "INSERT INTO probe SELECT s FROM words WHERE i >= 50000 AND i < 50010")
	mustExec(t, e, "INSERT INTO b VALUES ('w50000', 1), ('w57919', 2), ('zz', 3)")
	if probe, _ := e.Catalog().Get("probe"); probe.NumRows() != 10 || probe.Column(0).Dict != words.Column(0).Dict {
		t.Fatal("the probe table does not share the words' dictionary")
	}
	b, n, err := drainJoin(t, e, "SELECT probe.s, b.n FROM probe, b WHERE probe.s = b.s", nil)
	if err != nil || n != 2 {
		t.Fatalf("the join handed on %d tuples, %v; want 2", n, err)
	}
	recode := b.keys.cols[0].recode
	if len(recode) != 100_000 {
		t.Fatalf("a recode map over %d codes, want one over the probe's dictionary", len(recode))
	}
	met := 0
	for _, at := range recode {
		if at != 0 {
			met++
		}
	}
	if met == 0 || met > 10 {
		t.Errorf("%d codes recoded, want 1 to 10: those the probe meets", met)
	}
}

// TestBatchInsertKeepsTheRowPathsContracts: the bulk append behind a batch of
// columns fails, is governed and is cancelled where the row-at-a-time append
// is. On both paths — the column path and the reference — a sink fault armed
// for row k of the second batch fires once, after the same number of hits; a
// REAL that is no integer at row 1 500 of an INSERT into an INTEGER column
// fails with AppendRow's message; MaxRows and MaxBytes trip with their codes;
// and a cancelled 42 000-row join-insert puts no more than one stride of rows
// through the sink after the cancel. The target, its index and its row count
// are as before every time.
func TestBatchInsertKeepsTheRowPathsContracts(t *testing.T) {
	const k = 300
	e := fkEngine(t)
	mustExec(t, e, `CREATE TABLE dst (g INTEGER, a INTEGER, PRIMARY KEY (g)); INSERT INTO dst VALUES (-1, 0), (-2, 0);
		CREATE TABLE src (g INTEGER, r REAL)`)
	src, _ := e.Catalog().Get("src")
	for i := 0; i < 3000; i++ {
		r := float64(i)
		if i == 1500 {
			r = 1500.5
		}
		src.AppendRow([]value.Value{value.NewInt(int64(i)), value.NewFloat(r)})
	}
	const joinInsert = "INSERT INTO dst SELECT fk.m1 * 0 + fk.k3 * 1000 + fk.k4, fk.k1 FROM fk, fj WHERE fk.k1 = fj.k1 AND fk.k2 = fj.k2"
	chaos.Enable()
	defer chaos.Disable()
	type outcome struct {
		err   string
		fired int
	}
	var ref []outcome
	for _, batch := range []bool{false, true} {
		UseReference(e, !batch)
		var got []outcome
		check := func(name string, ctx context.Context, sql, wantCode string) {
			t.Helper()
			before := stateOf(t, e, "dst")
			_, err := e.ExecSQLCtxP(ctx, sql, 2)
			o := outcome{fired: chaos.Fired(chaos.InsertSink)}
			chaos.Disarm(chaos.InsertSink)
			if err == nil {
				t.Fatalf("batch=%v %s: statement succeeded", batch, name)
			}
			o.err = err.Error()
			if got = append(got, o); wantCode != "" && diag.CodeOf(err) != wantCode {
				t.Errorf("batch=%v %s: err = %v, want code %s", batch, name, err, wantCode)
			}
			after := stateOf(t, e, "dst")
			before.epoch, after.epoch = 0, 0
			if !reflect.DeepEqual(before, after) {
				t.Errorf("batch=%v %s: target changed by a failed statement\nbefore %+v\nafter  %+v", batch, name, before, after)
			}
		}
		chaos.Arm(chaos.InsertSink, chaos.Fault{Err: errors.New("injected sink fault"), After: govStride + k - 1})
		check("sink fault", context.Background(), "INSERT INTO dst SELECT g, g FROM src", "")
		check("REAL into INTEGER", context.Background(), "INSERT INTO dst SELECT g, r FROM src", "")
		if want := `storage: table "dst" column "a": storage: cannot store REAL 1500.5 in INTEGER column`; !strings.HasPrefix(got[1].err, want) {
			t.Errorf("batch=%v: err = %q, want %q", batch, got[1].err, want)
		}
		check("MaxRows", WithLimits(context.Background(), Limits{MaxRows: 2000}), "INSERT INTO dst SELECT g, g FROM src", diag.CodeRowLimit)
		check("MaxBytes", WithLimits(context.Background(), Limits{MaxBytes: 60_000}), "INSERT INTO dst SELECT g, g FROM src", diag.CodeByteBudget)
		check("MaxRows, joined", WithLimits(context.Background(), Limits{MaxRows: 30_000}), joinInsert, diag.CodeRowLimit)
		// Every hit of an armed fault that does nothing counts a row reaching
		// the sink; every governor check counts one call of the context.
		const checks = 12
		cancel := &countdownCtx{Context: context.Background(), after: checks}
		chaos.Arm(chaos.InsertSink, chaos.Fault{})
		check("cancelled join-insert", WithLimits(cancel, Limits{MaxRows: math.MaxInt64}), joinInsert, diag.CodeCancelled)
		if rows := got[len(got)-1].fired; rows == 0 || rows > (checks+1)*govStride {
			t.Errorf("batch=%v: %d rows reached the sink of a join-insert cancelled at check %d, want within (0, %d]", batch, rows, checks, (checks+1)*govStride)
		}
		if !batch {
			ref = got
			continue
		}
		for i := range ref[:2] {
			if got[i] != ref[i] {
				t.Errorf("failure %d: column path %+v, row path %+v", i, got[i], ref[i])
			}
		}
		if ref[0].fired != 1 {
			t.Errorf("the sink fault fired %d times, want once", ref[0].fired)
		}
	}
}
