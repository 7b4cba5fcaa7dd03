package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/leakcheck"
	"repro/internal/storage"
	"repro/internal/value"
)

// sameResult asserts two results are identical: same columns, same rows in
// the same order, values compared exactly (the parallel path's pinned merge
// order promises byte-identical output, so no tolerance is used; test data
// keeps sums exact by using integers).
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Columns) != len(b.Columns) {
		t.Fatalf("%s: column count %d vs %d", label, len(a.Columns), len(b.Columns))
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("%s: row count %d vs %d", label, len(a.Rows), len(b.Rows))
	}
	for ri := range a.Rows {
		for ci := range a.Rows[ri] {
			av, bv := a.Rows[ri][ci], b.Rows[ri][ci]
			if av.IsNull() != bv.IsNull() || (!av.IsNull() && value.Compare(av, bv) != 0) {
				t.Fatalf("%s: row %d col %d: %v vs %v", label, ri, ci, av, bv)
			}
		}
	}
}

// randAggEngine builds a table with enough groups and NULLs to exercise
// every merge path, including groups confined to single partitions.
func randAggEngine(t *testing.T, n int, seed int64) *Engine {
	t.Helper()
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE f (g1 INTEGER, g2 VARCHAR, a INTEGER, b INTEGER)")
	tab, _ := e.Catalog().Get("f")
	rng := rand.New(rand.NewSource(seed))
	strs := []string{"x", "y", "z", "w", "v"}
	for i := 0; i < n; i++ {
		row := []value.Value{
			value.NewInt(int64(rng.Intn(17))),
			value.NewString(strs[rng.Intn(len(strs))]),
			value.NewInt(int64(rng.Intn(200) - 50)),
			value.NewInt(int64(rng.Intn(7))),
		}
		if rng.Intn(9) == 0 {
			row[2] = value.Null
		}
		if rng.Intn(23) == 0 {
			row[0] = value.Null
		}
		if _, err := tab.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestParallelAggregationMatchesSequential(t *testing.T) {
	defer leakcheck.Check(t)()
	queries := []string{
		"SELECT g1, g2, sum(a), count(*), count(a), min(a), max(a), avg(a) FROM f GROUP BY g1, g2",
		"SELECT g1, sum(a), count(DISTINCT b) FROM f GROUP BY g1",
		"SELECT sum(a), count(*), avg(a) FROM f",
		"SELECT g2, sum(a) FROM f WHERE a > 0 GROUP BY g2",
		"SELECT g1, count(*) FROM f GROUP BY g1 HAVING count(*) > 10",
	}
	for _, n := range []int{0, 1, 3, 500} {
		e := randAggEngine(t, n, int64(n)+1)
		for _, q := range queries {
			seq, err := e.ExecSQLCtxP(context.Background(), q, 1)
			if err != nil {
				t.Fatalf("n=%d seq %s: %v", n, q, err)
			}
			for _, p := range []int{0, 2, 3, 8} {
				par, err := e.ExecSQLCtxP(context.Background(), q, p)
				if err != nil {
					t.Fatalf("n=%d P=%d %s: %v", n, p, q, err)
				}
				sameResult(t, fmt.Sprintf("n=%d P=%d %s", n, p, q), seq, par)
			}
		}
	}
}

func TestParallelPreservesFirstAppearanceOrder(t *testing.T) {
	// Groups that first appear late in the input must stay late in the
	// output regardless of which partition folds them first.
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE f (g INTEGER, a INTEGER)")
	tab, _ := e.Catalog().Get("f")
	// 100 groups, introduced in descending order: 99, 98, ..., 0, then a
	// tail revisiting them all ascending.
	for g := 99; g >= 0; g-- {
		for r := 0; r < 3; r++ {
			if _, err := tab.AppendRow([]value.Value{value.NewInt(int64(g)), value.NewInt(int64(r))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for g := 0; g < 100; g++ {
		if _, err := tab.AppendRow([]value.Value{value.NewInt(int64(g)), value.NewInt(10)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []int{2, 7, 8, 64} {
		res, err := e.ExecSQLCtxP(context.Background(), "SELECT g, sum(a) FROM f GROUP BY g", p)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 100 {
			t.Fatalf("P=%d: got %d groups", p, len(res.Rows))
		}
		for i, row := range res.Rows {
			if got := row[0].Int(); got != int64(99-i) {
				t.Fatalf("P=%d: output position %d holds group %d, want %d", p, i, got, 99-i)
			}
			if got := row[1].Int(); got != 13 { // head rows 0+1+2, plus one tail row of 10
				t.Fatalf("P=%d: group %d sum = %d, want 13", p, 99-i, got)
			}
		}
	}
}

func TestParallelForcedOnTinyInput(t *testing.T) {
	// Explicit parallelism > 1 must take the partitioned path even below
	// the auto threshold; worker count is capped by the row count.
	e := newTestEngine(t)
	seq, err := e.ExecSQLCtxP(context.Background(), "SELECT state, sum(salesAmt), count(*) FROM sales GROUP BY state", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8, 1000} {
		par, err := e.ExecSQLCtxP(context.Background(), "SELECT state, sum(salesAmt), count(*) FROM sales GROUP BY state", p)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("P=%d", p), seq, par)
	}
}

func TestParallelEmptyInputGlobalGroup(t *testing.T) {
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE empty (a INTEGER)")
	for _, p := range []int{1, 2, 8} {
		res, err := e.ExecSQLCtxP(context.Background(), "SELECT sum(a), count(*), count(a), min(a), avg(a) FROM empty", p)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("P=%d: want the global group row, got %d rows", p, len(res.Rows))
		}
		r := res.Rows[0]
		if !r[0].IsNull() || r[1].Int() != 0 || r[2].Int() != 0 || !r[3].IsNull() || !r[4].IsNull() {
			t.Fatalf("P=%d: global group = %v", p, r)
		}
	}
}

func TestParallelErrorPropagation(t *testing.T) {
	// A type error deep in one partition must surface as the same error the
	// sequential path reports — and the failed fan-out must reap its workers.
	defer leakcheck.Check(t)()
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE f (s VARCHAR)")
	tab, _ := e.Catalog().Get("f")
	for i := 0; i < 100; i++ {
		if _, err := tab.AppendRow([]value.Value{value.NewString("oops")}); err != nil {
			t.Fatal(err)
		}
	}
	_, seqErr := e.ExecSQLCtxP(context.Background(), "SELECT sum(s) FROM f", 1)
	if seqErr == nil {
		t.Fatal("sequential sum over strings should fail")
	}
	for _, p := range []int{2, 8} {
		_, parErr := e.ExecSQLCtxP(context.Background(), "SELECT sum(s) FROM f", p)
		if parErr == nil {
			t.Fatalf("P=%d: expected the sequential path's error, got success", p)
		}
		if parErr.Error() != seqErr.Error() {
			t.Fatalf("P=%d: error %q differs from sequential %q", p, parErr, seqErr)
		}
	}
}

func TestEngineParallelismDefaultAndOverride(t *testing.T) {
	e := New(storage.NewCatalog())
	if got := e.Parallelism(); got != 1 {
		t.Fatalf("default engine parallelism = %d, want 1 (sequential)", got)
	}
	e.SetParallelism(4)
	if got := e.Parallelism(); got != 4 {
		t.Fatalf("SetParallelism(4) then Parallelism() = %d", got)
	}
	mustExec(t, e, "CREATE TABLE f (a INTEGER); INSERT INTO f VALUES (1), (2), (3)")
	res := mustExec(t, e, "SELECT sum(a) FROM f")
	if res.Rows[0][0].Int() != 6 {
		t.Fatalf("sum under default parallelism 4 = %v", res.Rows[0][0])
	}
}

func TestResolveWorkers(t *testing.T) {
	if w := resolveWorkers(1); w != 1 {
		t.Fatalf("resolveWorkers(1) = %d", w)
	}
	if w := resolveWorkers(6); w != 6 {
		t.Fatalf("resolveWorkers(6) = %d", w)
	}
	if w := resolveWorkers(0); w < 1 {
		t.Fatalf("resolveWorkers(0) = %d", w)
	}
	if w := resolveWorkers(-3); w < 1 {
		t.Fatalf("resolveWorkers(-3) = %d", w)
	}
}

// TestAccumulatorMergeSemantics exercises each accumulator's merge directly,
// including the states the SQL surface cannot reach in isolation.
func TestAccumulatorMergeSemantics(t *testing.T) {
	mk := func(fn expr.AggFn, distinct, star bool) accumulator {
		acc, err := refAccumulator(&expr.AggCall{Fn: fn, Distinct: distinct, Star: star})
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	addAll := func(acc accumulator, vs ...value.Value) {
		t.Helper()
		for _, v := range vs {
			if err := acc.add(v); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("sum int+int stays int", func(t *testing.T) {
		a, b := mk(expr.AggSum, false, false), mk(expr.AggSum, false, false)
		addAll(a, value.NewInt(3), value.NewInt(4))
		addAll(b, value.NewInt(10))
		if err := a.merge(b); err != nil {
			t.Fatal(err)
		}
		if got := a.result(); got.Kind() != value.KindInt || got.Int() != 17 {
			t.Fatalf("merged sum = %v", got)
		}
	})
	t.Run("sum int+float demotes", func(t *testing.T) {
		a, b := mk(expr.AggSum, false, false), mk(expr.AggSum, false, false)
		addAll(a, value.NewInt(3))
		addAll(b, value.NewFloat(0.5))
		if err := a.merge(b); err != nil {
			t.Fatal(err)
		}
		got := a.result()
		if got.Kind() != value.KindFloat {
			t.Fatalf("merged sum kind = %v", got.Kind())
		}
		if f, _ := got.AsFloat(); f != 3.5 { // floateq:ok dyadic values sum exactly
			t.Fatalf("merged sum = %v", got)
		}
	})
	t.Run("sum unseen sides", func(t *testing.T) {
		a, b := mk(expr.AggSum, false, false), mk(expr.AggSum, false, false)
		addAll(b, value.NewInt(7))
		if err := a.merge(b); err != nil {
			t.Fatal(err)
		}
		if got := a.result(); got.Int() != 7 {
			t.Fatalf("empty ← seen merge = %v", got)
		}
		c := mk(expr.AggSum, false, false)
		if err := a.merge(c); err != nil {
			t.Fatal(err)
		}
		if got := a.result(); got.Int() != 7 {
			t.Fatalf("seen ← empty merge = %v", got)
		}
	})
	t.Run("count distinct unions", func(t *testing.T) {
		a, b := mk(expr.AggCount, true, false), mk(expr.AggCount, true, false)
		addAll(a, value.NewInt(1), value.NewInt(2), value.Null)
		addAll(b, value.NewInt(2), value.NewInt(3))
		if err := a.merge(b); err != nil {
			t.Fatal(err)
		}
		if got := a.result(); got.Int() != 3 {
			t.Fatalf("distinct union = %v, want 3", got)
		}
	})
	t.Run("avg merges sum and count", func(t *testing.T) {
		a, b := mk(expr.AggAvg, false, false), mk(expr.AggAvg, false, false)
		addAll(a, value.NewInt(1), value.NewInt(2))
		addAll(b, value.NewInt(9))
		if err := a.merge(b); err != nil {
			t.Fatal(err)
		}
		if f, _ := a.result().AsFloat(); f != 4 { // floateq:ok 12/3 is exact
			t.Fatalf("merged avg = %v", a.result())
		}
	})
	t.Run("min and max adopt the extreme", func(t *testing.T) {
		lo, hi := mk(expr.AggMin, false, false), mk(expr.AggMin, false, false)
		addAll(lo, value.NewInt(5))
		addAll(hi, value.NewInt(-2))
		if err := lo.merge(hi); err != nil {
			t.Fatal(err)
		}
		if got := lo.result(); got.Int() != -2 {
			t.Fatalf("merged min = %v", got)
		}
		a, b := mk(expr.AggMax, false, false), mk(expr.AggMax, false, false)
		addAll(a, value.NewInt(5))
		addAll(b, value.NewInt(40))
		if err := a.merge(b); err != nil {
			t.Fatal(err)
		}
		if got := a.result(); got.Int() != 40 {
			t.Fatalf("merged max = %v", got)
		}
	})
	t.Run("kind mismatch is rejected", func(t *testing.T) {
		a, b := mk(expr.AggSum, false, false), mk(expr.AggCount, false, true)
		if err := a.merge(b); err == nil {
			t.Fatal("sum ← count merge should fail")
		}
		lo, hi := mk(expr.AggMin, false, false), mk(expr.AggMax, false, false)
		if err := lo.merge(hi); err == nil {
			t.Fatal("min ← max merge should fail")
		}
	})
}

// TestArrayMergeSemantics asserts every case TestAccumulatorMergeSemantics
// pins against the fold's own merge — cell into cell, by id remap
// (foldPart.absorb) — instead of the accumulator objects': a two-worker fold
// of a table whose first half is partition 1 and second half partition 2,
// one group per case. Typed kernels (bare i and f) and the boxed one (the
// INTEGER-or-REAL mix) both feed the cells.
func TestArrayMergeSemantics(t *testing.T) {
	type row struct {
		g    int64
		i, f any // int64 / float64 / nil
	}
	negZero := math.Copysign(0, -1)
	parts := [2][]row{
		{{1, 3, nil}, {1, 4, nil}, // int + int stays int
			{2, 3, nil},                             // int ← float demotes
			{3, nil, nil},                           // unseen ← seen
			{4, 7, nil},                             // seen ← unseen
			{5, nil, nil},                           // all-NULL group: NULL, count 0
			{6, 1, nil}, {6, 2, nil}, {6, nil, nil}, // count distinct unions
			{7, 1, 0.5}, {7, 2, nil}, // avg merges sum and count
			{8, 5, 5.5},     // min and max adopt the extreme
			{9, 9, negZero}, // only partition 1 has the group: -0.0 survives the merge
		},
		{{1, 10, nil},
			{2, nil, 0.5},
			{3, 7, nil},
			{4, nil, nil},
			{5, nil, nil},
			{6, 2, nil}, {6, 3, nil},
			{7, 9, nil},
			{8, -2, -2.5}, {8, 40, 40.5},
			{10, 1, 1.5},                 // only partition 2 has the group: it appends
			{0, nil, nil}, {0, nil, nil}, // pad the halves to one length
		},
	}
	if len(parts[0]) != len(parts[1]) {
		t.Fatalf("test bug: partitions of %d and %d rows", len(parts[0]), len(parts[1]))
	}
	e := New(storage.NewCatalog())
	mustExec(t, e, "CREATE TABLE m (g INTEGER, i INTEGER, f REAL)")
	tab, _ := e.Catalog().Get("m")
	for _, part := range parts {
		for _, r := range part {
			vals := []value.Value{value.NewInt(r.g), value.Null, value.Null}
			if i, ok := r.i.(int); ok {
				vals[1] = value.NewInt(int64(i))
			}
			if f, ok := r.f.(float64); ok {
				vals[2] = value.NewFloat(f)
			}
			if _, err := tab.AppendRow(vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	const sql = "SELECT g, sum(i), sum(CASE WHEN f IS NULL THEN i ELSE f END), count(DISTINCT i), avg(i), min(i), max(i), min(f), max(f), count(i), count(*) FROM m GROUP BY g"
	got, err := e.ExecSQLCtxP(context.Background(), sql, 2)
	if err != nil {
		t.Fatal(err)
	}
	UseReference(e, true)
	ref, err := e.ExecSQLCtxP(context.Background(), sql, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := fuzzResultDiff(ref, got); d != "" {
		t.Fatalf("two-worker fold diverges from the reference: %s", d)
	}
	want := map[int64]string{
		1:  "1 17 17 3 5.666666666666667 3 10 NULL NULL 3 3",
		2:  "2 3 3.5 1 3 3 3 0.5 0.5 1 2",
		3:  "3 7 7 1 7 7 7 NULL NULL 1 2",
		4:  "4 7 7 1 7 7 7 NULL NULL 1 2",
		5:  "5 NULL NULL 0 NULL NULL NULL NULL NULL 0 2",
		6:  "6 8 8 3 2 1 3 NULL NULL 4 5",
		7:  "7 12 11.5 3 4 1 9 0.5 0.5 3 3",
		8:  "8 43 43.5 3 14.333333333333334 -2 40 -2.5 40.5 3 3",
		9:  "9 9 -0 1 9 9 9 -0 -0 1 1",
		10: "10 1 1.5 1 1 1 1 1.5 1.5 1 1",
	}
	order := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0} // first appearance: 10 and the padding come from partition 2
	for ri, r := range got.Rows {
		if r[0].Int() != order[ri] {
			t.Fatalf("row %d is group %v, want %d (first-appearance order)", ri, r[0], order[ri])
		}
		cells := make([]string, len(r))
		for ci, v := range r {
			cells[ci] = v.String()
		}
		if w, ok := want[r[0].Int()]; ok && strings.Join(cells, " ") != w {
			t.Errorf("group %v = %s, want %s", r[0], strings.Join(cells, " "), w)
		}
	}
	if k := got.Rows[1][2].Kind(); k != value.KindFloat {
		t.Errorf("int ← float merge left a %v sum", k)
	}
	if k := got.Rows[0][2].Kind(); k != value.KindInt {
		t.Errorf("int ← int merge left a %v sum", k)
	}
}

// TestSeqFallbackCountedOnce pins engine.agg.seq_fallback to the one decision
// site: an auto-mode (P=0) fold under the 8192-row threshold counts exactly
// once whether a stored table or a join feeds it; forced and sequential
// settings never count.
func TestSeqFallbackCountedOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	e := newTestEngine(t)
	const tableFed = "SELECT state, sum(salesAmt * 2) FROM sales GROUP BY state"
	const joinFed = "SELECT a.state, count(*) FROM sales a, sales b WHERE a.RID = b.RID GROUP BY a.state"
	for _, tc := range []struct {
		sql  string
		par  int
		want int64
	}{
		{tableFed, 0, 1}, {joinFed, 0, 1},
		{tableFed, 1, 0}, {joinFed, 1, 0},
		{tableFed, 4, 0}, {joinFed, 4, 0},
	} {
		before := mAggSeqFallback.Value()
		if _, err := e.ExecSQLCtxP(context.Background(), tc.sql, tc.par); err != nil {
			t.Fatal(err)
		}
		if got := mAggSeqFallback.Value() - before; got != tc.want {
			t.Errorf("P=%d %s: engine.agg.seq_fallback moved by %d, want %d", tc.par, tc.sql, got, tc.want)
		}
	}
}
