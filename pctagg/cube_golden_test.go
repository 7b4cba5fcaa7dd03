package pctagg

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/workload"
)

// cubeGoldenDB is goldenDB shrunk further: the cube goldens check in full
// cross-tab results (not just plans), and ROLLUP over the age dimension
// multiplies rows, so the data sets stay tiny to keep the goldens readable.
func cubeGoldenDB(t *testing.T) (*DB, *bench.Suite) {
	t.Helper()
	cards := workload.PaperCardinalities()
	cards.Dept = 3
	cards.Store = 2
	cfg := bench.Config{
		EmployeeN: 48, SalesN: 96, TransN1: 1, TransN2: 1, CensusN: 1,
		Seed: 7, Cards: cards, Reps: 1,
	}
	s, err := bench.NewSuite(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []string{"employee", "sales"} {
		if err := s.Ensure(ds); err != nil {
			t.Fatal(err)
		}
	}
	db := newDB(s.Eng, s.Planner)
	db.SetParallelism(1)
	return db, s
}

func formatCell(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case int64:
		return strconv.FormatInt(x, 10)
	case string:
		return x
	default:
		return fmt.Sprint(x)
	}
}

// cubeQueries renders the percentage-cube form of every primary query:
// Vpct under ROLLUP/CUBE with GROUPING markers, and Hpct under ROLLUP
// where the query has a GROUP BY to roll up.
func cubeQueries(s *bench.Suite) []string {
	var out []string
	for _, q := range bench.PrimaryQueries() {
		out = append(out, q.CubeVpctSQL())
		if sql := q.CubeHpctSQL(); sql != "" {
			out = append(out, sql)
		}
	}
	return out
}

// cubeResultsGolden renders the full cross-tab of every cube query as a
// text block: a header line of column names, then one line per row.
func cubeResultsGolden(t *testing.T, db *DB, s *bench.Suite) string {
	t.Helper()
	var sb strings.Builder
	for _, sql := range cubeQueries(s) {
		rows, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		sb.WriteString("===== " + sql + " =====\n")
		sb.WriteString(strings.Join(rows.Columns, " | ") + "\n")
		for _, r := range rows.Data {
			cells := make([]string, len(r))
			for i, v := range r {
				cells[i] = formatCell(v)
			}
			sb.WriteString(strings.Join(cells, " | ") + "\n")
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestCubeResultsGolden pins the full cross-tab output of the eight primary
// paper queries re-run as percentage cubes, and doubles as the determinism
// regression: the corpus is rendered twice from independently built
// databases and must match byte for byte before being compared to the
// golden. Regenerate after intentional changes with:
//
//	go test ./pctagg/ -run CubeResultsGolden -update
func TestCubeResultsGolden(t *testing.T) {
	db, s := cubeGoldenDB(t)
	got := cubeResultsGolden(t, db, s)
	db2, s2 := cubeGoldenDB(t)
	if again := cubeResultsGolden(t, db2, s2); again != got {
		t.Fatal("cube corpus is not deterministic across identical runs")
	}
	// Run-twice on the same DB: temp-table state from the first pass must
	// not leak into the second.
	if again := cubeResultsGolden(t, db, s); again != got {
		t.Fatal("cube corpus is not deterministic across repeated runs on one DB")
	}
	compareGolden(t, "cube_results.golden", got)
	if n := len(db.Tables()); n != 2 {
		t.Errorf("cube corpus leaked temporaries: tables = %v", db.Tables())
	}
}

// cubeExplainGolden renders EXPLAIN (or EXPLAIN ANALYZE) for every cube
// query, normalized like the plain EXPLAIN goldens.
func cubeExplainGolden(t *testing.T, db *DB, s *bench.Suite, analyze bool) string {
	t.Helper()
	kw := "EXPLAIN "
	if analyze {
		kw = "EXPLAIN ANALYZE "
	}
	var sb strings.Builder
	for _, sql := range cubeQueries(s) {
		rows, err := db.Query(kw + sql)
		if err != nil {
			t.Fatalf("%s%s: %v", kw, sql, err)
		}
		sb.WriteString("===== " + sql + " =====\n")
		for _, r := range rows.Data {
			sb.WriteString(normalizeExplain(r[0].(string)))
			sb.WriteByte('\n')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestCubeExplainGolden pins the generated lattice plans for the cube
// corpus and enforces the single-scan acceptance criterion on every one of
// them: each plan must reference its base table exactly once.
func TestCubeExplainGolden(t *testing.T) {
	db, s := cubeGoldenDB(t)
	got := cubeExplainGolden(t, db, s, false)
	for _, block := range strings.Split(got, "===== ") {
		if block == "" {
			continue
		}
		dataset := "employee"
		if strings.Contains(block[:strings.Index(block, "\n")], "FROM sales") {
			dataset = "sales"
		}
		scans := strings.Count(block, "FROM "+dataset)
		// The header line quotes the query's own FROM clause; the plan body
		// must add exactly one more (the finest-summary scan).
		if scans != 2 {
			t.Errorf("plan scans %s %d times, want exactly 1 base-table scan:\n%s", dataset, scans-1, block)
		}
	}
	compareGolden(t, "cube_explain.golden", got)
	if n := len(db.Tables()); n != 2 {
		t.Errorf("EXPLAIN leaked temporaries: tables = %v", db.Tables())
	}
}

// TestCubeExplainAnalyzeGolden pins the executed lattice trace — per-node
// step nesting and actual row counts — with durations normalized out.
func TestCubeExplainAnalyzeGolden(t *testing.T) {
	db, s := cubeGoldenDB(t)
	compareGolden(t, "cube_explain_analyze.golden", cubeExplainGolden(t, db, s, true))
	if n := len(db.Tables()); n != 2 {
		t.Errorf("EXPLAIN ANALYZE leaked temporaries: tables = %v", db.Tables())
	}
}
