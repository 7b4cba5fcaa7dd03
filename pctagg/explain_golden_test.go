package pctagg

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden EXPLAIN files")

// goldenDB loads a miniature — but seeded, hence fully deterministic —
// version of the papers' employee and sales data sets and wraps the bench
// suite's engine in a DB, so the goldens exercise the public
// EXPLAIN / EXPLAIN ANALYZE surface over the eight primary paper queries.
// Parallelism is pinned to 1: worker fan-out spans depend on GOMAXPROCS
// and have their own tests.
func goldenDB(t *testing.T) (*DB, *bench.Suite) {
	t.Helper()
	cards := workload.PaperCardinalities()
	cards.Dept = 3
	cards.Store = 2 // widest Hpct: 3×2 = 6 columns — keeps goldens readable
	cfg := bench.Config{
		EmployeeN: 300, SalesN: 600, TransN1: 1, TransN2: 1, CensusN: 1,
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

var (
	// Temp tables and indexes are numbered by a per-planner sequence that
	// keeps counting across queries; the number carries no information.
	tempSeqRe = regexp.MustCompile(`(pct_[a-z]+_)\d+`)
	// Span durations are wall-clock readings in Go duration syntax.
	durRe  = regexp.MustCompile(`\((\d+(\.\d+)?(ns|µs|ms|s|m|h))+\)`)
	timeRe = regexp.MustCompile(`time=\S+`)
)

// normalizeExplain strips the run-dependent parts of EXPLAIN output:
// temp-table sequence numbers, span durations, and the total-time summary.
func normalizeExplain(line string) string {
	line = tempSeqRe.ReplaceAllString(line, "${1}N")
	line = durRe.ReplaceAllString(line, "(DUR)")
	line = timeRe.ReplaceAllString(line, "time=DUR")
	return line
}

// explainGolden renders EXPLAIN (or EXPLAIN ANALYZE) for the Vpct and Hpct
// form of every primary query into one normalized text block.
func explainGolden(t *testing.T, db *DB, s *bench.Suite, analyze bool) string {
	t.Helper()
	kw := "EXPLAIN "
	if analyze {
		kw = "EXPLAIN ANALYZE "
	}
	var sb strings.Builder
	for _, q := range bench.PrimaryQueries() {
		for _, sql := range []string{q.VpctSQL(), q.HpctSQL()} {
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
	}
	return sb.String()
}

// TestExplainGolden pins the generated multi-statement SQL that plain
// EXPLAIN shows for the eight primary paper queries (both percentage
// forms). Codegen regressions show up as a readable text diff. Regenerate
// after intentional changes with:
//
//	go test ./pctagg/ -run ExplainGolden -update
func TestExplainGolden(t *testing.T) {
	db, s := goldenDB(t)
	compareGolden(t, "explain.golden", explainGolden(t, db, s, false))
	if n := len(db.Tables()); n != 2 {
		t.Errorf("EXPLAIN leaked temporaries: tables = %v", db.Tables())
	}
}

// TestExplainAnalyzeGolden pins the execution trace shape — span nesting,
// stage names, actual row counts — with durations normalized out. Every
// operator a primary query touches (scan, join build/probe, fold, the Vpct
// division join) must keep its place in the tree.
func TestExplainAnalyzeGolden(t *testing.T) {
	db, s := goldenDB(t)
	compareGolden(t, "explain_analyze.golden", explainGolden(t, db, s, true))
	if n := len(db.Tables()); n != 2 {
		t.Errorf("EXPLAIN ANALYZE leaked temporaries: tables = %v", db.Tables())
	}
}

func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file %s rewritten (%d bytes)", name, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s diverges from golden at line %d:\n  got:  %s\n  want: %s\n(run with -update if intentional)", name, i+1, g, w)
			}
		}
		t.Fatalf("%s diverges from golden (length mismatch)", name)
	}
}
