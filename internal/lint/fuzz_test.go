package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzLint asserts the parser + linter pipeline never panics, whatever the
// input: syntax errors must become PCT000 diagnostics and semantic garbage
// must become positioned findings, never a crash. Each run gets a fresh
// engine pre-loaded with a small table so the data-aware checks execute
// too.
func FuzzLint(f *testing.F) {
	files, _ := filepath.Glob(filepath.Join("testdata", "*.sql"))
	for _, p := range files {
		if b, err := os.ReadFile(p); err == nil {
			f.Add(string(b))
		}
	}
	f.Add("SELECT a, Vpct(amt BY b) FROM f GROUP BY a, b")
	f.Add("SELECT a, Hpct(amt BY b) FROM f GROUP BY a")
	f.Add("SELECT ,;;( FROM")
	// Seeds aimed at the static WHERE analysis (PCT106-PCT110).
	f.Add("SELECT a FROM f WHERE amt > 100 AND amt < 50 AND a = 1")
	f.Add("SELECT a FROM f WHERE (amt <= 0 OR amt > 0) AND amt IN (1, NULL) AND b BETWEEN 'a' AND NULL")
	f.Add("SELECT a FROM f WHERE NOT (amt <> 5) AND amt NOT IN (5, 6) OR b > 7")
	f.Add("SELECT a, Vpct(0 BY b, b) FROM f WHERE amt = 0 GROUP BY a, b")
	// Seeds aimed at grouping-set analysis (per-set PCT110, lattice checks).
	f.Add("SELECT a, b, Vpct(amt BY b), GROUPING(a, b) FROM f GROUP BY CUBE(a, b)")
	f.Add("SELECT a, b, Vpct(amt BY b, b) FROM f GROUP BY GROUPING SETS ((a, b), (a), ())")
	f.Add("SELECT a, avg(amt) FROM f GROUP BY ROLLUP(a)")
	f.Add("SELECT a, Hpct(amt BY b) FROM f GROUP BY ROLLUP(a) ORDER BY 1 LIMIT 2")
	f.Add("SELECT a FROM f GROUP BY GROUPING SETS ((a, a), (1), ())")
	f.Fuzz(func(t *testing.T, src string) {
		l := newLinter()
		_, _ = l.Planner.Eng.ExecSQL("CREATE TABLE f (a INTEGER, b VARCHAR, amt INTEGER)")
		_, _ = l.Planner.Eng.ExecSQL("INSERT INTO f VALUES (1, 'x', 10), (1, 'y', 0), (2, 'x', -3)")
		ds, _ := l.LintSQL(src)
		_ = renderAll("fuzz.sql", ds)
		if _, err := renderJSON("fuzz.sql", ds); err != nil {
			t.Fatalf("JSON rendering failed: %v", err)
		}
	})
}
