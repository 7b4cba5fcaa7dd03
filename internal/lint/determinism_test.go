package lint

import (
	"testing"
)

// determinismScript packs findings from every analysis layer — structural
// rules, data-aware checks, and the static WHERE analysis — into one
// script, so the run-twice comparison covers all diagnostic sources.
const determinismScript = `
CREATE TABLE f (region VARCHAR, quarter INTEGER, amt INTEGER);
INSERT INTO f VALUES
  ('East', 1, 10), ('East', 2, 0), ('West', 1, NULL), ('West', 2, 45);
SELECT region, quarter, Vpct(amt BY quarter)
FROM f WHERE amt > 9000 AND amt < 3
GROUP BY region, quarter;
SELECT region, count(*)
FROM f WHERE region = 5 AND 1 = 1
GROUP BY region ORDER BY region;
SELECT region, quarter, Vpct(amt BY quarter, quarter)
FROM f GROUP BY region, quarter ORDER BY region, quarter;
`

// TestLintDeterministic runs the linter twice on fresh engines and demands
// byte-identical renderings: map iteration or data-layout accidents must
// never reorder findings between runs.
func TestLintDeterministic(t *testing.T) {
	render := func() string {
		t.Helper()
		ds, err := newLinter().LintSQL(determinismScript)
		if err != nil {
			t.Fatalf("setup failed: %v", err)
		}
		return renderAll("d.sql", ds)
	}
	first := render()
	if first == "" {
		t.Fatal("script produced no findings; the determinism check is vacuous")
	}
	for i := 0; i < 3; i++ {
		if got := render(); got != first {
			t.Fatalf("run %d differs:\n--- first ---\n%s--- now ---\n%s", i+2, first, got)
		}
	}
}

// TestLintSorted asserts the published ordering contract: diagnostics come
// back sorted by source position (line, then column), with unpositioned
// findings last.
func TestLintSorted(t *testing.T) {
	ds, err := newLinter().LintSQL(determinismScript)
	if err != nil {
		t.Fatalf("setup failed: %v", err)
	}
	if len(ds) < 2 {
		t.Fatalf("want several findings, got %d", len(ds))
	}
	for i := 1; i < len(ds); i++ {
		a, b := ds[i-1].Span.Start, ds[i].Span.Start
		switch {
		case a.IsZero():
			if !b.IsZero() {
				t.Errorf("finding %d: positioned %s follows unpositioned", i, b)
			}
		case b.IsZero():
			// positioned before unpositioned: fine
		case b.Line < a.Line || (b.Line == a.Line && b.Col < a.Col):
			t.Errorf("finding %d: %s sorts before %s", i, b, a)
		}
	}
}
