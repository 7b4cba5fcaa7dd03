package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/storage"
)

var update = flag.Bool("update", false, "rewrite golden files")

// newLinter returns a linter over a fresh, empty engine.
func newLinter() *Linter {
	return New(core.NewPlanner(engine.New(storage.NewCatalog())))
}

// lintFile lints one corpus file with a fresh engine. Directives like
// "-- lint:max-columns=N" are honored by LintSQL itself.
func lintFile(t *testing.T, path string) []Diagnostic {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := newLinter().LintSQL(string(src))
	if err != nil {
		t.Fatalf("%s: setup failed: %v", path, err)
	}
	return ds
}

// TestGoldenCorpus checks every testdata/*.sql file against its .golden
// rendering: exact codes, severities, source positions, messages, and fix
// suggestions. Run with -update to rewrite.
func TestGoldenCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.sql"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	for _, path := range files {
		name := strings.TrimSuffix(filepath.Base(path), ".sql")
		t.Run(name, func(t *testing.T) {
			got := renderAll("", lintFile(t, path))
			golden := strings.TrimSuffix(path, ".sql") + ".golden"
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestCorpusCoversAllCodes asserts the corpus exercises every registered
// diagnostic code, so adding a code forces adding a corpus case.
func TestCorpusCoversAllCodes(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.sql"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	seen := map[string]bool{}
	for _, path := range files {
		for _, d := range lintFile(t, path) {
			seen[d.Code] = true
		}
	}
	for _, ci := range diag.Registry {
		// Runtime codes (PCT2xx lifecycle errors) are raised by the engine
		// mid-execution, never by static analysis — the linter cannot emit
		// them, so the corpus does not cover them.
		if ci.Runtime {
			continue
		}
		if !seen[ci.Code] {
			t.Errorf("no corpus case emits %s (%s)", ci.Code, ci.Title)
		}
	}
}

// TestSeverityMatchesRegistry asserts every emitted diagnostic uses its
// code's registered default severity.
func TestSeverityMatchesRegistry(t *testing.T) {
	files, _ := filepath.Glob(filepath.Join("testdata", "*.sql"))
	for _, path := range files {
		for _, d := range lintFile(t, path) {
			ci, ok := diag.Lookup(d.Code)
			if !ok {
				t.Errorf("%s: unregistered code %s", path, d.Code)
				continue
			}
			if d.Severity != ci.DefaultSeverity {
				t.Errorf("%s: %s emitted with severity %v, registry says %v", path, d.Code, d.Severity, ci.DefaultSeverity)
			}
		}
	}
}
