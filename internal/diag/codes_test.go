package diag_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sqlparse"
	"repro/internal/workload"
	"repro/pctagg"
)

// coded is a minimal error carrying a code, like the planner's and the
// engine's typed errors.
type coded struct{ code string }

func (c coded) Error() string { return "coded " + c.code }
func (c coded) Code() string  { return c.code }

// TestCodeOf pins the one error→code rule, then the word each of its three
// callers supplies for an uncoded failure: "error" in the statement
// statistics, "other" in the query-error counters, nothing on the wire.
func TestCodeOf(t *testing.T) {
	_, syntaxErr := sqlparse.Parse("SELEC 1")
	var se *sqlparse.SyntaxError
	if !errors.As(syntaxErr, &se) {
		t.Fatalf("parse error = %v, want a *sqlparse.SyntaxError", syntaxErr)
	}
	plain := errors.New("plain")
	for _, tc := range []struct {
		name string
		err  error
		want string
	}{
		{"nil", nil, ""},
		{"uncoded", plain, ""},
		{"direct", coded{diag.CodeHaving}, diag.CodeHaving},
		{"wrapped", fmt.Errorf("core: step %q: %w", "divide", coded{diag.CodeRowLimit}), diag.CodeRowLimit},
		{"wrapped twice", fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", coded{diag.CodePanic})), diag.CodePanic},
		{"joined", errors.Join(plain, coded{diag.CodeCancelled}), diag.CodeCancelled},
		{"joined, first code wins", errors.Join(coded{diag.CodeDeadline}, coded{diag.CodeGroupLimit}), diag.CodeDeadline},
		{"joined uncoded", errors.Join(plain, plain), ""},
		{"syntax error", syntaxErr, diag.CodeSyntax},
		{"wrapped syntax error", fmt.Errorf("script: %w", syntaxErr), diag.CodeSyntax},
		{"lifecycle error", engine.CheckCtx(cancelledCtx()), diag.CodeCancelled},
	} {
		if got := diag.CodeOf(tc.err); got != tc.want {
			t.Errorf("%s: CodeOf(%v) = %q, want %q", tc.name, tc.err, got, tc.want)
		}
	}

	// The three call sites, each with one uncoded failure (an unknown column
	// in a standard SELECT), one syntax error and one rule the planner's
	// classification rejects (Vpct beside Hpct).
	defer leakcheck.Check(t)()
	db := pctagg.Open()
	if _, err := db.Exec(workload.DemoSQL); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableIntrospection(pctagg.IntrospectionConfig{}); err != nil {
		t.Fatal(err)
	}
	const uncoded, syntax = "SELECT nope FROM sales", "SELEC state FROM sales"
	const mixed = "SELECT state, Vpct(salesAmt), Hpct(salesAmt BY city) FROM sales GROUP BY state"

	other := obs.Default.Counter("query.errors.other")
	bySyntax := obs.Default.Counter("query.errors." + diag.CodeSyntax)
	byMixed := obs.Default.Counter("query.errors." + diag.CodeMixedClasses)
	o0, s0, m0 := other.Value(), bySyntax.Value(), byMixed.Value()
	for _, q := range []string{uncoded, syntax, mixed} {
		if _, err := db.Query(q); err == nil {
			t.Fatalf("%s succeeded", q)
		}
	}
	if o, s, m := other.Value()-o0, bySyntax.Value()-s0, byMixed.Value()-m0; o != 1 || s != 1 || m != 1 {
		t.Errorf("query.errors.other moved by %d, query.errors.%s by %d and query.errors.%s by %d, want 1, 1 and 1",
			o, diag.CodeSyntax, s, diag.CodeMixedClasses, m)
	}
	rows, err := db.Query("SELECT top, error_codes FROM pct_stat_statements WHERE errors > 0 ORDER BY top, error_codes")
	if err != nil {
		t.Fatal(err)
	}
	// All three failed as statements a caller sent (top = 1): the syntax
	// error before it ran, the mixed classes in the rewriter, the uncoded
	// SELECT in the engine.
	want := [][]any{{int64(1), diag.CodeSyntax + ":1"}, {int64(1), diag.CodeMixedClasses + ":1"}, {int64(1), "error:1"}}
	if fmt.Sprint(rows.Data) != fmt.Sprint(want) {
		t.Errorf("pct_stat_statements error codes = %v, want %v", rows.Data, want)
	}

	srv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := server.Dial(srv.Addr().String(), "alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for q, want := range map[string]string{uncoded: "", syntax: diag.CodeSyntax, mixed: diag.CodeMixedClasses} {
		_, err := c.Do(context.Background(), q)
		var re *server.RemoteError
		if !errors.As(err, &re) || re.Code() != want {
			t.Errorf("over the wire, %s: err = %v, want a remote error with code %q", q, err, want)
		}
	}
}

func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}
