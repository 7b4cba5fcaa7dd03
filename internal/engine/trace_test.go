package engine

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sqlparse"
)

func parseOne(t *testing.T, sql string) sqlparse.Statement {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

func traceText(t *testing.T, e *Engine, sql string) string {
	t.Helper()
	r := mustExec(t, e, sql)
	var sb strings.Builder
	for _, row := range r.Rows {
		sb.WriteString(row[0].Str())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestExplainAnalyzeAnnotations(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE totals (state VARCHAR, total INTEGER)")
	mustExec(t, e, "INSERT INTO totals VALUES ('CA', 106), ('TX', 149)")
	text := traceText(t, e, `EXPLAIN ANALYZE SELECT s.state, sum(s.salesAmt) FROM sales s, totals t
		WHERE s.state = t.state GROUP BY s.state ORDER BY s.state`)
	for _, frag := range []string{
		"HashAggregate", "(actual rows=2", "HashJoin", "Scan sales (10 rows) (actual rows=10",
		"Execution: rows=2", "Sort", "build time=",
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("EXPLAIN ANALYZE lacks %q:\n%s", frag, text)
		}
	}

	// Plain selects annotate the Project stage and the scan.
	text = traceText(t, e, "EXPLAIN ANALYZE SELECT state FROM sales WHERE salesAmt > 10")
	for _, frag := range []string{"Project [state] (actual rows=", "Filter", "Scan sales"} {
		if !strings.Contains(text, frag) {
			t.Errorf("plain EXPLAIN ANALYZE lacks %q:\n%s", frag, text)
		}
	}
}

func TestExplainAnalyzeParallelWorkers(t *testing.T) {
	e := newTestEngine(t)
	stmt := parseOne(t, "EXPLAIN ANALYZE SELECT state, sum(salesAmt) FROM sales GROUP BY state")
	r, err := e.ExecuteCtxIn(context.Background(), stmt, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, row := range r.Box().Rows {
		sb.WriteString(row[0].Str())
		sb.WriteByte('\n')
	}
	text := sb.String()
	for _, frag := range []string{"Parallel fold (2 workers)", "worker 1/2", "worker 2/2", "merge: groups=2"} {
		if !strings.Contains(text, frag) {
			t.Errorf("parallel EXPLAIN ANALYZE lacks %q:\n%s", frag, text)
		}
	}
}

// TestTraceSinkSpans covers the invariants of the statement tree a trace
// sink upstream (pctagg's) receives under its parent span: a parallel run
// traces one span per worker plus a merge span, and sequential children never
// out-sum their parent anywhere in the tree.
func TestTraceSinkSpans(t *testing.T) {
	e := newTestEngine(t)
	parent := obs.NewSpan("test")
	stmt := parseOne(t, "SELECT state, sum(salesAmt) FROM sales GROUP BY state")
	if _, err := e.ExecuteCtxIn(context.Background(), stmt, 3, parent); err != nil {
		t.Fatal(err)
	}
	parent.End()
	if len(parent.Children) != 1 {
		t.Fatalf("parent received %d spans, want 1", len(parent.Children))
	}
	root := parent.Children[0]
	if root.Name != "statement" || root.Duration <= 0 {
		t.Fatalf("root span = %s (%v)", root.Name, root.Duration)
	}
	fan := root.Find("partition fan-out")
	if fan == nil || !fan.Concurrent {
		t.Fatalf("no concurrent fan-out span:\n%s", root.Format())
	}
	if len(fan.Children) != 3 {
		t.Errorf("worker spans = %d, want 3", len(fan.Children))
	}
	for _, w := range fan.Children {
		if !strings.HasPrefix(w.Name, "worker ") || w.Duration <= 0 {
			t.Errorf("bad worker span %q (%v)", w.Name, w.Duration)
		}
	}
	if root.Find("merge") == nil {
		t.Errorf("no merge span:\n%s", root.Format())
	}
	if root.Find("scan sales") == nil {
		t.Errorf("no scan operator span:\n%s", root.Format())
	}

	// Sequential children must never out-sum their parent (concurrent
	// fan-outs are exempt: workers overlap in wall time). The microsecond
	// grace absorbs clock granularity on near-zero spans. A one-worker fold
	// fed by a filtered join charges its wall to each operator under it, no
	// more.
	for i, root := range []*obs.Span{root, nil} {
		if i == 1 {
			parent := obs.NewSpan("test")
			stmt := parseOne(t, "SELECT s.state, count(*) FROM sales s, sales d WHERE s.RID = d.RID AND s.salesAmt > d.RID GROUP BY s.state")
			if _, err := e.ExecuteCtxIn(context.Background(), stmt, 1, parent); err != nil {
				t.Fatal(err)
			}
			parent.End()
			root = parent
		}
		root.Walk(func(s *obs.Span) {
			if s.Concurrent || len(s.Children) == 0 {
				return
			}
			var sum time.Duration
			for _, c := range s.Children {
				sum += c.Duration
			}
			if sum > s.Duration+time.Microsecond {
				t.Errorf("children of %q sum to %v, parent is %v:\n%s", s.Name, sum, s.Duration, root.Format())
			}
		})
	}
}

// TestExplainSkipsJoinBuild is the lazy-build regression test: EXPLAIN on a
// join must not build the hash table, executing the same query must.
func TestExplainSkipsJoinBuild(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, "CREATE TABLE totals (state VARCHAR, total INTEGER)")
	mustExec(t, e, "INSERT INTO totals VALUES ('CA', 106), ('TX', 149)")
	q := "SELECT s.state, t.total FROM sales s, totals t WHERE s.state = t.state"

	before := mJoinBuilds.Value()
	mustExec(t, e, "EXPLAIN "+q)
	if got := mJoinBuilds.Value(); got != before {
		t.Errorf("EXPLAIN built %d join hash tables, want 0", got-before)
	}
	mustExec(t, e, q)
	if got := mJoinBuilds.Value(); got != before+1 {
		t.Errorf("SELECT builds = %d, want 1", got-before)
	}

	// Nested-loop right sides stay unmaterialized under EXPLAIN too.
	nl := "SELECT s.state FROM sales s LEFT OUTER JOIN totals t ON s.state = t.state AND s.salesAmt > t.total"
	text := traceText(t, e, "EXPLAIN "+nl)
	if !strings.Contains(text, "deferred to first probe") {
		t.Errorf("nested-loop EXPLAIN did not defer materialization:\n%s", text)
	}
}

func TestSlowQueryLog(t *testing.T) {
	e := newTestEngine(t)
	var buf bytes.Buffer
	e.SetSlowQueryLog(&buf, 0) // threshold 0: everything is slow
	mustExec(t, e, "SELECT count(*) FROM sales")
	e.SetSlowQueryLog(nil, 0)
	out := buf.String()
	if !strings.Contains(out, "slow query (") || !strings.Contains(out, "SELECT count(*) FROM sales") {
		t.Errorf("slow log = %q", out)
	}
	mustExec(t, e, "SELECT count(*) FROM sales")
	if buf.String() != out {
		t.Errorf("disabled slow log still written to")
	}
}

func TestStatementMetrics(t *testing.T) {
	e := newTestEngine(t)
	stmts := mStatements.Value()
	errs := mErrors.Value()
	hist := mStatementNs.Count()
	mustExec(t, e, "SELECT count(*) FROM sales")
	if _, err := e.ExecSQL("SELECT nope FROM sales"); err == nil {
		t.Fatal("expected error")
	}
	if got := mStatements.Value() - stmts; got != 2 {
		t.Errorf("statements delta = %d, want 2", got)
	}
	if got := mErrors.Value() - errs; got != 1 {
		t.Errorf("errors delta = %d, want 1", got)
	}
	if got := mStatementNs.Count() - hist; got != 2 {
		t.Errorf("histogram delta = %d, want 2", got)
	}
}

// BenchmarkSequentialFoldNoSink is the zero-overhead acceptance benchmark:
// for an untraced statement the sequential hot loop allocates exactly what
// it did before observability existed — metric recording is atomic adds at
// statement granularity, and span plumbing is nil-pointer tests. Run with
// -benchmem and compare allocs/op against BenchmarkHashAggregate history.
func BenchmarkSequentialFoldNoSink(b *testing.B) {
	e := benchEngine(b, 10_000)
	b.ReportAllocs()
	benchQuery(b, e, "SELECT g2, sum(a) FROM f GROUP BY g2")
}

// TestTracedPlainSelectSameOnBothPaths: the column path clocks an operator
// once per batch where the iterators clock every row, and a traced statement
// reads the same either way — EXPLAIN ANALYZE prints the same plan with the
// same actual rows (times masked), the span tree has the same shape, no span
// is left open, and sequential children never out-sum their parent: project
// and insert still partition the loop they share, and a sort of the scan's
// row ids keeps its own span.
func TestTracedPlainSelectSameOnBothPaths(t *testing.T) {
	e := fkEngine(t)
	masked := func(s string) string {
		var sb strings.Builder
		for _, f := range strings.Fields(s) {
			if i := strings.Index(f, "time="); i >= 0 {
				f = f[:i] + "time=*" + strings.TrimLeft(f[i+5:], "0123456789.µnms")
			}
			sb.WriteString(f + " ")
		}
		return sb.String()
	}
	shape := func(root *obs.Span) string {
		var sb strings.Builder
		root.Walk(func(s *obs.Span) { sb.WriteString(fmt.Sprintf("%s(%d,%d) ", s.Name, s.RowsIn, s.RowsOut)) })
		return sb.String()
	}
	for _, sql := range []string{
		"SELECT fk.k3, fj.a FROM fk, fj WHERE fk.k1 = fj.k1 AND fk.k2 = fj.k2 AND fk.k4 = 3 AND fk.m1 > 100",
		"SELECT fk.k3, fj.a FROM fk LEFT OUTER JOIN fj ON fk.k1 = fj.k1 AND fk.k2 = fj.k2 WHERE fk.k3 = 7",
		"SELECT k1, k2, k3, k4, m1 FROM fk ORDER BY k1, k2 DESC, k3, k4 LIMIT 5000",
		"SELECT k3, m1 FROM fk WHERE k1 = 2 AND m1 > 100 ORDER BY k4, m1 DESC",
		divideSQL,
	} {
		var plans, shapes [2]string
		for i, batch := range []bool{true, false} {
			UseReference(e, !batch)
			mustExec(t, e, "DELETE FROM fv")
			if !strings.HasPrefix(sql, "INSERT") {
				plans[i] = masked(traceText(t, e, "EXPLAIN ANALYZE "+sql))
			}
			parent := obs.NewSpan("test")
			if _, err := e.ExecSQLCtxIn(context.Background(), sql, 2, parent); err != nil {
				t.Fatal(err)
			}
			parent.End()
			if open := parent.Unclosed(); len(open) > 0 {
				t.Errorf("batch=%v %s: unclosed spans %v", batch, sql, open)
			}
			shapes[i] = shape(parent)
			parent.Walk(func(s *obs.Span) {
				var sum time.Duration
				for _, c := range s.Children {
					sum += c.Duration
				}
				if !s.Concurrent && sum > s.Duration+time.Microsecond {
					t.Errorf("batch=%v %s: children of %q sum to %v, parent is %v:\n%s", batch, sql, s.Name, sum, s.Duration, parent.Format())
				}
			})
		}
		if plans[0] != plans[1] || shapes[0] != shapes[1] {
			t.Errorf("%s traces differently on the two paths:\nbatch %s\n      %s\nrows  %s\n      %s", sql, plans[0], shapes[0], plans[1], shapes[1])
		}
	}
	UseReference(e, false)
}
