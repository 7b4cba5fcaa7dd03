package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestExecuteTracedVertical checks the plan-level trace of a Vpct query: one
// step span per build step, the division join findable by name, statement
// spans nested under their step, and the sum-of-children invariant holding
// everywhere outside concurrent fan-outs.
func TestExecuteTracedVertical(t *testing.T) {
	p := newSalesPlanner(t)
	sel, err := parseSelect(`SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Plan(sel, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, root, err := p.ExecuteTraced(plan)
	if err != nil {
		t.Fatalf("ExecuteTraced: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("empty result")
	}
	if root == nil || !strings.HasPrefix(root.Name, "plan vertical") {
		t.Fatalf("root span = %v", root)
	}
	steps := 0
	for _, c := range root.Children {
		if strings.HasPrefix(c.Name, "step: ") {
			steps++
		}
	}
	if steps != len(plan.Steps) {
		t.Errorf("step spans = %d, want %d\n%s", steps, len(plan.Steps), root.Format())
	}
	div := root.Find("divide")
	if div == nil {
		t.Fatalf("no division-join step span:\n%s", root.Format())
	}
	if div.Find("statement") == nil {
		t.Errorf("division step has no nested statement span:\n%s", div.Format())
	}
	if root.Find("final select") == nil || root.Find("cleanup") == nil {
		t.Errorf("missing final select / cleanup spans:\n%s", root.Format())
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
			t.Errorf("children of %q sum to %v, parent is %v", s.Name, sum, s.Duration)
		}
	})
}

// TestTracedHashPivotWorkers checks the hash-pivot plan's span breakdown
// under forced parallelism: the Fk step is an ordinary fold — a concurrent
// fan-out with one span per worker, then merge, under its aggregate span —
// and the native step emits FH.
func TestTracedHashPivotWorkers(t *testing.T) {
	p := newSalesPlanner(t)
	sel, err := parseSelect(`SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state`)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Hpct.HashPivot = true
	opts.Parallelism = 2
	plan, err := p.Plan(sel, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, root, err := p.ExecuteTraced(plan)
	if err != nil {
		t.Fatalf("ExecuteTraced: %v", err)
	}
	agg := root.Find("compute fine aggregate Fk").Find("aggregate")
	if agg == nil {
		t.Fatalf("no aggregate span under the Fk step:\n%s", root.Format())
	}
	fan := agg.Find("partition fan-out")
	if fan == nil || !fan.Concurrent {
		t.Fatalf("no concurrent fan-out under the Fk aggregate:\n%s", agg.Format())
	}
	if len(fan.Children) != 2 {
		t.Errorf("Fk worker spans = %d, want 2:\n%s", len(fan.Children), agg.Format())
	}
	if agg.Find("merge") == nil {
		t.Errorf("no merge span under the Fk aggregate:\n%s", agg.Format())
	}
	pivot := root.Find("hash-pivot")
	if pivot == nil || pivot.Find("emit ") == nil {
		t.Errorf("no emit span under the hash-pivot step:\n%s", root.Format())
	}
	if n := strings.Count(plan.SQL(), "-- (native step)"); n != 1 {
		t.Errorf("plan shows %d native steps, want 1:\n%s", n, plan.SQL())
	}
}

// TestHashPivotSeqFallbackCounted: the pivot's scan of F is the Fk step's
// fold, so in auto mode under the row threshold it counts in
// engine.agg.seq_fallback like any fold and runs as one "fold".
func TestHashPivotSeqFallbackCounted(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	p := newSalesPlanner(t)
	sel, err := parseSelect(`SELECT state, Hpct(salesAmt BY city) FROM sales GROUP BY state`)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Hpct.HashPivot = true
	opts.Parallelism = 0
	plan, err := p.Plan(sel, opts)
	if err != nil {
		t.Fatal(err)
	}
	fallback := obs.Default.Counter("engine.agg.seq_fallback")
	before := fallback.Value()
	_, root, err := p.ExecuteTraced(plan)
	if err != nil {
		t.Fatalf("ExecuteTraced: %v", err)
	}
	if got := fallback.Value() - before; got != 1 {
		t.Errorf("engine.agg.seq_fallback moved by %d, want 1", got)
	}
	fk := root.Find("compute fine aggregate Fk")
	if fk.Find("fold") == nil || root.Find("partition fan-out") != nil {
		t.Errorf("want one sequential fold under the Fk step:\n%s", root.Format())
	}
}

// TestPlanMetrics checks the plan/step counters advance per execution.
func TestPlanMetrics(t *testing.T) {
	p := newSalesPlanner(t)
	plans, steps := mPlanExecutions.Value(), mPlanSteps.Value()
	plan, err := p.PlanSQL(`SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city`, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(plan); err != nil {
		t.Fatal(err)
	}
	if got := mPlanExecutions.Value() - plans; got != 1 {
		t.Errorf("plan executions delta = %d, want 1", got)
	}
	if got := mPlanSteps.Value() - steps; got != int64(len(plan.Steps)) {
		t.Errorf("step delta = %d, want %d", got, len(plan.Steps))
	}
}
