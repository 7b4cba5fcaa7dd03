package core

import (
	"context"
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
	res, root, err := p.ExecuteTracedCtx(context.Background(), plan)
	if err != nil {
		t.Fatalf("ExecuteTracedCtx: %v", err)
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

// TestPlanMetrics checks the plan/step counters advance per execution.
func TestPlanMetrics(t *testing.T) {
	p := newSalesPlanner(t)
	plans, steps := mPlanExecutions.Value(), mPlanSteps.Value()
	plan, err := p.PlanSQL(`SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city`, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ExecuteCtx(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if got := mPlanExecutions.Value() - plans; got != 1 {
		t.Errorf("plan executions delta = %d, want 1", got)
	}
	if got := mPlanSteps.Value() - steps; got != int64(len(plan.Steps)) {
		t.Errorf("step delta = %d, want %d", got, len(plan.Steps))
	}
}
