package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// Stage is one named stage of a traced execution with its total duration
// (summed across every span of that name in the trace).
type Stage struct {
	Name     string
	Duration time.Duration
}

// StageBreakdown is the per-stage timing profile of one benchmark query,
// recorded by running the plan once under tracing and folding the span tree
// with Span.StageTotals.
type StageBreakdown struct {
	Label  string
	SQL    string
	Stages []Stage
}

// RunBreakdown traces each primary query once — the best Vpct strategy and
// the best Hpct strategy — and returns where the time goes, stage by stage:
// per-step plan execution, statement parse/aggregate/join spans, the
// parallel fan-out workers, the Vpct division join. Unlike TimeQuery this
// runs each plan once (tracing is for attribution, not for the headline
// numbers, which stay untraced).
func (s *Suite) RunBreakdown() ([]StageBreakdown, error) {
	if err := s.ensureFor(s.PrimaryQueries()); err != nil {
		return nil, err
	}
	var out []StageBreakdown
	for _, q := range s.PrimaryQueries() {
		if s.skipQuery(q.Label()) {
			continue
		}
		vb, err := s.traceOne(q.Label()+" [Vpct]", q.VpctSQL(), bestVpct())
		if err != nil {
			return nil, err
		}
		hopts, err := s.AdviseHpct(q)
		if err != nil {
			return nil, err
		}
		hb, err := s.traceOne(q.Label()+" [Hpct]", q.HpctSQL(), hopts)
		if err != nil {
			return nil, err
		}
		out = append(out, vb, hb)
		s.logf("breakdown %-45s done\n", q.Label())
	}
	return out, nil
}

// traceOne plans and trace-executes one query, folding its span tree into
// sorted per-stage totals.
func (s *Suite) traceOne(label, sql string, opts core.Options) (StageBreakdown, error) {
	plan, err := s.Planner.PlanSQL(sql, opts)
	if err != nil {
		return StageBreakdown{}, fmt.Errorf("%s: %w", sql, err)
	}
	_, span, err := s.Planner.ExecuteTraced(plan)
	if err != nil {
		return StageBreakdown{}, fmt.Errorf("%s: %w", sql, err)
	}
	names, totals := span.StageTotals()
	b := StageBreakdown{Label: label, SQL: sql}
	for _, n := range names {
		b.Stages = append(b.Stages, Stage{Name: n, Duration: totals[n]})
	}
	return b, nil
}
