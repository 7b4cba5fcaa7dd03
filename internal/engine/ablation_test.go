package engine_test

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
)

// BenchmarkHpctArmByArm is the ablation of the paper's proposed optimizer
// change — an O(1) lookup in place of the O(N)-per-row CASE evaluation — over
// the four sales Hpct queries of Tables 4–6 at bench.SmallConfig, planned
// straight from F and run on one worker: "reference" on the paper's engine,
// the test oracle, which evaluates every CASE arm on every row, "dispatched"
// on the fold operator, which finds a row's arm with one lookup. Both run the
// same plans over the same data; each iteration plans and executes the four
// queries, as the papers' timings take them.
func BenchmarkHpctArmByArm(b *testing.B) {
	s, err := bench.NewSuite(bench.SmallConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Ensure("sales"); err != nil {
		b.Fatal(err)
	}
	var sqls []string
	for _, q := range bench.PrimaryQueries()[4:] {
		sqls = append(sqls, q.HpctSQL())
	}
	opts := core.Options{Parallelism: 1}
	for _, mode := range []struct {
		name string
		ref  bool
	}{{"reference", true}, {"dispatched", false}} {
		b.Run(mode.name, func(b *testing.B) {
			engine.UseReference(s.Eng, mode.ref)
			defer engine.UseReference(s.Eng, false)
			for i := 0; i < b.N; i++ {
				for _, sql := range sqls {
					plan, err := s.Planner.PlanSQL(sql, opts)
					if err != nil {
						b.Fatal(err)
					}
					_, err = s.Planner.ExecuteStepsCtx(context.Background(), plan)
					s.Planner.CleanupPlan(plan)
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
