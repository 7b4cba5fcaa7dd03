package core

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/sqlparse"
)

// fromFVRatio is the one measured constant of the advisor: a horizontal
// query is advised from FV when |F| ≥ fromFVRatio·|Fk|. Since the fold routes
// a row to its CASE arm with one lookup, the direct plan costs a·|F| at any
// number of result columns, and from FV costs b·|F| for the plain-column fold
// into Fk (b < a) plus c·|Fk| to write Fk, divide it and transpose it: it
// pays iff |F|/|Fk| > c/(a−b), a ratio that does not depend on scale. The
// value is measured over Table 5, DMKD Table 3 and probe queries between
// their rows (EXPERIMENTS.md, "The advisor's constant"): from FV is behind up
// to a ratio of 25 and ahead or tied from 43.
const fromFVRatio = 45

// Advise picks evaluation strategies for a percentage query from live table
// statistics:
//
//   - Vpct: the paper's Section 4 recommendations, which are the defaults —
//     identical indexes on the common subkey of Fj and Fk, INSERT instead of
//     UPDATE, and Fj computed from Fk (sum is distributive).
//   - Hpct and Hagg: always CASE over SPJ, from FV when
//     fromFVRatio·|Fk| ≤ |F| and the from-FV planner accepts the query's
//     shape (fromFVError), directly from F otherwise. |Fk| — the
//     distinct (D1..Dk) combinations under the query's WHERE — is measured
//     with one feedback scan of F. The paper's own rule of thumb (from FV
//     for three or more BY columns or many result columns) priced N CASE
//     arms per row, a cost the fold no longer has.
func (p *Planner) Advise(sel *sqlparse.Select) (Options, error) {
	return p.AdviseIn(context.Background(), sel, p.Eng.Parallelism(), nil)
}

// AdviseIn is Advise with its feedback scan a statement generated for the
// query being advised: under ctx (see PlanCtx) at parallelism par, its trace
// nested under span (nil: untraced), as the plan's own feedback scans are.
func (p *Planner) AdviseIn(ctx context.Context, sel *sqlparse.Select, par int, span *obs.Span) (Options, error) {
	a, err := p.analyze(sel)
	if err != nil {
		return Options{}, err
	}
	opts := DefaultOptions()
	switch a.class {
	case ClassStandard, ClassVertical:
		// The UPDATE variant is only attractive when disk for a third table
		// is the constraint, which an advisor cannot see.
		return opts, nil

	case ClassHorizontalPct, ClassHorizontalAgg:
		if a.fromFVError() != nil {
			return opts, nil // only the direct plan exists
		}
		tab, err := p.Eng.ResolveTable(a.table)
		if err != nil {
			return Options{}, err
		}
		fk, err := p.feedbackCombos(ctx, a.table, a.fineGroup(), a.whereSQL(), par, span)
		if err != nil {
			return Options{}, err
		}
		fromFV := fromFVRatio*len(fk) <= tab.NumRows()
		if a.class == ClassHorizontalPct {
			opts.Hpct.FromFV = fromFV
		} else {
			opts.Hagg.FromFV = fromFV
		}
		return opts, nil
	}
	return opts, fmt.Errorf("core: unadvisable class %v", a.class)
}
