package core

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/sqlparse"
)

// OLAPEquivalent generates the ANSI SQL/OLAP formulation of a percentage
// query: sum() window functions with OVER (PARTITION BY …), as Section 4.2
// benchmarks against. The statement computes the same percentages in a
// single SELECT — and evaluates them the expensive way, flowing every
// detail row of F through the window computation and collapsing duplicates
// with DISTINCT afterwards.
//
// A vertical query maps directly. A horizontal (Hpct) query maps to the
// vertical form over the same parameters (GROUP BY D1..Dj ∪ BY, totals by
// D1..Dj): the answer set carries the same numbers, one per row, which is
// the comparison the paper's Table 6 makes.
func (p *Planner) OLAPEquivalent(sel *sqlparse.Select) (string, error) {
	a, err := p.analyze(sel)
	if err != nil {
		return "", err
	}
	if a.hasSets {
		// A window partition cannot vary per row the way a grouping set
		// does; there is no single-statement OVER() rewrite of a lattice.
		return "", fmt.Errorf("core: OLAP equivalents are not defined for GROUP BY %s queries", a.setsKind.Keyword())
	}
	switch a.class {
	case ClassVertical:
		return p.olapVertical(a, a.groupCols, nil)
	case ClassHorizontalPct:
		// Fine grouping = GROUP BY ∪ BY; totals = GROUP BY.
		var term *item
		for i := range a.items {
			if a.items[i].kind == itemPct {
				if term != nil {
					return "", fmt.Errorf("core: OLAP equivalent supports a single Hpct term")
				}
				term = &a.items[i]
			}
		}
		if term == nil {
			return "", fmt.Errorf("core: no Hpct term to translate")
		}
		fine := append(append([]string{}, a.groupCols...), term.agg.By...)
		return p.olapVertical(a, fine, term.agg)
	default:
		return "", fmt.Errorf("core: OLAP equivalents exist for percentage queries, not %v", a.class)
	}
}

// olapVertical renders the window-function statement for percentages over
// fineCols with per-term totals. When hterm is non-nil the query came from
// an Hpct and that single term is translated; otherwise every Vpct item is.
func (p *Planner) olapVertical(a *analysis, fineCols []string, hterm *expr.AggCall) (string, error) {
	var sel []string
	sel = append(sel, joinIdents(fineCols))

	renderTerm := func(measure string, totals []string) string {
		fineWin := fmt.Sprintf("sum(%s) OVER (PARTITION BY %s)", measure, joinIdents(fineCols))
		var totalWin string
		if len(totals) == 0 {
			totalWin = fmt.Sprintf("sum(%s) OVER ()", measure)
		} else {
			totalWin = fmt.Sprintf("sum(%s) OVER (PARTITION BY %s)", measure, joinIdents(totals))
		}
		return fmt.Sprintf("CASE WHEN %s <> 0 THEN %s / %s ELSE NULL END", totalWin, fineWin, totalWin)
	}

	if hterm != nil {
		sel = append(sel, renderTerm(hterm.Arg.String(), a.groupCols))
	} else {
		for _, it := range a.items {
			switch it.kind {
			case itemPct:
				sel = append(sel, renderTerm(it.agg.Arg.String(), totalsOf(a.groupCols, it.agg)))
			case itemVertAgg:
				// Plain aggregates ride along as windows over the fine
				// partition; DISTINCT collapses the duplicates.
				call := *it.agg
				if call.Distinct {
					return "", fmt.Errorf("core: count(DISTINCT …) cannot be expressed as a window aggregate here")
				}
				arg := "*"
				if call.Arg != nil {
					arg = call.Arg.String()
				}
				if call.Star {
					arg = "*"
				}
				if call.Star || call.Fn == expr.AggCount {
					// count over a window: emulate with sum(1).
					sel = append(sel, fmt.Sprintf("sum(1) OVER (PARTITION BY %s)", joinIdents(fineCols)))
				} else {
					sel = append(sel, fmt.Sprintf("%s(%s) OVER (PARTITION BY %s)", call.Fn, arg, joinIdents(fineCols)))
				}
			}
		}
	}
	return fmt.Sprintf("SELECT DISTINCT %s FROM %s%s ORDER BY %s",
		strings.Join(sel, ", "), a.table, a.whereSQL(), joinIdents(fineCols)), nil
}
