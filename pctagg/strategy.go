package pctagg

import "repro/internal/core"

// Strategies selects how percentage and horizontal queries are evaluated.
// The zero value is NOT the recommended configuration; use
// DefaultStrategies (the settings the paper's evaluation found best) and
// adjust from there.
type Strategies struct {
	Vpct VpctStrategy
	Hpct HpctStrategy
	Hagg HaggStrategy
}

// VpctStrategy mirrors the optimization knobs of the paper's Table 4.
type VpctStrategy struct {
	// CoarseTotalsFromF computes the Fj totals by re-scanning F instead of
	// reusing the partial aggregate Fk. Slower when |Fk| ≪ |F|.
	CoarseTotalsFromF bool
	// UpdateInPlace produces the result by updating Fk instead of
	// inserting into a third table. Saves a temporary table; costs up to
	// an order of magnitude when |FV| ≈ |F|.
	UpdateInPlace bool
	// SubkeyIndexes builds identical hash indexes on the common subkey of
	// Fj and Fk before the division join.
	SubkeyIndexes bool
	// MissingRows enables the optional missing-row treatment: "" (off),
	// "pre" (insert zero-measure rows into F), or "post" (zero-fill the
	// result table).
	MissingRows string
}

// HpctStrategy mirrors the strategies of the paper's Table 5.
type HpctStrategy struct {
	// FromVertical computes FH by building FV first and transposing it,
	// instead of directly from F. It pays when F has enough rows per distinct
	// (D1..Dk) combination, whatever the number of BY or result columns;
	// core.Advise states the measured threshold, and AutoStrategy applies it.
	FromVertical bool
}

// HaggStrategy mirrors the companion paper's Table 3 strategies.
type HaggStrategy struct {
	// SPJ uses the relational-operators-only strategy (N filtered
	// aggregates assembled with left outer joins) instead of CASE.
	SPJ bool
	// FromVertical aggregates from the pre-aggregate FV instead of F.
	FromVertical bool
}

// DefaultStrategies returns the paper's recommended settings: Fj from Fk,
// INSERT-based FV with subkey indexes, FH directly from F, CASE-based
// horizontal aggregation directly from F.
func DefaultStrategies() Strategies {
	return Strategies{Vpct: VpctStrategy{SubkeyIndexes: true}}
}

// SetStrategies replaces the evaluation strategies for subsequent queries.
func (db *DB) SetStrategies(s Strategies) { db.strat = s }

// GetStrategies returns the current strategies.
func (db *DB) GetStrategies() Strategies { return db.strat }

func (s Strategies) coreOptions() core.Options {
	missing := core.MissingNone
	switch s.Vpct.MissingRows {
	case "pre":
		missing = core.MissingPre
	case "post":
		missing = core.MissingPost
	}
	method := core.HaggCASE
	if s.Hagg.SPJ {
		method = core.HaggSPJ
	}
	return core.Options{
		Vpct: core.VpctOptions{
			FjFromF:       s.Vpct.CoarseTotalsFromF,
			UseUpdate:     s.Vpct.UpdateInPlace,
			SubkeyIndexes: s.Vpct.SubkeyIndexes,
			MissingRows:   missing,
		},
		Hpct: core.HpctOptions{FromFV: s.Hpct.FromVertical},
		Hagg: core.HaggOptions{Method: method, FromFV: s.Hagg.FromVertical},
	}
}
