// Package difftest is the reference-vs-parallel differential harness: it
// proves the engine's partitioned parallel aggregation path equivalent to
// the sequential fold by running the same percentage queries at P=1 (the
// reference) and P>1 and asserting the result relations are identical —
// same columns, same rows, same order, values compared exactly with no
// tolerance. The parallel path's pinned partition-order merge promises
// byte-identical output for the integer measures these workloads use, so
// any difference, however small, is a real divergence.
//
// The harness backs three kinds of tests (all named *Differential* so CI
// can shard them with -run Differential):
//
//   - golden: the paper's running example and the eight primary benchmark
//     queries, every strategy knob exercised;
//   - property: randomized seeded fact tables; on the first divergence the
//     failing table is shrunk to a minimal reproducer and dumped as SQL;
//   - metamorphic: paper invariants that must hold at every parallelism
//     (Vpct values in [0,1] or NULL; Hpct rows summing to 1 or
//     NULL-propagating under the division-by-zero rule).
package difftest

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/value"
)

// Parallelisms is the standard sweep: the sequential reference plus a
// partition count below and above typical core counts (8 forces several
// partitions even on tiny fixtures, covering empty and single-row
// partitions).
var Parallelisms = []int{1, 2, 8}

// Equal compares two results exactly and returns "" when identical, else a
// description of the first difference. NULLs only match NULLs; numeric
// values must compare equal AND have the same kind (an int64 17 is not a
// float64 17 — a kind flip would mark a merge that demoted a sum), and a
// float -0.0 is not +0.0 — the sign is all that tells a sum that met a zero
// addend from one that did not.
func Equal(a, b *engine.Result) string {
	if len(a.Columns) != len(b.Columns) {
		return fmt.Sprintf("column count %d vs %d", len(a.Columns), len(b.Columns))
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return fmt.Sprintf("column %d named %q vs %q", i, a.Columns[i], b.Columns[i])
		}
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("row count %d vs %d", len(a.Rows), len(b.Rows))
	}
	for ri := range a.Rows {
		ra, rb := a.Rows[ri], b.Rows[ri]
		for ci := range ra {
			va, vb := ra[ci], rb[ci]
			switch {
			case va.IsNull() != vb.IsNull():
				return fmt.Sprintf("row %d col %s: %v vs %v", ri, a.Columns[ci], va, vb)
			case va.IsNull():
				// both NULL
			case va.Kind() != vb.Kind() || value.Compare(va, vb) != 0 ||
				va.Kind() == value.KindFloat && math.Signbit(va.Float()) != math.Signbit(vb.Float()):
				return fmt.Sprintf("row %d col %s: %v (%v) vs %v (%v)",
					ri, a.Columns[ci], va, va.Kind(), vb, vb.Kind())
			}
		}
	}
	return ""
}

// Run plans and executes one percentage query at the given parallelism.
func Run(p *core.Planner, sql string, opts core.Options, parallelism int) (*engine.Result, error) {
	opts.Parallelism = parallelism
	plan, err := p.PlanSQL(sql, opts)
	if err != nil {
		return nil, fmt.Errorf("plan (P=%d): %w", parallelism, err)
	}
	res, err := p.ExecuteCtx(context.Background(), plan)
	if err != nil {
		return nil, fmt.Errorf("execute (P=%d): %w", parallelism, err)
	}
	return res, nil
}

// Compare runs sql under every parallelism in ps (the first entry is the
// reference, conventionally 1) and returns an error describing the first
// divergence, or nil when all runs agree exactly.
func Compare(p *core.Planner, sql string, opts core.Options, ps []int) error {
	if len(ps) < 2 {
		return fmt.Errorf("difftest: need a reference and at least one candidate parallelism, got %v", ps)
	}
	ref, err := Run(p, sql, opts, ps[0])
	if err != nil {
		return err
	}
	for _, par := range ps[1:] {
		got, err := Run(p, sql, opts, par)
		if err != nil {
			return err
		}
		if diff := Equal(ref, got); diff != "" {
			return fmt.Errorf("difftest: %s: P=%d diverges from P=%d: %s", sql, par, ps[0], diff)
		}
	}
	return nil
}

// MinimizeRows shrinks a failing row set while the predicate keeps failing,
// using ddmin-style chunk removal: try dropping ever-smaller contiguous
// chunks, keeping each removal that still fails, until no single row can be
// dropped. The predicate must be deterministic.
func MinimizeRows(rows [][]value.Value, failing func([][]value.Value) bool) [][]value.Value {
	cur := rows
	for chunk := len(cur) / 2; chunk >= 1; {
		removed := false
		for start := 0; start < len(cur); {
			end := start + chunk
			if end > len(cur) {
				end = len(cur)
			}
			cand := make([][]value.Value, 0, len(cur)-(end-start))
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[end:]...)
			if len(cand) > 0 && failing(cand) {
				cur = cand
				removed = true
				// retry the same start: the next chunk slid into place
			} else {
				start = end
			}
		}
		if !removed {
			chunk /= 2
		}
	}
	return cur
}

// DumpRows renders a minimal SQL reproducer: CREATE TABLE + INSERTs for the
// rows, ready to paste into a shell or a new test.
func DumpRows(table string, schema storage.Schema, rows [][]value.Value) string {
	var sb strings.Builder
	var defs []string
	for _, c := range schema {
		ty := "INTEGER"
		switch c.Type {
		case storage.TypeFloat:
			ty = "FLOAT"
		case storage.TypeString:
			ty = "VARCHAR"
		case storage.TypeBool:
			ty = "BOOLEAN"
		}
		defs = append(defs, c.Name+" "+ty)
	}
	fmt.Fprintf(&sb, "CREATE TABLE %s (%s);\n", table, strings.Join(defs, ", "))
	for _, row := range rows {
		var vals []string
		for _, v := range row {
			switch {
			case v.IsNull():
				vals = append(vals, "NULL")
			case v.Kind() == value.KindString:
				vals = append(vals, "'"+strings.ReplaceAll(v.Str(), "'", "''")+"'")
			default:
				vals = append(vals, v.String())
			}
		}
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES (%s);\n", table, strings.Join(vals, ", "))
	}
	return sb.String()
}
