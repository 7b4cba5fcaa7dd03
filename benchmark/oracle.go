package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// The oracle recomputes every checked result from the generated rows with Go
// maps — no SQL, no engine code — so a wrong answer from any layer shows as a
// failed statement. It runs outside the timed region.

type specKind uint8

const (
	specVpct  specKind = iota // SELECT totals, by, Vpct(m BY by) … GROUP BY totals, by
	specHpct                  // SELECT totals, Hpct(m BY by) … GROUP BY totals
	specCube                  // Vpct … GROUP BY ROLLUP(totals, by) with a GROUPING mask
	specAgg                   // SELECT by, sum(m), count(*) … GROUP BY by
	specFetch                 // SELECT RID, m … WHERE filter: row count and sum(m)
)

// spec describes one checkable query over one table: the totals grouping
// D1..Dj, the subgrouping Dj+1..Dk, the measure and an optional integer
// equality filter. The SQL text and the expected result both derive from it.
type spec struct {
	kind      specKind
	table     string
	totals    []string
	by        []string
	measure   string
	filterCol string
	filterVal int64
}

func (s *spec) where() string {
	if s.filterCol == "" {
		return ""
	}
	return fmt.Sprintf(" WHERE %s = %d", s.filterCol, s.filterVal)
}

// sql renders the statement in the dialect's surface syntax.
func (s *spec) sql() string {
	all := strings.Join(append(append([]string{}, s.totals...), s.by...), ", ")
	by := strings.Join(s.by, ", ")
	switch s.kind {
	case specVpct:
		if len(s.totals) == 0 {
			return fmt.Sprintf("SELECT %s, Vpct(%s) FROM %s%s GROUP BY %s", by, s.measure, s.table, s.where(), by)
		}
		return fmt.Sprintf("SELECT %s, Vpct(%s BY %s) FROM %s%s GROUP BY %s", all, s.measure, by, s.table, s.where(), all)
	case specHpct:
		if len(s.totals) == 0 {
			return fmt.Sprintf("SELECT Hpct(%s BY %s) FROM %s%s", s.measure, by, s.table, s.where())
		}
		t := strings.Join(s.totals, ", ")
		return fmt.Sprintf("SELECT %s, Hpct(%s BY %s) FROM %s%s GROUP BY %s", t, s.measure, by, s.table, s.where(), t)
	case specCube:
		return fmt.Sprintf("SELECT %s, Vpct(%s BY %s), GROUPING(%s) FROM %s%s GROUP BY ROLLUP(%s)",
			all, s.measure, by, all, s.table, s.where(), all)
	case specAgg:
		return fmt.Sprintf("SELECT %s, sum(%s), count(*) FROM %s%s GROUP BY %s", by, s.measure, s.table, s.where(), by)
	default:
		return fmt.Sprintf("SELECT RID, %s FROM %s%s", s.measure, s.table, s.where())
	}
}

const (
	keySep  = "\x1f"
	keyNull = "\x00"
)

// cellKey renders one result cell the way groupSums renders a source cell.
func cellKey(v any) string {
	switch x := v.(type) {
	case nil:
		return keyNull
	case int64:
		return strconv.FormatInt(x, 10)
	case string:
		return x
	default:
		return fmt.Sprint(x)
	}
}

func rowKey(cells []any) string {
	parts := make([]string, len(cells))
	for i, c := range cells {
		parts[i] = cellKey(c)
	}
	return strings.Join(parts, keySep)
}

// groupSums folds the measure by the key columns over the rows passing the
// spec's filter, returning per-group sums and row counts.
func groupSums(t *table, s *spec, keyCols []string) (map[string]float64, map[string]int64) {
	keys := make([]*column, len(keyCols))
	for i, n := range keyCols {
		keys[i] = t.col(n)
	}
	m := t.col(s.measure)
	var filter *column
	if s.filterCol != "" {
		filter = t.col(s.filterCol)
	}
	sums, counts := map[string]float64{}, map[string]int64{}
	var buf []byte
	for r := 0; r < t.n; r++ {
		if filter != nil && filter.ints[r] != s.filterVal {
			continue
		}
		buf = buf[:0]
		for i, c := range keys {
			if i > 0 {
				buf = append(buf, keySep...)
			}
			switch {
			case c.isNull(r):
				buf = append(buf, keyNull...)
			case c.kind == kInt:
				buf = strconv.AppendInt(buf, c.ints[r], 10)
			default:
				buf = append(buf, c.strs[r]...)
			}
		}
		v := 0.0
		if m.kind == kInt {
			v = float64(m.ints[r])
		} else {
			v = m.flts[r]
		}
		sums[string(buf)] += v
		counts[string(buf)]++
	}
	return sums, counts
}

// vpct returns the expected percentage per fine group: sum over the group
// columns divided by the sum over the subset of them that are totals columns.
func vpct(t *table, s *spec, group []string, isTotal []bool) map[string]float64 {
	var totals []string
	var idx []int
	for i, g := range group {
		if isTotal[i] {
			totals = append(totals, g)
			idx = append(idx, i)
		}
	}
	fine, _ := groupSums(t, s, group)
	coarse, _ := groupSums(t, s, totals)
	out := make(map[string]float64, len(fine))
	for k, v := range fine {
		parts := strings.Split(k, keySep)
		tk := make([]string, len(idx))
		for i, j := range idx {
			tk[i] = parts[j]
		}
		out[k] = v / coarse[strings.Join(tk, keySep)]
	}
	return out
}

// number reads a numeric result cell; the wire delivers a whole-valued float
// as an integer.
func number(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	}
	return 0, false
}

func closeTo(got any, want float64) bool {
	f, ok := number(got)
	return ok && math.Abs(f-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// check verifies one result against the rows of t; nil means it is right.
func (s *spec) check(t *table, data [][]any) error {
	dims := append(append([]string{}, s.totals...), s.by...)
	isTotal := make([]bool, len(dims))
	for i := range s.totals {
		isTotal[i] = true
	}
	switch s.kind {
	case specVpct:
		return matchKeyed(data, len(dims), vpct(t, s, dims, isTotal))
	case specCube:
		// Every ROLLUP node is a Vpct query of its own: the node keeps a
		// prefix of dims, its totals are the kept totals columns, and the
		// GROUPING mask (bit 0 = last dimension) names the dropped suffix.
		want := map[string]float64{}
		for keep := len(dims); keep >= 0; keep-- {
			mask := int64(1)<<(len(dims)-keep) - 1
			for k, v := range vpct(t, s, dims[:keep], isTotal[:keep]) {
				parts := []string{}
				if keep > 0 {
					parts = strings.Split(k, keySep)
				}
				for len(parts) < len(dims) {
					parts = append(parts, keyNull)
				}
				want[strings.Join(parts, keySep)+keySep+strconv.FormatInt(mask, 10)] = v
			}
		}
		keyed := make([][]any, len(data))
		for i, row := range data {
			if len(row) != len(dims)+2 {
				return fmt.Errorf("row %d has %d columns, want %d", i, len(row), len(dims)+2)
			}
			keyed[i] = append(append(append([]any{}, row[:len(dims)]...), row[len(dims)+1]), row[len(dims)])
		}
		return matchKeyed(keyed, len(dims)+1, want)
	case specHpct:
		// Each FH row carries its group's Vpct values, one per BY
		// combination in a layout the oracle does not need to know: compare
		// the cells as a sorted multiset, and they must sum to 1. A
		// combination absent from the group is NULL or 0 and is skipped;
		// measures are positive, so no real percentage is 0.
		want := map[string][]float64{}
		for k, v := range vpct(t, s, dims, isTotal) {
			tk := strings.Join(strings.Split(k, keySep)[:len(s.totals)], keySep)
			want[tk] = append(want[tk], v)
		}
		if len(data) != len(want) {
			return fmt.Errorf("%d rows, want %d", len(data), len(want))
		}
		for i, row := range data {
			if len(row) < len(s.totals) {
				return fmt.Errorf("row %d has %d columns", i, len(row))
			}
			k := rowKey(row[:len(s.totals)])
			exp, ok := want[k]
			if !ok {
				return fmt.Errorf("row %d: unexpected or repeated group %v", i, row[:len(s.totals)])
			}
			delete(want, k)
			var got []float64
			sum := 0.0
			for _, c := range row[len(s.totals):] {
				if f, isNum := number(c); isNum && f != 0 { // floateq:ok an absent combination is exactly 0
					got = append(got, f)
					sum += f
				}
			}
			if len(got) != len(exp) || math.Abs(sum-1) > 1e-9 {
				return fmt.Errorf("row %d: %d cells summing to %v, want %d summing to 1", i, len(got), sum, len(exp))
			}
			sort.Float64s(got)
			sort.Float64s(exp)
			for j := range got {
				if !closeTo(got[j], exp[j]) {
					return fmt.Errorf("row %d: cell %v, want %v", i, got[j], exp[j])
				}
			}
		}
		return nil
	case specAgg:
		sums, counts := groupSums(t, s, s.by)
		if len(data) != len(sums) {
			return fmt.Errorf("%d rows, want %d", len(data), len(sums))
		}
		for i, row := range data {
			if len(row) != len(s.by)+2 {
				return fmt.Errorf("row %d has %d columns, want %d", i, len(row), len(s.by)+2)
			}
			k := rowKey(row[:len(s.by)])
			if c, ok := counts[k]; !ok || !closeTo(row[len(s.by)], sums[k]) || row[len(s.by)+1] != c {
				return fmt.Errorf("row %d: group %v = %v, want sum %v count %d (or the group is repeated)", i, row[:len(s.by)], row[len(s.by):], sums[k], c)
			}
			delete(counts, k)
		}
		return nil
	default:
		sums, counts := groupSums(t, s, nil)
		got := 0.0
		for _, row := range data {
			v, _ := number(row[1])
			got += v
		}
		if int64(len(data)) != counts[""] || got != sums[""] { // floateq:ok integer sums, exact in float64
			return fmt.Errorf("%d rows summing to %v, want %d summing to %v", len(data), got, counts[""], sums[""])
		}
		return nil
	}
}

// matchKeyed compares rows of (nkey key cells, value) with the expected map:
// same groups, each value within 1e-9 relative.
func matchKeyed(data [][]any, nkey int, want map[string]float64) error {
	if len(data) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(data), len(want))
	}
	seen := make(map[string]bool, len(data))
	for i, row := range data {
		if len(row) != nkey+1 {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(row), nkey+1)
		}
		k := rowKey(row[:nkey])
		w, ok := want[k]
		if !ok || seen[k] {
			return fmt.Errorf("row %d: unexpected or repeated group %v", i, row[:nkey])
		}
		seen[k] = true
		if !closeTo(row[nkey], w) {
			return fmt.Errorf("row %d: group %v = %v, want %v", i, row[:nkey], row[nkey], w)
		}
	}
	return nil
}
