// Package engine executes parsed SQL statements against the storage
// catalog. It provides the relational machinery the paper's strategies
// compile to: streaming table scans, filters, hash equijoins (inner and
// left-outer, index-aware), hash group-by aggregation, DISTINCT, ORDER BY,
// ANSI OLAP window aggregates (the paper's comparison baseline), INSERT …
// SELECT into temporary tables, and the cross-table UPDATE the paper's
// update-based Vpct strategy uses.
//
// Horizontal aggregate calls (any aggregate with a BY list, including Vpct
// and Hpct) are NOT executable here: the core package rewrites them into the
// standard SQL this engine runs, exactly as the paper's code generator does.
package engine

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/value"
)

// relCol is one column of an intermediate relation: its source qualifier
// (table alias), bare name, and declared type.
type relCol struct {
	Qualifier string
	Name      string
	Type      storage.ColumnType
}

// relSchema is the ordered column list of an intermediate relation.
type relSchema []relCol

// resolve maps a (qualifier, name) reference to a column position,
// reporting unknown and ambiguous references.
func (s relSchema) resolve(qualifier, name string) (int, error) {
	found := -1
	for i, c := range s {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if qualifier != "" && !strings.EqualFold(c.Qualifier, qualifier) {
			continue
		}
		if found >= 0 {
			if qualifier == "" {
				return 0, fmt.Errorf("engine: ambiguous column %q", name)
			}
			return 0, fmt.Errorf("engine: ambiguous column %s.%s", qualifier, name)
		}
		found = i
	}
	if found < 0 {
		if qualifier != "" {
			return 0, fmt.Errorf("engine: unknown column %s.%s", qualifier, name)
		}
		return 0, fmt.Errorf("engine: unknown column %q", name)
	}
	return found, nil
}

// schemaOf builds the relation schema of a base table under an alias.
func schemaOf(t *storage.Table, alias string) relSchema {
	if alias == "" {
		alias = t.Name()
	}
	out := make(relSchema, 0, t.NumCols())
	for _, c := range t.Schema() {
		out = append(out, relCol{Qualifier: alias, Name: c.Name, Type: c.Type})
	}
	return out
}

// iterator is a streaming row source. Next returns a row valid only until
// the following Next call; sinks that retain rows must copy them.
type iterator interface {
	schema() relSchema
	next() ([]value.Value, bool, error)
}

// tableScan streams a base table, reusing one row buffer. stats is non-nil
// only for traced statements (see trace.go); the per-row cost of the
// disabled state is one pointer test. Rows scanned are added to the metric
// once, at exhaustion, so the hot loop stays allocation- and atomic-free.
type tableScan struct {
	tab *storage.Table
	sch relSchema
	// order, when set, is the row ids to visit in visiting order — an ORDER
	// BY over the table's own columns sorts them before the scan starts
	// (select.go); nil visits every row in storage order.
	order   []int32
	pos     int
	buf     []value.Value
	counted bool
	stats   *opStats
	// gov, when non-nil, gets a cancellation check every govStride rows
	// (see lifecycle.go); one int test per row otherwise.
	gov *governor
}

func newTableScan(t *storage.Table, alias string) *tableScan {
	return &tableScan{tab: t, sch: schemaOf(t, alias)}
}

func (s *tableScan) schema() relSchema { return s.sch }

func (s *tableScan) next() ([]value.Value, bool, error) {
	if s.stats != nil {
		t0 := time.Now()
		row, ok, err := s.step()
		s.stats.ns += time.Since(t0).Nanoseconds()
		if ok {
			s.stats.rows++
		}
		return row, ok, err
	}
	return s.step()
}

// count is how many rows the scan visits in all.
func (s *tableScan) count() int {
	if s.order != nil {
		return len(s.order)
	}
	return s.tab.NumRows()
}

func (s *tableScan) step() ([]value.Value, bool, error) {
	r := s.pos
	if r >= s.count() {
		if !s.counted {
			s.counted = true
			mRowsScanned.Add(int64(s.pos))
			if s.gov != nil {
				s.gov.addScanned(int64(s.pos % govStride))
			}
		}
		return nil, false, nil
	}
	if s.gov != nil && s.pos > 0 && s.pos%govStride == 0 {
		if err := s.gov.addScanned(govStride); err != nil {
			return nil, false, err
		}
	}
	if s.order != nil {
		r = int(s.order[r])
	}
	s.buf = s.tab.Row(r, s.buf)
	s.pos++
	return s.buf, true, nil
}

// filterIter drops rows whose predicate is not truthy (false or NULL).
type filterIter struct {
	child iterator
	pred  expr.Expr // bound against the child schema
	box   rowBox
	stats *opStats
}

// rowBox adapts a reusable value slice to expr.Row. Unlike converting a
// slice type per call — which boxes a slice header on the heap every time —
// a *rowBox converts to the interface without allocating, so hot loops
// (aggregation, filters, window sweeps) retarget one box per batch.
type rowBox struct{ vals []value.Value }

// ColumnValue returns the i-th value.
func (b *rowBox) ColumnValue(i int) value.Value { return b.vals[i] }

func (f *filterIter) schema() relSchema { return f.child.schema() }

func (f *filterIter) next() ([]value.Value, bool, error) {
	if f.stats != nil {
		t0 := time.Now()
		row, ok, err := f.step()
		f.stats.ns += time.Since(t0).Nanoseconds()
		if ok {
			f.stats.rows++
		}
		return row, ok, err
	}
	return f.step()
}

func (f *filterIter) step() ([]value.Value, bool, error) {
	// pctvet:ok every iteration pulls child.next(), governed at the scan leaf by addScanned
	for {
		row, ok, err := f.child.next()
		if !ok || err != nil {
			return nil, false, err
		}
		f.box.vals = row
		v, err := f.pred.Eval(&f.box)
		if err != nil {
			return nil, false, err
		}
		if v.Truthy() {
			return row, true, nil
		}
	}
}

// memRelation is a materialized relation, used where streaming is not
// possible (window-function input, join build sides, reference operators in
// tests).
type memRelation struct {
	sch   relSchema
	rows  [][]value.Value
	pos   int
	stats *opStats
}

func (m *memRelation) schema() relSchema { return m.sch }

func (m *memRelation) next() ([]value.Value, bool, error) {
	if m.pos >= len(m.rows) {
		return nil, false, nil
	}
	r := m.rows[m.pos]
	m.pos++
	if m.stats != nil {
		m.stats.rows++
	}
	return r, true, nil
}

// materialize drains an iterator into a memRelation, copying rows. A
// non-nil governor charges every buffered row against the statement's
// row and byte budgets — materialization is where memory is actually
// committed, so this is where MaxRows/MaxBytes bite.
func materialize(it iterator, gov *governor) (*memRelation, error) {
	keep := collector{charge: rowCharge{gov: gov}}
	if scan, ok := it.(*tableScan); ok {
		keep.reserve(scan.count())
	}
	for {
		row, ok, err := it.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return &memRelation{sch: it.schema(), rows: keep.rows}, keep.charge.settle()
		}
		if err := keep.push(row); err != nil {
			return nil, err
		}
	}
}
