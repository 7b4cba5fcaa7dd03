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

// planNode is one operator of a SELECT's FROM plan: a scan, a filter, a join,
// or the FROM-less select's one tuple. The nodes are what EXPLAIN renders,
// tracing annotates and the batch pipeline compiles (columns.go); none of them
// runs by itself.
type planNode interface {
	schema() relSchema
}

// tableScan reads a base table, every row in storage order. stats is non-nil
// only for traced statements (see trace.go).
type tableScan struct {
	tab   *storage.Table
	sch   relSchema
	stats *opStats
}

func newTableScan(t *storage.Table, alias string) *tableScan {
	return &tableScan{tab: t, sch: schemaOf(t, alias)}
}

func (s *tableScan) schema() relSchema { return s.sch }

// count is how many rows the scan visits in all.
func (s *tableScan) count() int { return s.tab.NumRows() }

// filterIter keeps the rows whose predicate is truthy (not false or NULL).
type filterIter struct {
	child planNode
	pred  expr.Expr // bound against the child schema
	stats *opStats
}

func (f *filterIter) schema() relSchema { return f.child.schema() }

// valuesNode is the FROM of a select that names none: one tuple of no column.
type valuesNode struct {
	stats *opStats
}

func (*valuesNode) schema() relSchema { return nil }

// rowBox adapts a reusable value slice to expr.Row. Unlike converting a
// slice type per call — which boxes a slice header on the heap every time —
// a *rowBox converts to the interface without allocating, so hot loops
// retarget one box per row.
type rowBox struct{ vals []value.Value }

// ColumnValue returns the i-th value.
func (b *rowBox) ColumnValue(i int) value.Value { return b.vals[i] }
