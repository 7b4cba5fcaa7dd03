package storage

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/value"
)

// epochClock is the process-wide modification clock: every mutation of any
// table stamps the table with a fresh tick. Because ticks are globally
// monotonic — never reused across tables — a cache entry keyed by (table,
// epoch) can never be aliased by a drop-and-recreate or a staging-swap: the
// replacement table necessarily carries a newer epoch.
var epochClock atomic.Int64

// ColumnDef declares one column of a table schema.
type ColumnDef struct {
	Name string
	Type ColumnType
}

// Schema is an ordered list of column definitions.
type Schema []ColumnDef

// ColumnIndex returns the position of the named column (case-insensitive),
// or -1 if absent.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// names returns the column names in order.
func (s Schema) names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// String renders the schema as a CREATE TABLE column list.
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = c.Name + " " + c.Type.String()
	}
	return strings.Join(parts, ", ")
}

// Table is an in-memory columnar table. Tables are not safe for concurrent
// mutation; the engine serializes writes per statement. Reads may proceed
// concurrently with each other.
type Table struct {
	name   string
	schema Schema
	cols   []Vector
	nrows  int
	// indexes are the declared indexes; idxMu serializes the readers that
	// build and cache what a join reads under one (JoinIndex).
	indexes []*Index
	idxMu   sync.Mutex
	// primaryKey holds the positions of primary-key columns, if declared.
	primaryKey []int
	// epoch is the table's position on the global modification clock: it
	// advances on every row mutation (append, set, truncate) and at creation.
	// Readers that cached derived state (the planner's summary cache) compare
	// it to decide whether their snapshot is still current. Atomic so
	// concurrent readers may poll it while the serialized writer advances it.
	epoch atomic.Int64
	// rewrote is the epoch of the last write that was not an append — an
	// UPDATE's cell, a rollback's, a truncation — from which on no cached
	// range extends.
	rewrote atomic.Int64
	// ranges caches IntRange per column, each entry stamped with the epoch it
	// was computed at; rangeMu serializes the readers that fill it.
	rangeMu sync.Mutex
	ranges  []intRange
}

// Index is a declared index: a name and the columns it keys, in order. The
// table keeps no entries under it. What a join reads under it — the engine's
// to build — is built by the first join that reads it and cached here, stamped
// with the epoch it was built at (JoinIndex).
type Index struct {
	name  string
	cols  []string
	epoch int64 // built's; 0, which no table ever holds, is none
	built any
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Columns returns the indexed column names in index order. The caller must
// not mutate them.
func (ix *Index) Columns() []string { return ix.cols }

// intRange is one column's IntRange answer at epoch over its first rows
// rows; epoch 0, which no table ever holds, is an entry not yet computed.
type intRange struct {
	epoch  int64
	rows   int
	lo, hi int64
	ok     bool
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema Schema) (*Table, error) {
	if len(schema) == 0 {
		return nil, fmt.Errorf("storage: table %q needs at least one column", name)
	}
	seen := make(map[string]bool, len(schema))
	cols := make([]Vector, len(schema))
	for i, def := range schema {
		lower := strings.ToLower(def.Name)
		if seen[lower] {
			return nil, fmt.Errorf("storage: table %q: duplicate column %q", name, def.Name)
		}
		if def.Type.Kind() == value.KindNull {
			return nil, fmt.Errorf("storage: table %q: column %q has unknown type %s", name, def.Name, def.Type)
		}
		seen[lower] = true
		cols[i].Type = def.Type
	}
	t := &Table{
		name:   name,
		schema: append(Schema(nil), schema...),
		cols:   cols,
	}
	t.bumpEpoch()
	return t, nil
}

// Epoch returns the table's last-modification tick on the global clock.
// Two reads returning the same value bracket a span with no row mutations;
// a table created later (including a staging table swapped in under the
// same name) always reports a strictly greater epoch.
func (t *Table) Epoch() int64 { return t.epoch.Load() }

// bumpEpoch advances the table to a fresh tick of the global clock.
func (t *Table) bumpEpoch() { t.epoch.Store(epochClock.Add(1)) }

// bumpRewrite is bumpEpoch for a write that is not an append. It stamps
// rewrote before it publishes the epoch, so a reader that sees the new epoch
// sees the rewrite too.
func (t *Table) bumpRewrite() {
	e := epochClock.Add(1)
	t.rewrote.Store(e)
	t.epoch.Store(e)
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema. The caller must not mutate it.
func (t *Table) Schema() Schema { return t.schema }

// NumRows reports the number of rows.
func (t *Table) NumRows() int { return t.nrows }

// NumCols reports the number of columns.
func (t *Table) NumCols() int { return len(t.schema) }

// SetPrimaryKey records the primary-key columns (by name) and declares a
// backing index on them.
func (t *Table) SetPrimaryKey(columns []string) error {
	pos := make([]int, len(columns))
	for i, c := range columns {
		j := t.schema.ColumnIndex(c)
		if j < 0 {
			return fmt.Errorf("storage: table %q: no column %q for primary key", t.name, c)
		}
		pos[i] = j
	}
	t.primaryKey = pos
	_, err := t.CreateIndex("pk_"+t.name, columns)
	return err
}

// PrimaryKey returns the primary key column positions, or nil.
func (t *Table) PrimaryKey() []int { return t.primaryKey }

// AppendRow appends vals as a new row and returns its row id. The number
// and types of values must match the schema (NULL fits any column).
func (t *Table) AppendRow(vals []value.Value) (int, error) {
	if len(vals) != len(t.cols) {
		return 0, fmt.Errorf("storage: table %q has %d columns, row has %d values",
			t.name, len(t.cols), len(vals))
	}
	for i, v := range vals {
		if err := t.cols[i].put(t.nrows, v); err != nil {
			// Roll back the columns already appended to keep them aligned.
			for j := 0; j < i; j++ {
				t.cols[j].truncate(t.nrows)
			}
			return 0, fmt.Errorf("storage: table %q column %q: %w", t.name, t.schema[i].Name, err)
		}
	}
	rid := t.nrows
	t.nrows++
	t.bumpEpoch()
	return rid, nil
}

// Reserve grows every column vector's capacity to hold n more rows, so a
// writer that knows its row count (INSERT … SELECT after a fold) appends
// without regrowing.
func (t *Table) Reserve(n int) {
	for i := range t.cols {
		t.cols[i].reserve(n)
	}
}

// TruncateTo discards rows n onward, restoring the table to an earlier row
// count — the rollback half of the engine's statement-atomic INSERT (append
// under a savepoint, truncate back on failure). A VARCHAR column the
// discarded rows left with a dictionary out of proportion is coded anew
// (Vector.compact). A count at or beyond the current size is a no-op.
func (t *Table) TruncateTo(n int) {
	if n < 0 {
		n = 0
	}
	if n >= t.nrows {
		return
	}
	for i := range t.cols {
		t.cols[i].truncate(n)
		t.cols[i].compact()
	}
	t.nrows = n
	t.bumpRewrite()
}

// Without returns a staging table holding t's rows less those listed,
// ascending, in drop — the staging half of DELETE, which publishes it with
// Catalog.Put — under t's name, schema, primary key and index definitions:
// each column vector is gathered by typed copies of the kept runs
// (Vector.without).
func (t *Table) Without(drop []int32) *Table {
	c, err := NewTable(t.name, t.schema)
	if err != nil {
		// t's schema was validated when t was created.
		panic("storage: staging clone of invalid table: " + err.Error())
	}
	for i := range t.cols {
		c.cols[i] = t.cols[i].without(drop)
	}
	c.nrows = t.nrows - len(drop)
	c.primaryKey = append([]int(nil), t.primaryKey...)
	for _, ix := range t.indexes {
		c.indexes = append(c.indexes, &Index{name: ix.name, cols: ix.cols})
	}
	return c
}

// Get returns the value at (row, col).
func (t *Table) Get(row, col int) value.Value {
	return t.cols[col].Value(row)
}

// Row copies row r into dst (allocating if dst is too small) and returns it.
func (t *Table) Row(r int, dst []value.Value) []value.Value {
	if cap(dst) < len(t.cols) {
		dst = make([]value.Value, len(t.cols))
	}
	dst = dst[:len(t.cols)]
	for i := range t.cols {
		dst[i] = t.cols[i].Value(r)
	}
	return dst
}

// set overwrites the value at (row, col).
func (t *Table) set(row, col int, v value.Value) error {
	if row < 0 || row >= t.nrows {
		return fmt.Errorf("storage: table %q: row %d out of range", t.name, row)
	}
	if err := t.cols[col].put(row, v); err != nil {
		return fmt.Errorf("storage: table %q column %q: %w", t.name, t.schema[col].Name, err)
	}
	t.bumpRewrite()
	return nil
}

// Undo is the record an in-place UPDATE writes under: the cell each Set
// overwrote, in write order, and the epoch the table held before the first.
// The statement either drops the record — the writes stand, the commit — or
// calls Rollback on any other exit.
type Undo struct {
	t     *Table
	epoch int64
	cells []undoCell
}

type undoCell struct {
	row, col int
	old      value.Value
}

// BeginUpdate opens an undo record on the table as it stands. Before the
// statement reads a row, a VARCHAR column whose dictionary earlier UPDATEs
// left out of proportion is coded anew (Vector.compact): its cells, and so
// the epoch, are unchanged, but not its codes, so the cached indexes go.
func (t *Table) BeginUpdate() *Undo {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	for i := range t.cols {
		t.cols[i].compact()
	}
	for _, ix := range t.indexes {
		ix.epoch, ix.built = 0, nil
	}
	return &Undo{t: t, epoch: t.Epoch()}
}

// Grow gives the record room for n more cells, so a statement that knows how
// many it writes sizes the log once.
func (u *Undo) Grow(n int) { u.cells = slices.Grow(u.cells, n) }

// Set logs the cell at (row, col) and overwrites it with v. A value the
// column cannot store is an error and leaves the cell as it was.
func (u *Undo) Set(row, col int, v value.Value) error {
	u.cells = append(u.cells, undoCell{row, col, u.t.cols[col].Value(row)})
	return u.t.set(row, col, v)
}

// Rollback writes the logged cells back, newest first, and restores the
// pre-statement epoch: cells and epoch are as BeginUpdate found them.
func (u *Undo) Rollback() {
	for i := len(u.cells) - 1; i >= 0; i-- {
		c := u.cells[i]
		_ = u.t.set(c.row, c.col, c.old) // the cell was read from this column: it stores
	}
	u.cells = nil
	u.t.epoch.Store(u.epoch)
}

// CreateIndex declares an index over the named columns. Nothing is built:
// the first join that reads it does (JoinIndex).
func (t *Table) CreateIndex(name string, columns []string) (*Index, error) {
	for _, c := range columns {
		if t.schema.ColumnIndex(c) < 0 {
			return nil, fmt.Errorf("storage: table %q: no column %q to index", t.name, c)
		}
	}
	if slices.ContainsFunc(t.indexes, func(ix *Index) bool { return strings.EqualFold(ix.name, name) }) {
		return nil, fmt.Errorf("storage: table %q: index %q already exists", t.name, name)
	}
	ix := &Index{name: name, cols: append([]string(nil), columns...)}
	t.indexes = append(t.indexes, ix)
	return ix, nil
}

// Indexes returns the table's declared indexes.
func (t *Table) Indexes() []*Index { return t.indexes }

// IndexOn returns an index whose column list equals columns (order-
// sensitive, case-insensitive), or nil.
func (t *Table) IndexOn(columns []string) *Index {
	for _, ix := range t.indexes {
		if slices.EqualFunc(ix.cols, columns, strings.EqualFold) {
			return ix
		}
	}
	return nil
}

// JoinIndex returns what build makes of index ix: the one cached on the table
// while no row has changed since it was built; a new one, made by build,
// after any write or with none cached. What build returns is published as it
// is and never changed; an error is returned and nothing cached. Safe for
// concurrent readers: one builds while the others wait.
func (t *Table) JoinIndex(ix *Index, build func() (any, error)) (any, error) {
	epoch := t.Epoch()
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if ix.epoch == epoch {
		return ix.built, nil
	}
	built, err := build()
	if err == nil {
		ix.epoch, ix.built = epoch, built
	}
	return built, err
}

// Truncate removes all rows, keeping schema and index definitions.
func (t *Table) Truncate() {
	for i := range t.cols {
		t.cols[i] = Vector{Type: t.schema[i].Type}
	}
	t.nrows = 0
	t.bumpRewrite()
}

// Column returns column col's vector, to read — typed slices and NULL bitmap
// hoisted by a kernel — never to write. Like a CellGetter, what is read off
// it is a snapshot of the rows present when it was read.
func (t *Table) Column(col int) *Vector { return &t.cols[col] }

// IntRange returns the least and greatest non-NULL value of an INTEGER column
// col, or the range [0, Len()) of a VARCHAR column's dictionary, which holds
// every cell's code; ok is false when there is none — no rows, only NULLs, an
// empty dictionary — or the column is of another type. The dictionary's range
// costs nothing; an INTEGER column's is cached on the table under the epoch it
// was computed at, so every later call until the next row mutation reads the
// cache. After appends alone the cached range is extended by a scan of the
// appended rows; after any other write it is computed anew. Safe for
// concurrent readers.
func (t *Table) IntRange(col int) (lo, hi int64, ok bool) {
	c := &t.cols[col]
	if c.Type == TypeString {
		n := c.Dict.Len()
		return 0, int64(n - 1), n > 0
	}
	epoch := t.Epoch()
	t.rangeMu.Lock()
	defer t.rangeMu.Unlock()
	if t.ranges == nil {
		t.ranges = make([]intRange, len(t.cols))
	}
	r := &t.ranges[col]
	if r.epoch != epoch && c.Type == TypeInt {
		if r.epoch == 0 || r.epoch < t.rewrote.Load() {
			*r = intRange{lo: math.MaxInt64, hi: math.MinInt64}
		}
		r.epoch, r.rows = epoch, r.extend(c, r.rows, t.nrows)
	}
	if !r.ok {
		return 0, 0, false
	}
	return r.lo, r.hi, true
}

// extend widens r by the non-NULL values of rows [from, to) of an INTEGER
// vector — in a loop without the NULL test when no NULL lies among them — and
// returns to.
func (r *intRange) extend(c *Vector, from, to int) int {
	if nulls := c.Nulls.Trim(); len(nulls) > from>>6 {
		for i, v := range c.Ints[from:to] {
			if !nulls.Get(from + i) {
				r.lo, r.hi, r.ok = min(r.lo, v), max(r.hi, v), true
			}
		}
		return to
	}
	for _, v := range c.Ints[from:to] {
		r.lo, r.hi = min(r.lo, v), max(r.hi, v)
	}
	r.ok = r.ok || to > from
	return to
}

// CellGetter returns a reader that boxes one cell of a column per call. The
// column's type and vector are resolved here, once, where Get re-dispatches
// on them for every cell — the saving that matters to loops touching a few
// columns of many rows (folds, join probes). The reader sees
// the rows present when it was built; the engine serializes writers per
// statement, so a statement's readers never outlive their snapshot.
func (t *Table) CellGetter(col int) func(row int) value.Value {
	c := &t.cols[col]
	nulls := &c.Nulls
	switch c.Type {
	case TypeInt:
		ints := c.Ints
		return func(r int) value.Value {
			if nulls.Get(r) {
				return value.Null
			}
			return value.NewInt(ints[r])
		}
	case TypeFloat:
		flts := c.Flts
		return func(r int) value.Value {
			if nulls.Get(r) {
				return value.Null
			}
			return value.NewFloat(flts[r])
		}
	case TypeString:
		codes, strs := c.Codes, c.Dict.Strs()
		return func(r int) value.Value {
			if nulls.Get(r) {
				return value.Null
			}
			return value.NewString(strs[codes[r]])
		}
	default:
		bools := c.Bools
		return func(r int) value.Value {
			if nulls.Get(r) {
				return value.Null
			}
			return value.NewBool(bools[r])
		}
	}
}
