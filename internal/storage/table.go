package storage

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/index"
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
	name    string
	schema  Schema
	cols    []Vector
	nrows   int
	indexes []*index.Index
	// indexPos[i] holds the column positions indexes[i] covers; indexKeyBuf is
	// the writer's scratch for one key tuple (writes are serialized).
	indexPos    [][]int
	indexKeyBuf []value.Value
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
// a table created later (including a staging clone swapped in under the
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

// SetPrimaryKey records the primary-key columns (by name) and builds a
// backing index for them. It must be called before rows are appended if
// uniqueness is to be enforced from the start.
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
	t.indexRow(rid, -1, true)
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
// under a savepoint, truncate back on failure). Only the discarded rows'
// index entries are removed, newest first, so the cost is O(discarded rows)
// whatever the table holds, and a VARCHAR column the discarded rows left with
// a dictionary out of proportion is coded anew (Vector.compact). A count at
// or beyond the current size is a no-op.
func (t *Table) TruncateTo(n int) {
	if n < 0 {
		n = 0
	}
	if n >= t.nrows {
		return
	}
	for r := t.nrows - 1; r >= n; r-- {
		t.indexRow(r, -1, false)
	}
	for i := range t.cols {
		t.cols[i].truncate(n)
		t.cols[i].compact()
	}
	t.nrows = n
	t.bumpRewrite()
}

// EmptyClone returns a new zero-row table with the same name, schema,
// primary key, and (empty) index definitions. It is the staging half of the
// engine's journaled table rewrite: build the new contents into the clone,
// then publish it with Catalog.Put on success, so a mid-statement failure
// leaves the live table untouched.
func (t *Table) EmptyClone() *Table { return t.staged(nil, 0) }

// Without returns a staging table holding t's rows less those listed,
// ascending, in drop — the staging half of DELETE: each column vector is
// gathered by typed copies of the kept runs (Vector.without) and the indexes
// are built over the result.
func (t *Table) Without(drop []int32) *Table {
	cols := make([]Vector, len(t.cols))
	for i := range t.cols {
		cols[i] = t.cols[i].without(drop)
	}
	return t.staged(cols, t.nrows-len(drop))
}

// staged returns a new table under t's name, schema, primary key and index
// definitions over the given column vectors (nil: none, zero rows).
func (t *Table) staged(cols []Vector, nrows int) *Table {
	c, err := NewTable(t.name, t.schema)
	if err != nil {
		// t's schema was validated when t was created.
		panic("storage: staging clone of invalid table: " + err.Error())
	}
	if cols != nil {
		c.cols, c.nrows = cols, nrows
	}
	c.primaryKey = append([]int(nil), t.primaryKey...)
	for _, ix := range t.indexes {
		_, _ = c.CreateIndex(ix.Name(), ix.Columns())
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

// set overwrites the value at (row, col), keeping indexes in sync.
func (t *Table) set(row, col int, v value.Value) error {
	if row < 0 || row >= t.nrows {
		return fmt.Errorf("storage: table %q: row %d out of range", t.name, row)
	}
	t.indexRow(row, col, false)
	err := t.cols[col].put(row, v)
	t.indexRow(row, col, true)
	if err != nil {
		return fmt.Errorf("storage: table %q column %q: %w", t.name, t.schema[col].Name, err)
	}
	t.bumpRewrite()
	return nil
}

// indexRow is the per-row index maintenance every writer shares: it adds row
// rid's entry to — or, add unset, removes it from — each index with col among
// its keys, every index when col is -1.
func (t *Table) indexRow(rid, col int, add bool) {
	for i, ix := range t.indexes {
		switch {
		case col >= 0 && !slices.Contains(t.indexPos[i], col):
		case add:
			ix.Add(t.indexKey(i, rid), rid)
		default:
			ix.Remove(t.indexKey(i, rid), rid)
		}
	}
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
// the epoch, are unchanged.
func (t *Table) BeginUpdate() *Undo {
	for i := range t.cols {
		t.cols[i].compact()
	}
	return &Undo{t: t, epoch: t.Epoch()}
}

// Set logs the cell at (row, col) and overwrites it with v, moving the row's
// entry in an index only when col is one of its keys. A value the column
// cannot store is an error and leaves the cell as it was.
func (u *Undo) Set(row, col int, v value.Value) error {
	u.cells = append(u.cells, undoCell{row, col, u.t.cols[col].Value(row)})
	return u.t.set(row, col, v)
}

// Rollback writes the logged cells back, newest first, and restores the
// pre-statement epoch: cells, indexes and epoch are as BeginUpdate found them.
func (u *Undo) Rollback() {
	for i := len(u.cells) - 1; i >= 0; i-- {
		c := u.cells[i]
		_ = u.t.set(c.row, c.col, c.old) // the cell was read from this column: it stores
	}
	u.cells = nil
	u.t.epoch.Store(u.epoch)
}

// CreateIndex builds a hash index over the named columns, populated from the
// current rows, and registers it for maintenance on future writes.
func (t *Table) CreateIndex(name string, columns []string) (*index.Index, error) {
	pos := make([]int, len(columns))
	for i, c := range columns {
		j := t.schema.ColumnIndex(c)
		if j < 0 {
			return nil, fmt.Errorf("storage: table %q: no column %q to index", t.name, c)
		}
		pos[i] = j
	}
	for _, ix := range t.indexes {
		if strings.EqualFold(ix.Name(), name) {
			return nil, fmt.Errorf("storage: table %q: index %q already exists", t.name, name)
		}
	}
	ix := index.New(name, columns)
	get := make([]func(int) value.Value, len(pos))
	for i, p := range pos {
		get[i] = t.CellGetter(p)
	}
	key := make([]value.Value, len(pos))
	for r := 0; r < t.nrows; r++ {
		for i := range get {
			key[i] = get[i](r)
		}
		ix.Add(key, r)
	}
	t.indexes, t.indexPos = append(t.indexes, ix), append(t.indexPos, pos)
	return ix, nil
}

// Indexes returns the table's indexes.
func (t *Table) Indexes() []*index.Index { return t.indexes }

// IndexOn returns an index whose column list equals columns (order-
// sensitive, case-insensitive), or nil.
func (t *Table) IndexOn(columns []string) *index.Index {
	for _, ix := range t.indexes {
		ic := ix.Columns()
		if len(ic) != len(columns) {
			continue
		}
		match := true
		for i := range ic {
			if !strings.EqualFold(ic[i], columns[i]) {
				match = false
				break
			}
		}
		if match {
			return ix
		}
	}
	return nil
}

// indexKey extracts the key tuple of indexes[i] from row rid into the table's
// scratch. It reads the live columns by position — a CellGetter snapshots its
// vector and cannot see a row appended after it was built.
func (t *Table) indexKey(i, rid int) []value.Value {
	key := t.indexKeyBuf[:0]
	for _, p := range t.indexPos[i] {
		key = append(key, t.cols[p].Value(rid))
	}
	t.indexKeyBuf = key
	return key
}

// Truncate removes all rows, keeping schema and (now empty) indexes.
func (t *Table) Truncate() {
	for i := range t.cols {
		t.cols[i] = Vector{Type: t.schema[i].Type}
	}
	t.nrows = 0
	t.bumpRewrite()
	names := make([][2]any, 0, len(t.indexes))
	for _, ix := range t.indexes {
		names = append(names, [2]any{ix.Name(), ix.Columns()})
	}
	t.indexes, t.indexPos = nil, nil
	for _, n := range names {
		// Re-create empty indexes; errors are impossible for existing columns.
		_, _ = t.CreateIndex(n[0].(string), n[1].([]string))
	}
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
