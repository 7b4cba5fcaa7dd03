package engine

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/expr"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/value"
)

// execCreateTable creates a table (and its primary-key index).
func (e *Engine) execCreateTable(ct *sqlparse.CreateTable) (*Result, error) {
	if e.IsVirtualTable(ct.Name) {
		return nil, errVirtualReadOnly("CREATE TABLE", ct.Name)
	}
	t, err := e.cat.Create(ct.Name, ct.Schema)
	if err != nil {
		return nil, err
	}
	if len(ct.PrimaryKey) > 0 {
		if err := t.SetPrimaryKey(ct.PrimaryKey); err != nil {
			e.cat.DropIfExists(ct.Name)
			return nil, err
		}
	}
	return &Result{}, nil
}

// execCreateIndex builds a secondary index.
func (e *Engine) execCreateIndex(ci *sqlparse.CreateIndex) (*Result, error) {
	if e.IsVirtualTable(ci.Table) {
		return nil, errVirtualReadOnly("CREATE INDEX", ci.Table)
	}
	t, err := e.cat.Get(ci.Table)
	if err != nil {
		return nil, err
	}
	if _, err := t.CreateIndex(ci.Name, ci.Columns); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// execDropTable removes a table.
func (e *Engine) execDropTable(dt *sqlparse.DropTable) (*Result, error) {
	if e.IsVirtualTable(dt.Name) {
		return nil, errVirtualReadOnly("DROP TABLE", dt.Name)
	}
	if dt.IfExists {
		e.DropIfExists(dt.Name)
		return &Result{}, nil
	}
	if err := e.cat.Drop(dt.Name); err != nil {
		return nil, err
	}
	e.notifyMutate(dt.Name, nil)
	return &Result{}, nil
}

// DropIfExists removes the named stored table if present and, when it was,
// tells the DML hook, as DROP TABLE IF EXISTS does — but as no statement: no
// text, no parse, no lifecycle and no introspection record. The planner drops
// its temporaries and the summary cache its tables through it; the hook still
// hears of every drop, so a summary over a table the planner named (a user
// may put one in FROM) is invalidated as it was when cleanup ran SQL.
func (e *Engine) DropIfExists(name string) {
	if e.cat.DropIfExists(name) {
		e.notifyMutate(name, nil)
	}
}

// insertSink appends what is pushed into it to the INSERT's target table —
// the column-vector end of a generated step's dataflow — a batch at a time
// through the table's typed bulk append (storage.Table.AppendVectors). Each
// row passes the insert.sink fault point before the batch is in the table, is
// spread over the target's columns when the statement names a column list,
// and is charged once, rows and bytes, against the statement's budgets.
type insertSink struct {
	name   string // the target as the statement spells it, for errors
	tab    *storage.Table
	colMap []int             // target position of source column i; nil = schema order
	spread []*storage.Vector // one batch by target position, the unlisted columns nil
	n      int
	charge rowCharge
	// A statement traced in full clocks every push — the producing stage and
	// the appends share one loop, and elapsed is the insert span's part —
	// against clock, set then: a monotonic reading alone is the cheaper read.
	clock   time.Time
	elapsed time.Duration
}

func (s *insertSink) reserve(n int) { s.tab.Reserve(n) }

func (s *insertSink) pushCols(cols []*storage.Vector, n int) error {
	if n == 0 {
		return nil
	}
	if s.clock.IsZero() {
		return s.appendCols(cols, n)
	}
	t0 := time.Since(s.clock)
	err := s.appendCols(cols, n)
	s.elapsed += time.Since(s.clock) - t0
	return err
}

// width checks the number of values the statement supplies per row.
func (s *insertSink) width(got int) error {
	if want := s.want(); got != want {
		return fmt.Errorf("engine: INSERT into %q expects %d values, got %d", s.name, want, got)
	}
	return nil
}

// want is the number of values a row must supply.
func (s *insertSink) want() int {
	if s.colMap != nil {
		return len(s.colMap)
	}
	return s.tab.NumCols()
}

func hitInsertSink() error { return chaos.Hit(chaos.InsertSink) }

// values appends the rows of INSERT … VALUES, evaluated row after row into
// one boxed vector per column. A row that raises — an expression, or the
// wrong number of values — ends the batch: the rows before it are appended
// first, so one of them that cannot be stored fails the statement ahead of
// it, as appending row after row would order the errors.
func (s *insertSink) values(rows [][]expr.Expr) error {
	cols := newVectors(s.want())
	for _, v := range cols {
		v.ResizeBoxed(len(rows))
	}
	n, pending, short := len(rows), error(nil), false
	var row []value.Value
	for k, exprs := range rows {
		row = row[:0]
		for _, ex := range exprs {
			// VALUES expressions are constant; bind against an empty scope.
			b, err := bindExpr(ex, nil)
			if err != nil {
				pending = fmt.Errorf("engine: VALUES expressions must be constant: %w", err)
				break
			}
			v, err := b.Eval(&rowBox{})
			if err != nil {
				pending = err
				break
			}
			row = append(row, v)
		}
		if pending == nil {
			pending = s.width(len(row))
			short = pending != nil
		}
		if pending != nil {
			n = k
			break
		}
		for j, v := range row {
			cols[j].Vals[k] = v
		}
	}
	if err := s.pushCols(cols, n); err != nil {
		return err
	}
	if short {
		// A row of the wrong width passes the fault point before it is measured.
		if err := hitInsertSink(); err != nil {
			return err
		}
	}
	return pending
}

func (s *insertSink) appendCols(cols []*storage.Vector, n int) error {
	if err := s.width(len(cols)); err != nil {
		return err
	}
	src := cols
	if s.colMap != nil {
		if s.spread == nil {
			s.spread = make([]*storage.Vector, s.tab.NumCols())
		}
		for i, j := range s.colMap {
			s.spread[j] = cols[i]
		}
		src = s.spread
	}
	if err := s.tab.AppendVectors(src, n, hitInsertSink); err != nil {
		return err
	}
	s.n += n
	return s.charge.addCols(cols, n, len(src)-len(cols))
}

// execInsert appends VALUES rows or the result of INSERT … SELECT. The
// SELECT's rows stream straight into the target (see insertSink) unless it
// reads the target itself: that one shape is held as columns first, so the
// statement inserts the image of the pre-statement rows.
func (e *Engine) execInsert(ins *sqlparse.Insert, ec execCtx) (*Result, error) {
	if e.IsVirtualTable(ins.Table) {
		return nil, errVirtualReadOnly("INSERT", ins.Table)
	}
	t, err := e.cat.Get(ins.Table)
	if err != nil {
		return nil, err
	}
	sink := &insertSink{name: ins.Table, tab: t}
	if ec.fullSpan() != nil {
		sink.clock = time.Now()
	}
	if len(ins.Columns) > 0 {
		sch := t.Schema()
		sink.colMap = make([]int, len(ins.Columns))
		for i, c := range ins.Columns {
			j := sch.ColumnIndex(c)
			if j < 0 {
				return nil, fmt.Errorf("engine: table %q has no column %q", ins.Table, c)
			}
			if slices.Contains(sink.colMap[:i], j) {
				return nil, fmt.Errorf("engine: INSERT into %q names column %q twice", ins.Table, c)
			}
			sink.colMap[i] = j
		}
	}

	// Statement atomicity: appends run under a savepoint — the pre-statement
	// row count — and any exit without commit (error, injected fault, panic
	// unwinding to the statement recovery) truncates back to it, so a
	// mid-statement failure leaves the table exactly as it was — the
	// append-shaped twin of UPDATE's undo record: neither copies the table.
	base := t.NumRows()
	preEp := t.Epoch()
	committed := false
	defer func() {
		if !committed {
			t.TruncateTo(base)
		}
	}()

	if ins.Query != nil {
		sink.charge.gov = ec.gov
		if _, err := e.runSelect(ins.Query, ec, sink, selectReads(ins.Query, ins.Table)); err != nil {
			return nil, err
		}
		if err := sink.charge.settle(); err != nil {
			return nil, err
		}
		// The rows are in the table already, timed push by push.
		sp := ec.span.NewChild("insert " + ins.Table)
		if !sink.clock.IsZero() {
			sp.SetDuration(max(sink.elapsed, 1))
		}
		sp.SetRows(int64(sink.n), int64(sink.n))
		sp.End()
	} else if err := sink.values(ins.Rows); err != nil {
		return nil, err
	}
	committed = true
	// Delta capture: the committed statement appended exactly rows
	// [base, base+n) — the range an incremental cache can re-aggregate
	// instead of rescanning the table.
	e.notifyInsert(ins.Table, base, base+sink.n, preEp, t.Epoch())
	return &Result{Affected: sink.n}, nil
}

// selectReads reports whether sel's FROM clause names table.
func selectReads(sel *sqlparse.Select, table string) bool {
	for _, f := range sel.From {
		if strings.EqualFold(f.Table.Name, table) {
			return true
		}
	}
	return false
}

// UPDATE and DELETE are select-then-apply: selectRows (or, for UPDATE …
// FROM, joinedRows) evaluates the WHERE to row ids, then UPDATE writes the
// affected cells in place under an undo record and DELETE swaps in a staging
// table gathered from the kept rows. Either way a statement that affects no row changes nothing — no swap,
// no epoch tick, no hook.

// selectRows returns, ascending, the ids of t's rows that where admits (nil:
// every row): the pipeline scans t through the filter.
func selectRows(t *storage.Table, where expr.Expr, gov *governor) ([]int32, error) {
	q := &struct { // one allocation for the plan, its pipeline and what it selects
		scan   tableScan
		filter filterIter
		pipe   pipeline
		ids    idSink
	}{scan: tableScan{tab: t}}
	var in planNode = &q.scan
	if where != nil {
		q.filter = filterIter{child: in, pred: where}
		in = &q.filter
	}
	err := q.pipe.init(in).drain(gov, &q.ids, nil)
	return q.ids, err
}

// idSink keeps the row ids of a one-table pipeline.
type idSink []int32

func (s *idSink) consume(b *tupleBatch) error {
	*s = append(*s, b.ids[0]...)
	return nil
}

// execDelete removes the qualifying rows: the kept ones, charged against
// MaxRows, are gathered column vector by column vector into a staging table
// (storage.Table.Without) that replaces the live one in the catalog, so
// nothing short of the swap touches the table, its indexes or its epoch.
func (e *Engine) execDelete(d *sqlparse.Delete, ec execCtx) (*Result, error) {
	if e.IsVirtualTable(d.Table) {
		return nil, errVirtualReadOnly("DELETE", d.Table)
	}
	t, err := e.cat.Get(d.Table)
	if err != nil {
		return nil, err
	}
	var where expr.Expr
	if d.Where != nil {
		if where, err = bindExpr(d.Where, schemaOf(t, d.Table)); err != nil {
			return nil, err
		}
	}
	ids, err := selectRows(t, where, ec.gov)
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return &Result{}, nil
	}
	if err := ec.gov.addRows(int64(t.NumRows() - len(ids))); err != nil {
		return nil, err
	}
	e.cat.Put(t.Without(ids))
	e.notifyMutate(d.Table, nil)
	return &Result{Affected: len(ids)}, nil
}

// boundSet is one bound assignment of an UPDATE: the target column and the
// expression that computes its new value.
type boundSet struct {
	col int
	ex  expr.Expr
}

// execUpdate handles both the single-table form and the cross-table form
// (UPDATE target FROM other SET … WHERE join), which the paper's
// update-based Vpct strategy generates. Either selects the rows it changes —
// the joined form pairs each with its FROM row (joinedRows) — and writes them
// in place (updateInPlace).
func (e *Engine) execUpdate(u *sqlparse.Update, ec execCtx) (*Result, error) {
	if e.IsVirtualTable(u.Table) {
		return nil, errVirtualReadOnly("UPDATE", u.Table)
	}
	t, err := e.cat.Get(u.Table)
	if err != nil {
		return nil, err
	}
	targetSch := schemaOf(t, cmp.Or(u.Alias, u.Table))
	if len(u.From) > 1 {
		return nil, fmt.Errorf("engine: UPDATE supports at most one FROM table, got %d", len(u.From))
	}

	// The assignments and the WHERE see the target row — joined, in the
	// cross-table form, with one FROM row. There the equality conjuncts of
	// WHERE become the probe of a hash join's build side (governed, reusing a
	// matching index as the paper's subkey-index optimization intends); a
	// missing WHERE or one without equalities degrades to a cartesian match
	// (the global-totals case, where Fj is a single-row table).
	evalSch, cond := targetSch, u.Where
	var build *buildSide
	if len(u.From) == 1 {
		ft, err := e.tableFor(u.From[0].Name)
		if err != nil {
			return nil, err
		}
		fromSch := schemaOf(ft, u.From[0].RefName())
		evalSch = append(append(relSchema{}, targetSch...), fromSch...)
		var pairs []joinPair
		var residual []expr.Expr
		if u.Where != nil {
			pairs, residual = extractEquiPairs(splitConjuncts(u.Where), targetSch, fromSch)
		}
		cond = andAll(residual)
		build = newBuildSide(ft, fromSch, pairs)
	}
	var where expr.Expr
	if cond != nil {
		if where, err = bindExpr(cond, evalSch); err != nil {
			return nil, err
		}
	}
	sets := make([]boundSet, len(u.Set))
	for i, a := range u.Set {
		if sets[i].col, err = targetSch.resolve("", a.Column); err != nil {
			return nil, err
		}
		if sets[i].ex, err = bindExpr(a.Value, evalSch); err != nil {
			return nil, err
		}
	}
	rows := tupleBatch{tabs: []*storage.Table{t}, ids: [][]int32{nil}}
	if build != nil {
		rows, err = joinedRows(t, build, where, ec.gov)
	} else {
		rows.ids[0], err = selectRows(t, where, ec.gov)
	}
	if err != nil {
		return nil, err
	}
	if rows.rows() == 0 {
		return &Result{}, nil
	}
	return e.updateInPlace(t, u.Table, &rows, sets, build == nil, ec.gov)
}

// joinedRows pairs each row of the target t, ascending, with its first match
// in build — in the index's row order — at which the residual where holds,
// and returns the pairs: t's row ids, then build's table's. A row without
// such a match is in none.
func joinedRows(t *storage.Table, build *buildSide, where expr.Expr, gov *governor) (tupleBatch, error) {
	rows := tupleBatch{tabs: []*storage.Table{t, build.tab}, ids: make([][]int32, 2)}
	if err := build.ensure(gov); err != nil {
		return rows, err
	}
	build.probeKeys(rows.tabs[:1], func(int) bool { return false })
	pair := tupleBatch{tabs: rows.tabs, ids: [][]int32{{0}, {0}}}
	var w foldWorker
	ids, probe := make([]int32, 2*batchSize), tupleBatch{ids: [][]int32{nil}}
	for lo := 0; lo < t.NumRows(); lo += batchSize {
		if err := gov.check(); err != nil {
			return rows, err
		}
		probe.ids[0] = rowRange(ids[batchSize:], lo, min(batchSize, t.NumRows()-lo))
		found := ids[:len(probe.ids[0])]
		if err := build.lookup(&w, &probe, found); err != nil {
			return rows, err
		}
		for k, id := range found {
			for _, m := range build.ix.matches(id) {
				pair.ids[0][0], pair.ids[1][0] = int32(lo+k), m
				if where != nil {
					if v, err := where.Eval(pair.row(0)); err != nil {
						return rows, err
					} else if !v.Truthy() {
						continue
					}
				}
				rows.ids[0], rows.ids[1] = append(rows.ids[0], int32(lo+k)), append(rows.ids[1], m)
				break
			}
		}
	}
	return rows, nil
}

// updateInPlace assigns sets to the target rows of rows — rows.ids[0] of t,
// ascending, each beside its FROM row in the joined form — in place. Every
// assignment of every row is evaluated before the first write, so each reads
// the table as the statement found it, the FROM row too when FROM names the
// target. The cells are then written under an undo record (storage.Undo) that
// any exit without commit — error, cancellation, contained panic, injected
// fault — replays, leaving every cell, index and the epoch as the statement
// found them. The rows are charged against MaxRows before the first
// evaluation. When images is set, a hook is installed and the rows are few
// (MutationBound), the hook receives their images.
func (e *Engine) updateInPlace(t *storage.Table, name string, rows *tupleBatch, sets []boundSet, images bool, gov *governor) (*Result, error) {
	ids := rows.ids[0]
	if err := gov.addRows(int64(len(ids))); err != nil {
		return nil, err
	}
	var m *Mutation
	if images && e.dml.Load() != nil && len(ids) <= MutationBound {
		m = &Mutation{PreEpoch: t.Epoch()}
		for _, s := range sets {
			m.Cols = append(m.Cols, s.col)
		}
	}
	vals := make([]value.Value, 0, len(ids)*len(sets))
	for k, r := range ids {
		if k%govStride == 0 {
			if err := gov.check(); err != nil {
				return nil, err
			}
		}
		for _, s := range sets {
			v, err := s.ex.Eval(rows.row(k))
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
		if m != nil {
			m.Rows, m.Old = append(m.Rows, int(r)), append(m.Old, t.Row(int(r), nil))
		}
	}
	undo := t.BeginUpdate()
	undo.Grow(len(vals))
	committed := false
	defer func() {
		if !committed {
			undo.Rollback()
		}
	}()
	for j, v := range vals {
		if j%govStride == 0 {
			if err := gov.check(); err != nil {
				return nil, err
			}
		}
		err := chaos.HitN(chaos.UpdateApply, j+1)
		if err == nil {
			err = undo.Set(int(ids[j/len(sets)]), sets[j%len(sets)].col, v)
		}
		if err != nil {
			return nil, err
		}
	}
	committed = true
	if m != nil {
		m.PostEpoch = t.Epoch()
		for _, r := range m.Rows {
			m.New = append(m.New, t.Row(r, nil))
		}
	}
	e.notifyMutate(name, m)
	return &Result{Affected: len(ids)}, nil
}
