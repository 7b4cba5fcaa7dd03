package engine

import (
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

// Single-table UPDATE and DELETE are select-then-apply: selectRows evaluates
// the WHERE to row ids, then UPDATE writes the affected cells in place under
// an undo record and DELETE swaps in a staging table gathered from the kept
// rows. Either way a statement that affects no row changes nothing — no swap,
// no epoch tick, no hook.

// selectRows returns, ascending, the ids of t's rows that where admits (nil:
// every row): the pipeline scans t through the filter.
func selectRows(t *storage.Table, where expr.Expr, gov *governor) ([]int32, error) {
	q := &struct { // one allocation for the plan and what it selects
		scan   tableScan
		filter filterIter
		ids    idSink
	}{scan: tableScan{tab: t}}
	var in planNode = &q.scan
	if where != nil {
		q.filter = filterIter{child: in, pred: where}
		in = &q.filter
	}
	err := newPipeline(in).drain(gov, &q.ids, nil)
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
// update-based Vpct strategy generates. The statement's shape picks the
// path: the single-table form writes in place (updateInPlace), the joined
// form is the journaled whole-table rewrite the paper prices (rewriteJoined).
func (e *Engine) execUpdate(u *sqlparse.Update, ec execCtx) (*Result, error) {
	if e.IsVirtualTable(u.Table) {
		return nil, errVirtualReadOnly("UPDATE", u.Table)
	}
	t, err := e.cat.Get(u.Table)
	if err != nil {
		return nil, err
	}
	alias := u.Alias
	if alias == "" {
		alias = u.Table
	}
	targetSch := schemaOf(t, alias)
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
	if build != nil {
		return e.rewriteJoined(t, u.Table, build, where, sets, ec.gov)
	}
	ids, err := selectRows(t, where, ec.gov)
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return &Result{}, nil
	}
	return e.updateInPlace(t, u.Table, ids, sets, ec.gov)
}

// updateInPlace assigns sets to the rows ids of t, in place. Each row's
// assignments are all evaluated against its pre-image — the pipeline's
// tupleBatch over ids, positioned on the row — then written cell by cell
// under an undo record (storage.Undo) that any exit without commit — error,
// cancellation, contained panic, injected fault — replays, leaving every
// cell, index and the epoch as the statement found them. The record is the
// statement's materialized state: its rows are charged against MaxRows
// before the first write. When a hook is installed and the rows are few
// (MutationBound) it receives their images.
func (e *Engine) updateInPlace(t *storage.Table, name string, ids []int32, sets []boundSet, gov *governor) (*Result, error) {
	if err := gov.addRows(int64(len(ids))); err != nil {
		return nil, err
	}
	var m *Mutation
	if e.dml.Load() != nil && len(ids) <= MutationBound {
		m = &Mutation{PreEpoch: t.Epoch()}
		for _, s := range sets {
			m.Cols = append(m.Cols, s.col)
		}
	}
	undo := t.BeginUpdate()
	committed := false
	defer func() {
		if !committed {
			undo.Rollback()
		}
	}()
	rows := tupleBatch{tabs: []*storage.Table{t}, ids: [][]int32{ids}}
	vals := make([]value.Value, len(sets))
	for k, r := range ids {
		if k%govStride == 0 {
			if err := gov.check(); err != nil {
				return nil, err
			}
		}
		for i, s := range sets {
			v, err := s.ex.Eval(rows.row(k))
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		if m != nil {
			m.Rows, m.Old = append(m.Rows, int(r)), append(m.Old, t.Row(int(r), nil))
		}
		for i, s := range sets {
			err := chaos.HitN(chaos.UpdateApply, k*len(sets)+i+1)
			if err == nil {
				err = undo.Set(int(r), s.col, vals[i])
			}
			if err != nil {
				return nil, err
			}
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

// rewriteJoined runs UPDATE … FROM the way the paper's block-oriented MPP
// system does: every row of t flows into a staging clone (indexes included) —
// a row with a qualifying match in build as sets assign it, every other as it
// is — that is swapped into the catalog only on success, so a mid-statement
// failure leaves the live table, its indexes and its epoch untouched; the
// staged rows are charged against MaxRows a stride at a time. The pre- and
// post-image of each changed row is retained in a transient journal until the
// statement completes (the recovery log every ACID engine writes). With the
// table rewrite this is what makes the paper's UPDATE-based Vpct strategy pay
// when |FV| is large, and why the paper recommends INSERT instead.
func (e *Engine) rewriteJoined(t *storage.Table, name string, build *buildSide, where expr.Expr, sets []boundSet, gov *governor) (*Result, error) {
	if err := build.ensure(gov); err != nil {
		return nil, err
	}
	build.probeKeys([]*storage.Table{t}, func(int) bool { return false })
	stage := t.EmptyClone()
	n := 0
	var row, comb []value.Value
	var journal [][]value.Value
	var box rowBox
	var w foldWorker
	newVals := make([]value.Value, len(sets))
	ids := make([]int32, 2*batchSize)
	probe := tupleBatch{ids: [][]int32{nil}}
	for r := 0; r < t.NumRows(); r++ {
		if (r+1)%govStride == 0 {
			if err := gov.addRows(govStride); err != nil {
				return nil, err
			}
		}
		if r%batchSize == 0 {
			probe.ids[0] = rowRange(ids[batchSize:], r, min(batchSize, t.NumRows()-r))
			if err := build.lookup(&w, &probe, ids[:len(probe.ids[0])]); err != nil {
				return nil, err
			}
		}
		row = t.Row(r, row)
		box.vals = row
		for _, m := range build.ix.matches(ids[r%batchSize]) {
			comb = append(comb[:0], row...)
			for c := 0; c < build.tab.NumCols(); c++ {
				comb = append(comb, build.tab.Get(int(m), c))
			}
			box.vals = comb
			if where != nil {
				if v, err := where.Eval(&box); err != nil {
					return nil, err
				} else if !v.Truthy() {
					continue
				}
			}
			// Every assignment is evaluated against the pre-update image, then
			// applied; one qualifying match updates the row once.
			for i, s := range sets {
				v, err := s.ex.Eval(&box)
				if err != nil {
					return nil, err
				}
				newVals[i] = v
			}
			for i, s := range sets {
				row[s.col] = newVals[i]
			}
			journal = append(journal, slices.Clone(comb[:len(row)]), slices.Clone(row))
			n++
			break
		}
		if _, err := stage.AppendRow(row); err != nil {
			return nil, err
		}
	}
	if err := gov.addRows(int64(t.NumRows() % govStride)); err != nil {
		return nil, err
	}
	if n == 0 {
		return &Result{}, nil
	}
	e.cat.Put(stage)
	e.notifyMutate(name, nil)
	return &Result{Affected: n}, nil
}
