package engine

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/expr"
	"repro/internal/obs"
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
		existed := e.cat.Has(dt.Name)
		e.cat.DropIfExists(dt.Name)
		if existed {
			e.notifyMutate(dt.Name, "drop")
		}
		return &Result{}, nil
	}
	if err := e.cat.Drop(dt.Name); err != nil {
		return nil, err
	}
	e.notifyMutate(dt.Name, "drop")
	return &Result{}, nil
}

// insertSink appends the rows pushed into it to the INSERT's target table —
// the column-vector end of a generated step's dataflow. Each row passes the
// insert.sink fault point, is spread over the target's columns when the
// statement names a column list, and is charged once, rows and bytes, against
// the statement's budgets.
type insertSink struct {
	name   string // the target as the statement spells it, for errors
	tab    *storage.Table
	colMap []int         // target position of source column i; nil = schema order
	full   []value.Value // one target row, the unlisted columns NULL
	n      int
	charge rowCharge
	// A statement traced in full clocks every push — the producing stage and
	// the appends share one loop, and elapsed is the insert span's part —
	// against clock, set then: a monotonic reading alone is the cheaper read.
	clock   time.Time
	elapsed time.Duration
}

func (s *insertSink) reserve(n int) { s.tab.Reserve(n) }

func (s *insertSink) push(row []value.Value) error {
	if s.clock.IsZero() {
		return s.append(row)
	}
	t0 := time.Since(s.clock)
	err := s.append(row)
	s.elapsed += time.Since(s.clock) - t0
	return err
}

func (s *insertSink) append(row []value.Value) error {
	if err := chaos.Hit(chaos.InsertSink); err != nil {
		return err
	}
	want := s.tab.NumCols()
	if s.colMap != nil {
		want = len(s.colMap)
	}
	if len(row) != want {
		return fmt.Errorf("engine: INSERT into %q expects %d values, got %d", s.name, want, len(row))
	}
	if s.colMap != nil {
		for i, j := range s.colMap {
			s.full[j] = row[i]
		}
		row = s.full
	}
	if _, err := s.tab.AppendRow(row); err != nil {
		return err
	}
	s.n++
	return s.charge.add(row)
}

// execInsert appends VALUES rows or the result of INSERT … SELECT. The
// SELECT's rows stream straight into the target (see insertSink) unless it
// reads the target itself: that one shape is collected first, so the
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
	if ec.span != nil && !ec.liteSpan() {
		sink.clock = time.Now()
	}
	if len(ins.Columns) > 0 {
		sch := t.Schema()
		sink.colMap, sink.full = make([]int, len(ins.Columns)), make([]value.Value, len(sch))
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
	// mid-statement failure leaves the table exactly as it was. This is the
	// append-shaped complement of the staging-then-swap rewrite DELETE and
	// UPDATE use: INSERT into a populated table must not copy the table.
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
		var out rowSink = sink
		if selectReads(ins.Query, ins.Table) {
			out = &collector{charge: rowCharge{gov: ec.gov}}
		}
		_, rows, err := e.runSelect(ins.Query, ec, out)
		if keep, ok := out.(*collector); ok && err == nil && rows == nil {
			rows, err = keep.rows, keep.charge.settle()
		}
		if err != nil {
			return nil, err
		}
		// Rows the SELECT had to collect are delivered here; the ones it
		// streamed are in the table already, timed push by push.
		var sp *obs.Span
		if ec.span != nil {
			sp = ec.span.NewChild("insert " + ins.Table)
			defer sp.End()
		}
		for _, row := range rows {
			if err := sink.push(row); err != nil {
				return nil, err
			}
		}
		if err := sink.charge.settle(); err != nil {
			return nil, err
		}
		if !sink.clock.IsZero() {
			sp.SetDuration(max(sink.elapsed, 1))
		}
		sp.SetRows(int64(sink.n), int64(sink.n))
	} else {
		for _, rowExprs := range ins.Rows {
			row := make([]value.Value, len(rowExprs))
			for i, ex := range rowExprs {
				// VALUES expressions are constant; bind against an empty scope.
				b, err := bindExpr(ex, nil)
				if err != nil {
					return nil, fmt.Errorf("engine: VALUES expressions must be constant: %w", err)
				}
				v, err := b.Eval(&rowBox{})
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			if err := sink.push(row); err != nil {
				return nil, err
			}
		}
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

// rewrite runs a DELETE or UPDATE (op) the way the paper's block-oriented MPP
// system does: every row of t flows through fn, which reports whether the
// statement affects the row — a DELETE drops those, an UPDATE keeps them as fn
// assigned them, in place. The rows land in a staging clone (indexes included)
// that is swapped into the catalog only on success, so a mid-statement failure
// leaves the live table, its indexes and its epoch untouched; the staged rows
// are charged against MaxRows a stride at a time.
func (e *Engine) rewrite(t *storage.Table, name, op string, gov *governor, fn func(row []value.Value) (bool, error)) (*Result, error) {
	stage := t.EmptyClone()
	n := 0
	var buf []value.Value
	for r := 0; r < t.NumRows(); r++ {
		if (r+1)%govStride == 0 {
			if err := gov.addRows(govStride); err != nil {
				return nil, err
			}
		}
		buf = t.Row(r, buf)
		affected, err := fn(buf)
		if err != nil {
			return nil, err
		}
		if affected {
			n++
			if op == "delete" {
				continue
			}
		}
		if _, err := stage.AppendRow(buf); err != nil {
			return nil, err
		}
	}
	if err := gov.addRows(int64(t.NumRows() % govStride)); err != nil {
		return nil, err
	}
	e.cat.Put(stage)
	e.notifyMutate(name, op)
	return &Result{Affected: n}, nil
}

// execDelete removes the qualifying rows (see rewrite).
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
	var box rowBox
	return e.rewrite(t, d.Table, "delete", ec.gov, func(row []value.Value) (bool, error) {
		if where == nil {
			return true, nil
		}
		box.vals = row
		v, err := where.Eval(&box)
		return v.Truthy(), err
	})
}

// execUpdate handles both the single-table form and the cross-table form
// (UPDATE target FROM other SET … WHERE join), which the paper's
// update-based Vpct strategy generates.
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
		build.gov = ec.gov
	}
	var where expr.Expr
	if cond != nil {
		if where, err = bindExpr(cond, evalSch); err != nil {
			return nil, err
		}
	}
	type boundSet struct {
		col int
		ex  expr.Expr
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

	// assign updates row when the image in box qualifies: every assignment is
	// evaluated against the pre-update image, then applied.
	var box rowBox
	newVals := make([]value.Value, len(sets))
	assign := func(row []value.Value) (bool, error) {
		if where != nil {
			if v, err := where.Eval(&box); err != nil || !v.Truthy() {
				return false, err
			}
		}
		for i, s := range sets {
			v, err := s.ex.Eval(&box)
			if err != nil {
				return false, err
			}
			newVals[i] = v
		}
		for i, s := range sets {
			row[s.col] = newVals[i]
		}
		return true, nil
	}
	if build == nil {
		return e.rewrite(t, u.Table, "update", ec.gov, func(row []value.Value) (bool, error) {
			box.vals = row
			return assign(row)
		})
	}

	// The joined form retains the pre- and post-image of each changed row in a
	// transient journal until the statement completes (the recovery log every
	// ACID engine writes). With the table rewrite this is what makes the paper's
	// UPDATE-based Vpct strategy pay when |FV| is large, and why the paper
	// recommends INSERT instead.
	if err := build.ensure(); err != nil {
		return nil, err
	}
	var journal [][]value.Value
	comb := make([]value.Value, 0, len(evalSch))
	return e.rewrite(t, u.Table, "update", ec.gov, func(row []value.Value) (bool, error) {
		for _, m := range build.probe(row) {
			comb = append(comb[:0], row...)
			for c := 0; c < build.tab.NumCols(); c++ {
				comb = append(comb, build.tab.Get(m, c))
			}
			box.vals = comb
			if hit, err := assign(row); err != nil {
				return false, err
			} else if hit {
				journal = append(journal, slices.Clone(comb[:len(row)]), slices.Clone(row))
				return true, nil // one qualifying match updates the row once
			}
		}
		return false, nil
	})
}
