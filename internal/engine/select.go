package engine

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/sqlparse"
)

// execSelect runs a SELECT and collects its rows into the statement's result,
// as typed columns.
func (e *Engine) execSelect(sel *sqlparse.Select, ec execCtx) (*Result, error) {
	out := &collector{charge: rowCharge{gov: ec.gov}}
	names, err := e.runSelect(sel, ec, out, false)
	if err == nil {
		err = out.charge.settle()
	}
	if err != nil {
		return nil, err
	}
	if ec.inspect != nil {
		ec.inspect.rows = out.res.n
		ec.inspect.analyzed = true
	}
	out.res.Columns = names
	return &out.res, nil
}

// rewriteError is the engine's error for a SELECT it has no operator for —
// GROUP BY ROLLUP/CUBE/GROUPING SETS, an aggregate with a BY list, Vpct or
// Hpct — and nil for one it runs. It is the one rule of what the Rewriter
// evaluates: exec and execExplain hand such a SELECT to the installed
// rewriter, and runSelect rejects it with this error (a bare engine, the
// SELECT of an INSERT).
func rewriteError(sel *sqlparse.Select) error {
	if sel.GroupSets != nil {
		return fmt.Errorf("engine: GROUP BY %s must be rewritten first (see the core package)", sel.GroupSets.Kind.Keyword())
	}
	for _, it := range sel.Items {
		if err := expr.Walk(it.Expr, func(n expr.Expr) error {
			switch a, _ := n.(*expr.AggCall); {
			case a == nil:
			case a.IsHorizontal():
				return fmt.Errorf("engine: %s carries a BY list; percentage/horizontal aggregations must be rewritten first (see the core package)", it.Expr)
			case a.Fn == expr.AggVpct || a.Fn == expr.AggHpct:
				return fmt.Errorf("engine: aggregate %s must be rewritten before execution", a.Fn)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// runSelect plans and runs a SELECT statement into sink, returning its column
// names. The consumer stage pushes its rows straight into sink. Only when a
// later stage needs them all — a dedupe of aggregate output, an ORDER BY that
// could not be applied to the scan, the LIMIT behind either — or the caller
// asks to hold them (an INSERT reading its own target) are they collected as
// columns instead; the tail then hands sink the rows in final order.
//
// ec.par governs the aggregation path only (see fold.go); scans, joins,
// windows, and sorts are unchanged by it. When ec.span is set the whole
// pipeline is instrumented: operators record actual rows and cumulative
// times, and the consumer stage (project / aggregate / window) attaches its
// operator subtree plus any worker fan-out spans to the statement span.
func (e *Engine) runSelect(sel *sqlparse.Select, ec execCtx, sink rowSink, hold bool) ([]string, error) {
	if err := rewriteError(sel); err != nil {
		return nil, err
	}
	in, residualWhere, err := e.buildFrom(sel)
	if err != nil {
		return nil, err
	}
	if residualWhere != nil {
		pred, err := bindExpr(residualWhere, in.schema())
		if err != nil {
			return nil, err
		}
		if expr.HasAggregate(pred) {
			return nil, fmt.Errorf("engine: aggregates are not allowed in WHERE")
		}
		in = &filterIter{child: in, pred: pred}
	}
	if ec.fullSpan() != nil {
		instrumentIter(in)
	}
	if ec.inspect != nil {
		ec.inspect.in = in
	}

	items, err := expandStars(sel.Items, in.schema())
	if err != nil {
		return nil, err
	}
	names := outputNames(items)
	visible := len(items)

	// Resolve the ORDER BY keys to select items. A position addresses a
	// visible item; a name the first output column it matches, or — in a plain,
	// non-DISTINCT select — an input column carried as a hidden trailing item
	// and stripped after sorting. A bad key is reported where the sort runs,
	// after the consumer's own errors.
	isPlain := !hasWindow(items) && len(sel.GroupBy) == 0 && sel.Having == nil && !anyAggregate(items)
	order := make([]int, len(sel.OrderBy))
	var orderErr error
	for i, k := range sel.OrderBy {
		switch order[i] = orderColumnIndex(names, k.Column); {
		case k.Position > visible && orderErr == nil:
			orderErr = fmt.Errorf("engine: ORDER BY position %d out of range", k.Position)
		case k.Position > 0:
			order[i] = k.Position - 1
		case order[i] < 0 && isPlain && !sel.Distinct:
			order[i] = len(items)
			items = append(items, sqlparse.SelectItem{Expr: expr.QCol(k.Qualifier, k.Column), Alias: k.Column})
			names = append(names, k.Column)
		case order[i] < 0 && orderErr == nil:
			orderErr = fmt.Errorf("engine: ORDER BY column %q not in select list", k.Column)
		}
	}

	// Sort-before-project: when a plain select reads one stored table, filtered
	// or not, and orders by its columns, the projection stage sorts the row ids
	// first (and cuts them to the LIMIT), so the hidden columns are not needed
	// and the rows stream like any other scan's.
	var byScan *scanOrder
	ordered, limited, dedupe := len(sel.OrderBy) == 0, sel.Limit == nil, sel.Distinct && !isPlain
	if scan, filter := scanUnderFilter(in); scan != nil && isPlain && !sel.Distinct && !ordered && orderErr == nil {
		if keys := scanSortKeys(scan, items, sel.OrderBy, order); keys != nil {
			byScan = &scanOrder{scan: scan, filter: filter, keys: keys, limit: sel.Limit}
			items, names, ordered, limited = items[:visible], names[:visible], true, true
		}
	}

	keep, target := (*colCollector)(nil), sink
	if hold || dedupe || !ordered || !limited {
		keep = newColCollector(len(items), ec.gov)
		target = keep
	}
	var consumer *obs.Span
	attachOps := true // fold paths attach the operator subtree themselves
	stage := ec
	n := 0
	switch {
	case hasWindow(items):
		consumer = ec.span.NewChild("window")
		stage.span = consumer
		n, err = e.execWindowSelect(sel, items, in, stage, target)
	case !isPlain:
		consumer = ec.span.NewChild("aggregate")
		attachOps = false
		stage.span = consumer
		n, err = e.execGroupSelect(sel, items, in, stage, target)
	case sel.Distinct:
		// DISTINCT is a fold whose keys are the select items and which has
		// no aggregates: nothing is materialized before the dedupe.
		consumer = ec.span.NewChild("distinct")
		attachOps = false
		stage.span = consumer
		var keys []expr.Expr
		if keys, err = bindItems(items, in.schema()); err == nil {
			n, err = hashAggregate(in, keys, nil, stage, target)
		}
	default:
		consumer = ec.span.NewChild("project")
		n, err = e.execPlainSelect(items, in, ec, target, byScan)
	}
	if consumer != nil {
		consumer.End()
		// The appends of the INSERT this stage fed are the insert span's time,
		// a sort of the scan's row ids the sort span's.
		var others time.Duration
		if ins, ok := target.(*insertSink); ok {
			others = ins.elapsed
		}
		var sortSpan *obs.Span
		if byScan != nil && byScan.span != nil {
			sortSpan, others = byScan.span, others+byScan.span.Duration
		}
		consumer.SetDuration(max(consumer.Duration-others, 1))
		consumer.SetRows(-1, int64(n))
		if attachOps {
			consumer.AddChild(operatorSpans(in))
		}
		ec.span.AddChild(sortSpan) // behind the project stage, where a collected sort's is
	}
	if err != nil || keep == nil {
		return names, err
	}

	// The collected tail runs over positions: dedupe, sort and cut them, then
	// gather the rows they name into sink.
	if err := keep.charge.settle(); err != nil {
		return nil, err
	}
	perm, err := positions(keep.n)
	if err == nil && dedupe {
		// Aggregate and window output dedupes once it is all there, so the
		// stage's own errors come first.
		sp := ec.span.NewChild("distinct")
		n := len(perm)
		perm, err = keep.distinct(perm, ec.gov)
		sp.End()
		if err == nil {
			sp.SetRows(int64(n), int64(len(perm)))
		}
	}
	if err == nil && !ordered {
		sp := ec.span.NewChild("sort")
		if err = orderErr; err == nil {
			keys := make([]sortKey, len(order))
			for i, item := range order {
				keys[i] = columnKey(&keep.vecs[item], sel.OrderBy[i].Desc)
			}
			sortPerm(perm, keys)
			sp.SetRows(int64(len(perm)), int64(len(perm)))
		} else {
			sp.Attr("error", err.Error())
		}
		sp.End()
	}
	if err != nil {
		return nil, err
	}
	if !limited {
		perm = perm[:min(*sel.Limit, len(perm))]
	}
	if res, ok := sink.(*collector); ok {
		// The result takes the rows whole; the tail charged them as it kept them.
		res.take(keep.vecs[:visible], keep.out[:visible], perm)
		return names[:visible], nil
	}
	return names[:visible], keep.emit(perm, visible, sink, ec.gov)
}

// scanOrder is a sort-before-project: the scan whose row ids are sorted — the
// ones filter admits, when there is one — the keys, the LIMIT, and the sort's
// span once it ran.
type scanOrder struct {
	scan   *tableScan
	filter *filterIter
	keys   []sortKey
	limit  *int
	span   *obs.Span
}

// scanUnderFilter reports the scan in reads when in is a scan of a stored
// table, bare or under one filter.
func scanUnderFilter(in planNode) (*tableScan, *filterIter) {
	filter, _ := in.(*filterIter)
	if filter != nil {
		in = filter.child
	}
	if scan, ok := in.(*tableScan); ok {
		return scan, filter
	}
	return nil, nil
}

// scanSortKeys returns the sort keys of an ORDER BY whose every key item is
// a bare column of the table scan reads, read off the column vectors; nil
// when some key is computed.
func scanSortKeys(scan *tableScan, items []sqlparse.SelectItem, by []sqlparse.OrderKey, order []int) []sortKey {
	keys := make([]sortKey, len(order))
	for i, item := range order {
		b, err := bindExpr(items[item].Expr, scan.sch)
		cr, ok := b.(*expr.ColumnRef)
		if err != nil || !ok {
			return nil
		}
		keys[i] = columnKey(scan.tab.Column(cr.Index), by[i].Desc)
	}
	return keys
}

// sorted runs the sort: it selects the row ids the filter admits through the
// selection kernels (selectRows), sorts them, cuts them to the LIMIT and
// returns the scan that visits them in order. The filter's pass is the
// statement's scan of the table; the ordered visit is not counted again.
func (o *scanOrder) sorted(ec execCtx) (*tableScan, error) {
	scan := o.scan
	var ids []int32
	var err error
	if o.filter == nil {
		ids, err = positions(scan.tab.NumRows())
	} else {
		t0 := time.Now()
		ids, err = selectRows(scan.tab, o.filter.pred, ec.gov)
		if err == nil && scan.stats != nil {
			ns := time.Since(t0).Nanoseconds()
			*scan.stats = opStats{ns: ns, rows: int64(scan.tab.NumRows())}
			*o.filter.stats = opStats{ns: ns, rows: int64(len(ids))}
		}
	}
	if err != nil {
		return nil, err
	}
	if ec.span != nil {
		o.span = obs.NewSpan("sort")
	}
	sortPerm(ids, o.keys)
	o.span.End()
	o.span.SetRows(int64(len(ids)), int64(len(ids)))
	if o.limit != nil {
		ids = ids[:min(*o.limit, len(ids))]
	}
	if o.filter == nil {
		scan.order = ids
		return scan, nil
	}
	if ids == nil {
		ids = []int32{} // a selection of none: a nil order would visit every row
	}
	return &tableScan{tab: scan.tab, sch: scan.sch, order: ids, counted: true}, nil
}

// orderColumnIndex finds a named column in the output list, or -1.
func orderColumnIndex(names []string, col string) int {
	for j, n := range names {
		if strings.EqualFold(n, col) {
			return j
		}
	}
	return -1
}

// buildFrom assembles the FROM plan and returns its root plus the WHERE
// conjuncts not consumed as join conditions.
func (e *Engine) buildFrom(sel *sqlparse.Select) (planNode, expr.Expr, error) {
	if len(sel.From) == 0 {
		return &valuesNode{}, sel.Where, nil
	}
	first := sel.From[0]
	t, err := e.tableFor(first.Table.Name)
	if err != nil {
		return nil, nil, err
	}
	var cur planNode = newTableScan(t, first.Table.RefName())

	var whereConjuncts []expr.Expr
	if sel.Where != nil {
		whereConjuncts = splitConjuncts(sel.Where)
	}

	for _, fe := range sel.From[1:] {
		rt, err := e.tableFor(fe.Table.Name)
		if err != nil {
			return nil, nil, err
		}
		alias := fe.Table.RefName()
		rightSch := schemaOf(rt, alias)

		switch fe.Join {
		case sqlparse.JoinCross:
			// Pull equijoin conditions out of WHERE.
			pairs, residual := extractEquiPairs(whereConjuncts, cur.schema(), rightSch)
			whereConjuncts = residual
			if len(pairs) == 0 {
				cur = newNestedLoopJoin(cur, newTableScan(rt, alias), nil, false)
				continue
			}
			cur = newHashJoin(cur, rt, alias, pairs, false)

		case sqlparse.JoinInner, sqlparse.JoinLeftOuter:
			outer := fe.Join == sqlparse.JoinLeftOuter
			onConjuncts := splitConjuncts(fe.On)
			pairs, residual := extractEquiPairs(onConjuncts, cur.schema(), rightSch)
			if len(pairs) == 0 || (outer && len(residual) > 0) {
				// Fallback: evaluate the full ON predicate row by row.
				combined := append(append(relSchema{}, cur.schema()...), rightSch...)
				pred, err := bindExpr(fe.On, combined)
				if err != nil {
					return nil, nil, err
				}
				cur = newNestedLoopJoin(cur, newTableScan(rt, alias), pred, outer)
				continue
			}
			cur = newHashJoin(cur, rt, alias, pairs, outer)
			if len(residual) > 0 {
				pred, err := bindExpr(andAll(residual), cur.schema())
				if err != nil {
					return nil, nil, err
				}
				cur = &filterIter{child: cur, pred: pred}
			}
		}
	}
	return cur, andAll(whereConjuncts), nil
}

// expandStars replaces * items with one reference per input column.
func expandStars(items []sqlparse.SelectItem, sch relSchema) ([]sqlparse.SelectItem, error) {
	var out []sqlparse.SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		for _, c := range sch {
			out = append(out, sqlparse.SelectItem{
				Expr:  expr.QCol(c.Qualifier, c.Name),
				Alias: c.Name,
			})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("engine: empty select list")
	}
	return out, nil
}

// outputNames derives result column names: alias, bare column name, or the
// expression text.
func outputNames(items []sqlparse.SelectItem) []string {
	names := make([]string, len(items))
	for i, it := range items {
		switch {
		case it.Alias != "":
			names[i] = it.Alias
		default:
			if c, ok := it.Expr.(*expr.ColumnRef); ok {
				names[i] = c.Name
			} else {
				names[i] = it.Expr.String()
			}
		}
	}
	return names
}

func anyAggregate(items []sqlparse.SelectItem) bool {
	for _, it := range items {
		if expr.HasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

func hasWindow(items []sqlparse.SelectItem) bool {
	found := false
	for _, it := range items {
		_ = expr.Walk(it.Expr, func(n expr.Expr) error {
			if a, ok := n.(*expr.AggCall); ok && a.Over != nil {
				found = true
			}
			return nil
		})
	}
	return found
}

// bindItems binds the select items against the input schema.
func bindItems(items []sqlparse.SelectItem, sch relSchema) ([]expr.Expr, error) {
	bound := make([]expr.Expr, len(items))
	for i, it := range items {
		b, err := bindExpr(it.Expr, sch)
		if err != nil {
			return nil, err
		}
		bound[i] = b
	}
	return bound, nil
}

// execPlainSelect projects items over the tuples of in into sink and returns
// the row count. byScan, when set, has the row ids sorted first.
func (e *Engine) execPlainSelect(items []sqlparse.SelectItem, in planNode, ec execCtx, sink rowSink, byScan *scanOrder) (int, error) {
	bound, err := bindItems(items, in.schema())
	if err != nil {
		return 0, err
	}
	proj := newProjector(bound, nil, sink)
	if byScan != nil {
		if in, err = byScan.sorted(ec); err != nil {
			return 0, err
		}
	}
	if ec.ref != nil {
		return ec.ref.project(in, proj, ec)
	}
	p := newPipeline(in)
	if len(p.stages) == 0 {
		proj.reserve(p.count()) // an unfiltered scan knows its row count
	}
	err = p.drain(ec.gov, proj, proj.ops)
	return proj.n, err
}

// execGroupSelect runs hash aggregation and projects items over group rows
// into sink, returning the row count. ec.span is the aggregate stage span; the
// parallel path attaches its worker fan-out and merge spans to it.
func (e *Engine) execGroupSelect(sel *sqlparse.Select, items []sqlparse.SelectItem, in planNode, ec execCtx, sink rowSink) (int, error) {
	inSch := in.schema()

	// Resolve group keys to bound expressions over the input schema.
	keyExprs := make([]expr.Expr, len(sel.GroupBy))
	// keyOfItem maps a select item named by GROUP BY position to its key
	// slot: the item may be any expression, so it projects from the slot
	// instead of being rebound column by column.
	keyOfItem := make(map[int]int)
	for i, g := range sel.GroupBy {
		var raw expr.Expr
		if g.Position > 0 {
			if g.Position > len(items) {
				return 0, fmt.Errorf("engine: GROUP BY position %d out of range", g.Position)
			}
			raw = items[g.Position-1].Expr
			if expr.HasAggregate(raw) {
				return 0, fmt.Errorf("engine: GROUP BY position %d refers to an aggregate", g.Position)
			}
			keyOfItem[g.Position-1] = i
		} else {
			raw = expr.QCol(g.Qualifier, g.Column)
		}
		b, err := bindExpr(raw, inSch)
		if err != nil {
			return 0, err
		}
		keyExprs[i] = b
	}

	specs, slotOf, err := collectAggSpecs(items, sel.Having, inSch)
	if err != nil {
		return 0, err
	}

	// Rebind item expressions over the group-row layout:
	// [key0..keyK-1, agg0..aggM-1].
	rebind := func(root expr.Expr) (expr.Expr, error) {
		return expr.Transform(root, func(n expr.Expr) (expr.Expr, error) {
			if call, ok := n.(*expr.AggCall); ok {
				return &expr.SlotRef{Index: len(keyExprs) + slotOf[call], Label: call.String()}, nil
			}
			cr, ok := n.(*expr.ColumnRef)
			if !ok {
				return n, nil
			}
			idx, err := inSch.resolve(cr.Qualifier, cr.Name)
			if err != nil {
				return nil, err
			}
			for k, ke := range keyExprs {
				if kc, ok := ke.(*expr.ColumnRef); ok && kc.Index == idx {
					return &expr.SlotRef{Index: k, Label: cr.Name}, nil
				}
			}
			// Expression keys: match by rendered text.
			bc, err := bindExpr(cr, inSch)
			if err != nil {
				return nil, err
			}
			for k, ke := range keyExprs {
				if ke.String() == bc.String() {
					return &expr.SlotRef{Index: k, Label: cr.Name}, nil
				}
			}
			return nil, fmt.Errorf("engine: column %s must appear in GROUP BY or inside an aggregate", cr)
		})
	}

	projected := make([]expr.Expr, len(items))
	for i, it := range items {
		if k, ok := keyOfItem[i]; ok {
			projected[i] = &expr.SlotRef{Index: k, Label: it.Expr.String()}
			continue
		}
		p, err := rebind(it.Expr)
		if err != nil {
			return 0, err
		}
		projected[i] = p
	}
	var having expr.Expr
	if sel.Having != nil {
		having, err = rebind(sel.Having)
		if err != nil {
			return 0, err
		}
	}

	proj := newProjector(projected, having, sink)
	_, err = hashAggregate(in, keyExprs, specs, ec, proj)
	return proj.n, err
}

// collectAggSpecs gathers the aggregate calls of a select list and HAVING
// clause and binds their arguments over the input schema. Textually identical
// calls share one accumulator slot — percentage plans repeat sum(A) in every
// CASE column and would otherwise fold it N times per row. slotOf maps each
// call node to its slot.
func collectAggSpecs(items []sqlparse.SelectItem, having expr.Expr, inSch relSchema) ([]aggSpec, map[*expr.AggCall]int, error) {
	var specs []aggSpec
	slotOf := make(map[*expr.AggCall]int)
	slotByText := make(map[string]int)
	collect := func(root expr.Expr) error {
		return expr.Walk(root, func(n expr.Expr) error {
			call, ok := n.(*expr.AggCall)
			if !ok {
				return nil
			}
			if _, dup := slotOf[call]; dup {
				return nil
			}
			text := call.String()
			if slot, dup := slotByText[text]; dup {
				slotOf[call] = slot
				return nil
			}
			spec := aggSpec{call: call}
			if call.Arg != nil {
				b, err := bindExpr(call.Arg, inSch)
				if err != nil {
					return err
				}
				if expr.HasAggregate(b) {
					return fmt.Errorf("engine: nested aggregate in %s", call)
				}
				spec.arg = b
			}
			slotOf[call] = len(specs)
			slotByText[text] = len(specs)
			specs = append(specs, spec)
			return nil
		})
	}
	for _, it := range items {
		if err := collect(it.Expr); err != nil {
			return nil, nil, err
		}
	}
	if having != nil {
		if err := collect(having); err != nil {
			return nil, nil, err
		}
	}
	return specs, slotOf, nil
}

// windowPart is one distinct PARTITION BY list of a window select: its
// columns, and the calls over it (slots[i] is the position of specs[i] among
// all the statement's calls).
type windowPart struct {
	cols  []int
	keys  []expr.Expr
	slots []int
	specs []aggSpec
}

// execWindowSelect evaluates ANSI OLAP window aggregates: the input's tuples
// are collected once, the calls over one PARTITION BY list are one fold of
// them keyed on the partition columns — the fold every GROUP BY runs, so a
// window sums in the order GROUP BY does — whose group results are collected
// as columns in group-id order, and each batch of tuples is then projected
// extended with the results of its partitions: each tuple's key looked up,
// never inserted, in the fold's own group table, and the results gathered by
// the group ids found. This is how the paper's OLAP-extension baseline
// evaluates percentage queries — and why it is expensive whatever the
// engine: the full detail relation flows through, and DISTINCT collapses it
// afterwards.
func (e *Engine) execWindowSelect(sel *sqlparse.Select, items []sqlparse.SelectItem, in planNode, ec execCtx, sink rowSink) (int, error) {
	if len(sel.GroupBy) > 0 || sel.Having != nil {
		return 0, fmt.Errorf("engine: window aggregates cannot be combined with GROUP BY")
	}
	inSch := in.schema()
	specs, slotOf, err := collectAggSpecs(items, nil, inSch)
	if err != nil {
		return 0, err
	}
	var parts []*windowPart
	byCols := make(map[string]*windowPart)
	for slot, s := range specs {
		if s.call.Over == nil {
			return 0, fmt.Errorf("engine: plain aggregate %s mixed with window aggregates", s.call)
		}
		p := &windowPart{}
		for _, c := range s.call.Over.PartitionBy {
			idx, err := inSch.resolve("", c)
			if err != nil {
				return 0, err
			}
			p.cols, p.keys = append(p.cols, idx), append(p.keys, expr.BoundCol(c, idx))
		}
		if same, ok := byCols[fmt.Sprint(p.cols)]; ok {
			p = same
		} else {
			byCols[fmt.Sprint(p.cols)], parts = p, append(parts, p)
		}
		p.slots, p.specs = append(p.slots, slot), append(p.specs, s)
	}

	// Rebind items over [input row .. window slots].
	w := len(inSch)
	projected := make([]expr.Expr, len(items))
	for i, it := range items {
		p, err := expr.Transform(it.Expr, func(n expr.Expr) (expr.Expr, error) {
			if call, ok := n.(*expr.AggCall); ok {
				return &expr.SlotRef{Index: w + slotOf[call], Label: call.String()}, nil
			}
			return n, nil
		})
		if err != nil {
			return 0, err
		}
		if projected[i], err = bindExpr(p, inSch); err != nil {
			return 0, err
		}
	}
	proj := newProjector(projected, nil, sink)
	if ec.ref != nil {
		err := ec.ref.window(in, parts, ec, proj)
		return proj.n, err
	}

	pipe := newPipeline(in)
	input, err := pipe.collect(ec.gov)
	if err != nil {
		return 0, err
	}
	held := &pipeline{sch: pipe.sch, held: input, tabs: pipe.tabs, outer: pipe.outer}
	folds, results := make([]*foldPart, len(parts)), make([]*colCollector, len(parts))
	for i, p := range parts {
		part, err := runFold(held, p.keys, p.specs, ec)
		res := newColCollector(len(p.keys)+len(p.specs), ec.gov)
		if err == nil {
			var n int
			n, err = part.op.emit(part, ec.gov, res)
			mGroupsEmitted.Add(int64(n))
		}
		if err == nil {
			err = res.charge.settle()
		}
		if err != nil {
			return 0, err
		}
		folds[i], results[i] = part, res
	}
	ext := newVectors(len(specs))
	look := &foldWorker{gid: make([]int32, batchSize)}
	proj.reserve(input.n)
	err = held.drain(ec.gov, sinkFunc(func(b *tupleBatch) error {
		n := b.rows()
		for i, p := range parts {
			f := folds[i]
			look.op = f.op
			if err := look.resolve(&f.op.keys, &f.tab, b, 0, n, look.gid, false); err != nil {
				return err
			}
			for s, slot := range p.slots {
				ext[slot].Gather(&results[i].vecs[len(p.keys)+s], look.gid[:n])
			}
		}
		b.ext = ext
		return proj.consume(b)
	}), proj.ops)
	return proj.n, err
}
