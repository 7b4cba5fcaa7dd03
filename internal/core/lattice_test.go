package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
)

// TestLatticeFinestBlockEqualsGroupBy: the finest node of a ROLLUP or CUBE
// is the plain GROUP BY over the same dimensions, so the first block of the
// cross-tab result must equal the plain query's result for the same select
// list — the lattice and the plain planners instantiate one generator. The
// data carries NULL keys, a group summing to zero and a NULL-only group.
func TestLatticeFinestBlockEqualsGroupBy(t *testing.T) {
	newPlanner := func() *Planner {
		eng := engine.New(storage.NewCatalog())
		mustExec(t, eng, "CREATE TABLE f (d1 INTEGER, d2 VARCHAR, a INTEGER)")
		mustExec(t, eng, `INSERT INTO f VALUES
			(1,'x',10), (1,'y',30), (1,'x',2),
			(2,'x',5), (2,'y',-5),
			(NULL,'x',7), (NULL,'y',3),
			(3,NULL,4), (3,'x',6),
			(4,'x',NULL), (4,'y',NULL)`)
		return NewPlanner(eng)
	}
	cases := []struct{ name, sel, dims string }{
		{"vpct", "d1, d2, Vpct(a BY d2), sum(a), count(*)", "d1, d2"},
		{"vpct two terms", "d1, d2, Vpct(a BY d2), Vpct(a), min(a), max(a)", "d1, d2"},
		{"hpct", "d1, Hpct(a BY d2), sum(a), count(a)", "d1"},
	}
	for _, c := range cases {
		plain := runQuery(t, newPlanner(), "SELECT "+c.sel+" FROM f GROUP BY "+c.dims, DefaultOptions())
		if len(plain.Rows) == 0 {
			t.Fatalf("%s: plain query returned no rows", c.name)
		}
		for _, kw := range []string{"ROLLUP", "CUBE"} {
			cube := runQuery(t, newPlanner(), "SELECT "+c.sel+" FROM f GROUP BY "+kw+"("+c.dims+")", DefaultOptions())
			if len(cube.Rows) <= len(plain.Rows) {
				t.Fatalf("%s %s: %d rows, want more than the finest block's %d", c.name, kw, len(cube.Rows), len(plain.Rows))
			}
			finest := &engine.Result{Columns: cube.Columns, Rows: cube.Rows[:len(plain.Rows)]}
			sameResults(t, c.name+" "+kw, plain, finest)
		}
	}
}

// TestCubePastTheNodeCapIsRefused: a CUBE whose 2^k nodes pass
// maxLatticeNodes is refused at planning, and the lint's static expansion
// gives up on it, without either spelling out 2^k grouping sets — over 40
// dimensions that would be 2^40.
func TestCubePastTheNodeCapIsRefused(t *testing.T) {
	schema := make(storage.Schema, 40)
	dims := make([]string, len(schema))
	for i := range schema {
		dims[i] = fmt.Sprintf("c%d", i+1)
		schema[i] = storage.ColumnDef{Name: dims[i], Type: storage.TypeInt}
	}
	cat := storage.NewCatalog()
	if _, err := cat.Create("wide", schema); err != nil {
		t.Fatal(err)
	}
	p := NewPlanner(engine.New(cat))
	for _, k := range []int{9, 40} {
		list := strings.Join(dims[:k], ", ")
		sql := "SELECT " + list + ", count(*) FROM wide GROUP BY CUBE(" + list + ")"
		if _, err := p.PlanSQL(sql, DefaultOptions()); err == nil || !strings.Contains(err.Error(), "more than 256 grouping sets") {
			t.Errorf("CUBE over %d dimensions: err = %v, want the node cap", k, err)
		}
		sel, err := parseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		if sets := staticGroupingSets(sel); sets != nil {
			t.Errorf("CUBE over %d dimensions: static expansion gave %d sets, want none", k, len(sets))
		}
	}
}
