package difftest

import (
	"testing"

	"repro/internal/core"
	"repro/internal/value"
)

// fuzzCubeRows decodes fuzz bytes into rows of f(d1, d2, d3, a): two bytes
// per row, with high bits of the first byte injecting NULLs into a
// dimension or the measure so rolled-away NULLs and data NULLs coexist.
func fuzzCubeRows(data []byte) [][]value.Value {
	strs := []string{"x", "y", "z"}
	var rows [][]value.Value
	for i := 0; i+1 < len(data) && len(rows) < 64; i += 2 {
		b0, b1 := data[i], data[i+1]
		row := []value.Value{
			value.NewInt(int64(b0 % 3)),
			value.NewInt(int64((b0 >> 2) % 4)),
			value.NewString(strs[b1%3]),
			value.NewInt(int64(b1) - 128),
		}
		if b0&0x80 != 0 {
			row[3] = value.Null
		}
		if b0&0x40 != 0 {
			row[i/2%2] = value.Null // alternate NULLing d1 and d2
		}
		rows = append(rows, row)
	}
	return rows
}

// FuzzCubeEquivalence checks the lattice planner's defining identity:
// GROUP BY CUBE(d1, d2) is byte-identical to GROUP BY GROUPING SETS
// listing its four subsets finest-first — same rows, same order, same
// kinds — for arbitrary data including NULL dimensions and measures, with
// and without the summary cache.
func FuzzCubeEquivalence(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x05, 0x22, 0x0a, 0x91})
	f.Add([]byte{0x80, 0x00, 0x40, 0x7f, 0xc0, 0x80, 0x01, 0x01}) // NULL measure + NULL dims
	f.Add([]byte{0x06, 0x80, 0x06, 0x80})                         // same group twice, negative measure
	f.Add([]byte{})                                               // empty table
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := fuzzCubeRows(data)
		const cube = "SELECT d1, d2, Vpct(a BY d2), sum(a), GROUPING(d1, d2) FROM f GROUP BY CUBE(d1, d2)"
		const sets = "SELECT d1, d2, Vpct(a BY d2), sum(a), GROUPING(d1, d2) FROM f " +
			"GROUP BY GROUPING SETS ((d1, d2), (d1), (d2), ())"
		for _, share := range []bool{false, true} {
			pc := PlannerFor(t, rows)
			ps := PlannerFor(t, rows)
			if share {
				pc.ShareSummaries(true)
				ps.ShareSummaries(true)
			}
			want, err := Run(pc, cube, core.DefaultOptions(), 1)
			if err != nil {
				t.Fatalf("cube (share=%v): %v", share, err)
			}
			got, err := Run(ps, sets, core.DefaultOptions(), 1)
			if err != nil {
				t.Fatalf("grouping sets (share=%v): %v", share, err)
			}
			if diff := Equal(want, got); diff != "" {
				t.Fatalf("CUBE vs explicit GROUPING SETS (share=%v): %s\nrows:\n%s",
					share, diff, DumpRows("f", RandSchema, rows))
			}
		}
	})
}
