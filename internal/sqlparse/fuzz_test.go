package sqlparse

import "testing"

// FuzzParseRoundTrip throws arbitrary text at the parser: it must error or
// produce an AST, never panic or loop — and any statement it accepts must
// render to a fixed point (Parse(stmt.String()).String() == stmt.String()),
// the property the planner's generated-SQL pipeline relies on.
func FuzzParseRoundTrip(f *testing.F) {
	f.Add("SELECT state, city, Vpct(salesAmt BY city) FROM sales GROUP BY state, city")
	f.Add("SELECT a, Hpct(amt BY b) FROM f GROUP BY a ORDER BY 1 DESC LIMIT 3")
	f.Add("SELECT a FROM f ORDER BY a LIMIT 0") // LIMIT 0 is a clause, not "no limit"
	f.Add("SELECT d1, d2, sum(a), GROUPING(d1, d2) FROM f GROUP BY ROLLUP(d1, d2)")
	f.Add("SELECT d1, d2, Vpct(a BY d2) FROM f GROUP BY CUBE(d1, d2)")
	f.Add("SELECT d1, d3, sum(a) FROM f GROUP BY GROUPING SETS ((d1, d3), (d1), ())")
	f.Add("SELECT a FROM f GROUP BY GROUPING SETS ((), (), (a))")
	f.Add("SELECT a FROM f GROUP BY ROLLUP (a, ") // unterminated set list
	f.Add("SELECT GROUPING() FROM f GROUP BY CUBE(a)")
	f.Add("INSERT INTO f VALUES (1, NULL, 'it''s'), (2, -3, 'x')")
	f.Add("UPDATE f SET a = a + 1 WHERE b IN (1, 2) AND c BETWEEN 'a' AND 'z'")
	f.Add("EXPLAIN ANALYZE SELECT count(*) FROM f")
	f.Add("SELECT ,;;( FROM")
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := ParseAll(src)
		if err != nil {
			return
		}
		for _, s := range stmts {
			text1 := s.String()
			s2, err := Parse(text1)
			if err != nil {
				t.Fatalf("accepted %q but rendered form does not reparse: %v\nrendered: %s", src, err, text1)
			}
			if text2 := s2.String(); text2 != text1 {
				t.Fatalf("round trip not a fixed point:\n  in   %s\n  out1 %s\n  out2 %s", src, text1, text2)
			}
		}
	})
}
