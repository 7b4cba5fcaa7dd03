package sqlparse

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestRandomQueryRoundTrip generates random queries from a grammar covering
// the full SQL surface and checks that Parse(stmt.String()).String() is a
// fixed point — the property the code generator relies on, since every
// generated statement is rendered, reparsed, and executed.
func TestRandomQueryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	cols := []string{"d1", "d2", "d3", "a", "b"}
	col := func() string { return cols[rng.Intn(len(cols))] }

	var randExpr func(depth int) string
	randExpr = func(depth int) string {
		if depth <= 0 {
			switch rng.Intn(4) {
			case 0:
				return col()
			case 1:
				return fmt.Sprintf("%d", rng.Intn(100))
			case 2:
				return fmt.Sprintf("%.2f", rng.Float64()*10)
			default:
				return "'s" + fmt.Sprint(rng.Intn(5)) + "'"
			}
		}
		switch rng.Intn(9) {
		case 0:
			return "(" + randExpr(depth-1) + " + " + randExpr(depth-1) + ")"
		case 1:
			return "(" + randExpr(depth-1) + " * " + randExpr(depth-1) + ")"
		case 2:
			return "(" + randExpr(depth-1) + " = " + randExpr(depth-1) + ")"
		case 3:
			return "(" + col() + " IS NULL)"
		case 4:
			return "CASE WHEN " + randExpr(depth-1) + " THEN " + randExpr(depth-1) + " ELSE " + randExpr(depth-1) + " END"
		case 5:
			return "coalesce(" + randExpr(depth-1) + ", " + randExpr(depth-1) + ")"
		case 6:
			return "(" + col() + " IN (1, 2, 3))"
		case 7:
			return "(" + col() + " BETWEEN 1 AND 9)"
		default:
			return "(" + col() + " LIKE 'x%')"
		}
	}

	randAgg := func() string {
		switch rng.Intn(6) {
		case 0:
			return "sum(" + randExpr(1) + ")"
		case 1:
			return "count(*)"
		case 2:
			return "count(DISTINCT " + col() + ")"
		case 3:
			return "vpct(" + col() + " BY " + col() + ")"
		case 4:
			return "hpct(" + col() + " BY " + col() + ")"
		default:
			return "max(1 BY " + col() + " DEFAULT 0)"
		}
	}

	for trial := 0; trial < 300; trial++ {
		var sb strings.Builder
		sb.WriteString("SELECT ")
		nItems := 1 + rng.Intn(3)
		for i := 0; i < nItems; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			if rng.Intn(2) == 0 {
				sb.WriteString(randAgg())
			} else {
				sb.WriteString(randExpr(2))
			}
			if rng.Intn(4) == 0 {
				sb.WriteString(fmt.Sprintf(" AS alias%d", i))
			}
		}
		sb.WriteString(" FROM f")
		if rng.Intn(2) == 0 {
			sb.WriteString(" WHERE " + randExpr(2))
		}
		if rng.Intn(2) == 0 {
			sb.WriteString(" GROUP BY " + col() + ", " + col())
		}
		if rng.Intn(3) == 0 {
			sb.WriteString(" ORDER BY 1")
			if rng.Intn(2) == 0 {
				sb.WriteString(" DESC")
			}
		}
		if rng.Intn(4) == 0 {
			sb.WriteString(fmt.Sprintf(" LIMIT %d", rng.Intn(50)))
		}
		src := sb.String()

		s1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		text1 := s1.String()
		s2, err := Parse(text1)
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", text1, err)
		}
		if text2 := s2.String(); text2 != text1 {
			t.Fatalf("round trip not a fixed point:\n  in   %s\n  out1 %s\n  out2 %s", src, text1, text2)
		}
	}
}

// TestLexerRobustness throws byte noise at the lexer: it must error or
// tokenize, never panic or loop.
func TestLexerRobustness(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	alphabet := []byte("SELECT sum vpct BY ,()'\"%_;.*/-<>=! \n\tabc019")
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(60)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = alphabet[rng.Intn(len(alphabet))]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on input %q: %v", buf, r)
				}
			}()
			_, _ = ParseAll(string(buf))
		}()
	}
}
