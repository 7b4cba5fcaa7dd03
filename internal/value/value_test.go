package value

import (
	"math"
	"strings"
	"testing"
)

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatal("zero Value must be NULL")
	}
	if v.Kind() != KindNull {
		t.Fatalf("zero Value kind = %v, want KindNull", v.Kind())
	}
	if v.String() != "NULL" {
		t.Fatalf("NULL renders as %q", v.String())
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if got := NewInt(42).Int(); got != 42 {
		t.Errorf("NewInt(42).Int() = %d", got)
	}
	if got := NewFloat(2.5).Float(); got != 2.5 { // floateq:ok exact expected value
		t.Errorf("NewFloat(2.5).Float() = %v", got)
	}
	if got := NewString("abc").Str(); got != "abc" {
		t.Errorf("NewString(abc).Str() = %q", got)
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("NewBool round trip failed")
	}
	if NewInt(7).Float() != 7.0 { // floateq:ok exact expected value
		t.Error("Float() must widen ints")
	}
}

func TestAccessorPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"Int on string", func() { NewString("x").Int() }},
		{"Float on string", func() { NewString("x").Float() }},
		{"Str on int", func() { NewInt(1).Str() }},
		{"Bool on int", func() { NewInt(1).Bool() }},
		{"Float on null", func() { Null.Float() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			c.fn()
		})
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewInt(-5), "-5"},
		{NewFloat(0.5), "0.5"},
		{NewString("hi"), "hi"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{Null, "NULL"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.Kind(), got, c.want)
		}
	}
}

func TestAsFloatAsInt(t *testing.T) {
	if f, ok := NewInt(3).AsFloat(); !ok || f != 3 { // floateq:ok exact expected value
		t.Error("AsFloat on int failed")
	}
	if f, ok := NewFloat(3.5).AsFloat(); !ok || f != 3.5 { // floateq:ok exact expected value
		t.Error("AsFloat on float failed")
	}
	if _, ok := Null.AsFloat(); ok {
		t.Error("AsFloat on NULL must fail")
	}
	if _, ok := NewString("3").AsFloat(); ok {
		t.Error("AsFloat must not parse strings")
	}
	if i, ok := NewFloat(3.9).AsInt(); !ok || i != 3 {
		t.Error("AsInt must truncate floats")
	}
}

func TestTruthy(t *testing.T) {
	truthy := []Value{NewBool(true), NewInt(1), NewInt(-2), NewFloat(0.1)}
	falsy := []Value{NewBool(false), NewInt(0), NewFloat(0), Null, NewString("t")}
	for _, v := range truthy {
		if !v.Truthy() {
			t.Errorf("%v should be truthy", v)
		}
	}
	for _, v := range falsy {
		if v.Truthy() {
			t.Errorf("%v should not be truthy", v)
		}
	}
}

func TestCoerce(t *testing.T) {
	if v, err := coerce(NewInt(3), KindFloat); err != nil || v.Float() != 3 { // floateq:ok exact expected value
		t.Errorf("int→float: %v %v", v, err)
	}
	if v, err := coerce(NewFloat(4), KindInt); err != nil || v.Int() != 4 {
		t.Errorf("float→int exact: %v %v", v, err)
	}
	if _, err := coerce(NewFloat(4.5), KindInt); err == nil {
		t.Error("lossy float→int must error")
	}
	if _, err := coerce(NewFloat(math.NaN()), KindInt); err == nil {
		t.Error("NaN→int must error")
	}
	if v, err := coerce(NewString("12"), KindInt); err != nil || v.Int() != 12 {
		t.Errorf("string→int: %v %v", v, err)
	}
	if v, err := coerce(NewString("1.5"), KindFloat); err != nil || v.Float() != 1.5 { // floateq:ok exact expected value
		t.Errorf("string→float: %v %v", v, err)
	}
	if _, err := coerce(NewString("xyz"), KindFloat); err == nil {
		t.Error("bad string→float must error")
	}
	if v, err := coerce(Null, KindInt); err != nil || !v.IsNull() {
		t.Error("NULL must coerce to NULL")
	}
	if v, err := coerce(NewInt(7), KindString); err != nil || v.Str() != "7" {
		t.Errorf("int→string: %v %v", v, err)
	}
	if _, err := coerce(NewBool(true), KindInt); err == nil {
		t.Error("bool→int has no standard cast here")
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []Kind{KindNull, KindInt, KindFloat, KindString, KindBool} {
		if s := k.String(); s == "" || strings.HasPrefix(s, "Kind(") {
			t.Errorf("Kind %d has no name", k)
		}
	}
	if !strings.HasPrefix(Kind(99).String(), "Kind(") {
		t.Error("unknown kind should render as Kind(n)")
	}
}
