// Package value implements the SQL value model used throughout the engine:
// dynamically typed scalar values (64-bit integers, 64-bit floats, strings
// and booleans) with a first-class NULL, three-valued comparison logic,
// arithmetic with SQL null-propagation semantics, and an order-preserving
// binary key encoding used by hash aggregation, hash joins and indexes.
package value

import (
	"fmt"
	"math"
	"strconv"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// The supported value kinds. KindNull is the zero value so that the zero
// Value is SQL NULL.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "REAL"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL scalar. The zero Value is NULL. Values are small
// (one word of header plus the string header) and are passed by value.
type Value struct {
	kind Kind
	i    int64 // integer payload; booleans use 0/1
	f    float64
	s    string
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{kind: KindInt, i: i} }

// NewFloat returns a floating-point value.
func NewFloat(f float64) Value { return Value{kind: KindFloat, f: f} }

// NewString returns a string value.
func NewString(s string) Value { return Value{kind: KindString, s: s} }

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.i = 1
	}
	return v
}

// Kind reports the value's runtime kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsNumeric reports whether the value is an integer or a float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Int returns the integer payload. It panics unless Kind is KindInt or
// KindBool.
func (v Value) Int() int64 {
	if v.kind != KindInt && v.kind != KindBool {
		panic(fmt.Sprintf("value: Int() on %s", v.kind))
	}
	return v.i
}

// Float returns the numeric payload widened to float64. It panics unless the
// value is numeric.
func (v Value) Float() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindFloat:
		return v.f
	default:
		panic(fmt.Sprintf("value: Float() on %s", v.kind))
	}
}

// Str returns the string payload. It panics unless Kind is KindString.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("value: Str() on %s", v.kind))
	}
	return v.s
}

// Bool returns the boolean payload. It panics unless Kind is KindBool.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("value: Bool() on %s", v.kind))
	}
	return v.i != 0
}

// String renders the value the way a result printer would: NULL for null,
// bare literals otherwise.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("Value(kind=%d)", uint8(v.kind))
	}
}

// AsFloat converts any numeric value to float64, reporting ok=false for
// NULL and non-numeric kinds.
func (v Value) AsFloat() (f float64, ok bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	default:
		return 0, false
	}
}

// AsInt converts a numeric value to int64 (floats are truncated), reporting
// ok=false for NULL and non-numeric kinds.
func (v Value) AsInt() (i int64, ok bool) {
	switch v.kind {
	case KindInt:
		return v.i, true
	case KindFloat:
		return int64(v.f), true
	default:
		return 0, false
	}
}

// Truthy reports whether the value acts as boolean true in a WHERE clause.
// NULL is not truthy (SQL three-valued logic collapses UNKNOWN to false at
// the filter boundary); nonzero numbers are truthy for convenience.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindBool, KindInt:
		return v.i != 0
	case KindFloat:
		return v.f != 0 // floateq:ok SQL truthiness is exact
	default:
		return false
	}
}

// coerce converts v to the given kind where a lossless or standard SQL cast
// exists. NULL coerces to every kind (staying NULL).
func coerce(v Value, k Kind) (Value, error) {
	if v.kind == k || v.kind == KindNull {
		return v, nil
	}
	switch k {
	case KindFloat:
		if v.kind == KindInt {
			return NewFloat(float64(v.i)), nil
		}
		if v.kind == KindString {
			f, err := strconv.ParseFloat(v.s, 64)
			if err != nil {
				return Null, fmt.Errorf("value: cannot cast %q to REAL", v.s)
			}
			return NewFloat(f), nil
		}
	case KindInt:
		if v.kind == KindFloat {
			if v.f != math.Trunc(v.f) || math.IsInf(v.f, 0) || math.IsNaN(v.f) { // floateq:ok lossless-cast check is exact by design
				return Null, fmt.Errorf("value: cannot cast %v to INTEGER without loss", v.f)
			}
			return NewInt(int64(v.f)), nil
		}
		if v.kind == KindString {
			i, err := strconv.ParseInt(v.s, 10, 64)
			if err != nil {
				return Null, fmt.Errorf("value: cannot cast %q to INTEGER", v.s)
			}
			return NewInt(i), nil
		}
	case KindString:
		return NewString(v.String()), nil
	}
	return Null, fmt.Errorf("value: cannot cast %s to %s", v.kind, k)
}
