// Package diag defines the structured, positioned diagnostics that the
// percentage-query static analyzer ("pctlint") emits. It is a leaf package:
// sqlparse records source spans with its types, core's analyzer collects
// rule violations as Diagnostics instead of failing on the first, and
// internal/lint layers the warning/advisory checks on top.
//
// Every diagnostic carries a stable PCTxxx code so tools (and CI gates) can
// filter or suppress by class, a severity, a source span, a human message,
// and — where the analyzer can tell — a suggested fix.
package diag

import (
	"fmt"
	"sort"
	"strings"
)

// Pos is a source position (1-based line and column; Offset is the byte
// offset in the statement text, 0-based).
type Pos struct {
	Offset int `json:"offset"`
	Line   int `json:"line"`
	Col    int `json:"col"`
}

// IsZero reports whether the position is unset.
func (p Pos) IsZero() bool { return p.Line == 0 }

// String renders "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Span is a half-open source range [Start, End).
type Span struct {
	Start Pos `json:"start"`
	End   Pos `json:"end"`
}

// IsZero reports whether the span is unset.
func (s Span) IsZero() bool { return s.Start.IsZero() }

// String renders "line:col" or "line:col-line:col" for multi-position
// spans.
func (s Span) String() string {
	if s.IsZero() {
		return "-"
	}
	if s.End.IsZero() || s.End == s.Start {
		return s.Start.String()
	}
	return s.Start.String() + "-" + s.End.String()
}

// Severity classifies a diagnostic.
type Severity int

// Severities, from most to least severe. Errors reject the query (the
// planner would refuse it); warnings flag likely-silent wrong results (the
// paper's missing-rows and division-by-zero failure modes); advisories
// suggest better evaluation strategies or portability improvements.
const (
	Error Severity = iota
	Warning
	Advisory
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	case Advisory:
		return "advisory"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// MarshalText implements encoding.TextMarshaler for JSON output.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// Diagnostic is one finding of the static analyzer.
type Diagnostic struct {
	// Code is the stable identifier, "PCT001"…; see internal/lint for the
	// full registry.
	Code string `json:"code"`
	// Severity is Error, Warning, or Advisory.
	Severity Severity `json:"severity"`
	// Span locates the finding in the statement text (zero when the
	// construct has no single location, e.g. a missing GROUP BY clause).
	Span Span `json:"span"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// Fix, when nonempty, suggests a concrete change.
	Fix string `json:"fix,omitempty"`
}

// String renders "line:col: severity[CODE]: message".
func (d Diagnostic) String() string {
	var sb strings.Builder
	if !d.Span.IsZero() {
		sb.WriteString(d.Span.Start.String())
		sb.WriteString(": ")
	}
	sb.WriteString(d.Severity.String())
	sb.WriteString("[")
	sb.WriteString(d.Code)
	sb.WriteString("]: ")
	sb.WriteString(d.Message)
	return sb.String()
}

// List accumulates diagnostics. The zero value is ready to use.
type List struct {
	ds []Diagnostic
}

// Add appends a diagnostic.
func (l *List) Add(d Diagnostic) { l.ds = append(l.ds, d) }

// Addf appends a diagnostic with a formatted message.
func (l *List) Addf(code string, sev Severity, span Span, format string, args ...any) {
	l.Add(Diagnostic{Code: code, Severity: sev, Span: span, Message: fmt.Sprintf(format, args...)})
}

// All returns the accumulated diagnostics.
func (l *List) All() []Diagnostic { return l.ds }

// HasErrors reports whether any diagnostic has Error severity.
func (l *List) HasErrors() bool {
	for _, d := range l.ds {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// FirstError returns the first Error-severity diagnostic in insertion
// order, or nil.
func (l *List) FirstError() *Diagnostic {
	for i := range l.ds {
		if l.ds[i].Severity == Error {
			return &l.ds[i]
		}
	}
	return nil
}

// Sort orders diagnostics by source position (unpositioned last), then by
// severity, then by code. The sort is stable so insertion order breaks
// ties.
func Sort(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		switch {
		case a.Span.IsZero() != b.Span.IsZero():
			return !a.Span.IsZero()
		case a.Span.Start.Line != b.Span.Start.Line:
			return a.Span.Start.Line < b.Span.Start.Line
		case a.Span.Start.Col != b.Span.Start.Col:
			return a.Span.Start.Col < b.Span.Start.Col
		case a.Severity != b.Severity:
			return a.Severity < b.Severity
		default:
			return a.Code < b.Code
		}
	})
}

// HasErrors reports whether any diagnostic in ds has Error severity.
func HasErrors(ds []Diagnostic) bool {
	for _, d := range ds {
		if d.Severity == Error {
			return true
		}
	}
	return false
}
