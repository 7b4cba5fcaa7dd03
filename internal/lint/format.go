package lint

import (
	"encoding/json"
	"strings"

	"repro/internal/diag"
)

// Render formats one diagnostic as a compiler-style line,
// "file:line:col: severity[CODE]: message", followed by an indented fix
// suggestion when the analyzer has one. file may be empty.
func Render(file string, d Diagnostic) string {
	var sb strings.Builder
	if file != "" {
		sb.WriteString(file)
		sb.WriteString(":")
	}
	if !d.Span.IsZero() {
		sb.WriteString(d.Span.Start.String())
		sb.WriteString(":")
	}
	if sb.Len() > 0 {
		sb.WriteString(" ")
	}
	sb.WriteString(d.Severity.String())
	sb.WriteString("[")
	sb.WriteString(d.Code)
	sb.WriteString("]: ")
	sb.WriteString(d.Message)
	if d.Fix != "" {
		sb.WriteString("\n    fix: ")
		sb.WriteString(d.Fix)
	}
	return sb.String()
}

// renderAll formats a diagnostic slice one finding per line (fixes
// indented beneath), ending with a trailing newline; empty input renders
// as the empty string.
func renderAll(file string, ds []Diagnostic) string {
	var sb strings.Builder
	for _, d := range ds {
		sb.WriteString(Render(file, d))
		sb.WriteString("\n")
	}
	return sb.String()
}

// fileDiagnostic is the JSON shape: the diagnostic plus its source file.
type fileDiagnostic struct {
	File string `json:"file,omitempty"`
	diag.Diagnostic
}

// renderJSON renders diagnostics as an indented renderJSON array (never null: an empty
// slice renders as []). file may be empty.
func renderJSON(file string, ds []Diagnostic) ([]byte, error) {
	out := make([]fileDiagnostic, 0, len(ds))
	for _, d := range ds {
		out = append(out, fileDiagnostic{File: file, Diagnostic: d})
	}
	return json.MarshalIndent(out, "", "  ")
}
