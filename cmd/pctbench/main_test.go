package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestTableJSON regenerates one row of Table 5 and checks the -json file
// against the declaration: the title and headers are the declared ones, the
// filter left one row, and every cell is a positive time.
func TestTableJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	code, out, errOut := runCLI(t, "-scale", "small", "-table", "5", "-filter", "employee gender | -",
		"-reps", "1", "-json", path, "-quiet")
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if errOut != "" {
		t.Errorf("-quiet run wrote to stderr:\n%s", errOut)
	}
	var want bench.Experiment
	for _, exp := range bench.Experiments() {
		if exp.Key == "5" {
			want = exp
		}
	}
	var headers []string
	for _, c := range want.Columns {
		headers = append(headers, c.Header)
	}
	if !strings.Contains(out, want.Title) {
		t.Errorf("stdout lacks the table title:\n%s", out)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Scale  string `json:"scale"`
		Reps   int    `json:"reps"`
		Tables []struct {
			Title  string   `json:"title"`
			Header []string `json:"header"`
			Rows   []struct {
				Label   string    `json:"label"`
				Seconds []float64 `json:"seconds"`
			} `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%v\n%s", err, raw)
	}
	if doc.Scale != "small" || doc.Reps != 1 || len(doc.Tables) != 1 {
		t.Fatalf("doc = %+v", doc)
	}
	tab := doc.Tables[0]
	if tab.Title != want.Title || !reflect.DeepEqual(tab.Header, headers) {
		t.Errorf("table = %q %v, want %q %v", tab.Title, tab.Header, want.Title, headers)
	}
	if len(tab.Rows) != 1 || tab.Rows[0].Label != "employee gender | -" || len(tab.Rows[0].Seconds) != len(headers) {
		t.Fatalf("rows = %+v", tab.Rows)
	}
	for i, s := range tab.Rows[0].Seconds {
		if s <= 0 {
			t.Errorf("column %q: non-positive time %v", headers[i], s)
		}
	}
}

// TestUnknownTable: an unknown -table exits 2 before loading anything and
// lists exactly the declared keys plus all.
func TestUnknownTable(t *testing.T) {
	code, out, errOut := runCLI(t, "-scale", "small", "-table", "nosuch")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if out != "" {
		t.Errorf("stdout = %q, want nothing", out)
	}
	var keys []string
	for _, exp := range bench.Experiments() {
		keys = append(keys, exp.Key)
	}
	want := `pctbench: unknown table "nosuch" (` + strings.Join(append(keys, "all"), ", ") + ")\n"
	if errOut != want {
		t.Errorf("stderr = %q, want %q", errOut, want)
	}
	for _, gone := range []string{"cache", "cube", "batch", "introspect", "none"} {
		if code, _, _ := runCLI(t, "-scale", "small", "-table", gone); code != 2 {
			t.Errorf("-table %s: exit %d, want 2", gone, code)
		}
	}
	// pctbench is the experiment matrix only: the smokes it used to host are
	// tests now, and their flags are gone.
	for _, gone := range []string{"-breakdown", "-cancel", "-serve-load", "-serve-addr", "-serve-tenants", "-serve-workers", "-serve-requests"} {
		if code, _, errOut := runCLI(t, gone, "x"); code != 2 || !strings.Contains(errOut, gone) {
			t.Errorf("%s: exit %d, stderr %q; the flag is gone", gone, code, errOut)
		}
	}
}

// TestMarkdownCells renders a table as -md does: every row has as many cells
// as the header — the "|" inside a label is escaped — and a sub-millisecond
// time reads in milliseconds, not as 0.000.
func TestMarkdownCells(t *testing.T) {
	tab := &bench.Table{Title: "T", Header: []string{"a", "b"}, Rows: []bench.Row{
		{Label: "employee gender | -", Times: []time.Duration{420 * time.Microsecond, 3 * time.Second}},
	}}
	cells := func(line string) int { return strings.Count(strings.ReplaceAll(line, `\|`, ""), "|") - 1 }
	lines := strings.Split(strings.TrimSpace(markdown(tab)), "\n")
	header, row := lines[len(lines)-3], lines[len(lines)-1]
	if cells(row) != cells(header) {
		t.Errorf("row %q has %d cells under a header of %d (%q)", row, cells(row), cells(header), header)
	}
	if want := "| employee gender \\| - | 0.420 | 3000.000 |"; row != want {
		t.Errorf("row = %q, want %q", row, want)
	}
}
