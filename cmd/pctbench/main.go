// Command pctbench regenerates the evaluation tables of both papers on
// synthetic data and prints them in the papers' layout. The tables are the
// ones internal/bench.Experiments declares; -table takes one of their keys.
//
// Usage:
//
//	pctbench                       # all tables, medium scale
//	pctbench -table 4              # only Table 4
//	pctbench -table parallel       # sequential vs parallel aggregation
//	pctbench -scale small|medium|paper
//	pctbench -reps 3               # average over repetitions
//	pctbench -o results.txt        # also write to a file
//	pctbench -md                   # markdown output (for EXPERIMENTS.md)
//	pctbench -json out.json        # also write machine-readable timings
//	pctbench -timeout 30s          # per-statement deadline (PCT201 on expiry)
//
// The -scale paper setting uses the papers' exact sizes (sales n=10M);
// expect a long run and several GB of memory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/engine"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	experiments := bench.Experiments()
	keys := make([]string, len(experiments))
	for i, exp := range experiments {
		keys[i] = exp.Key
	}
	tableKeys := strings.Join(keys, ", ") + ", all"

	fs := flag.NewFlagSet("pctbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.String("scale", "medium", "data scale: small, medium, or paper")
	table := fs.String("table", "all", "which table to run: "+tableKeys)
	reps := fs.Int("reps", 1, "repetitions per measurement (the paper used 5)")
	out := fs.String("o", "", "also write results to this file")
	jsonOut := fs.String("json", "", "also write timings to this file as JSON")
	timeout := fs.Duration("timeout", 0, "per-statement deadline (0 = none); an expired run fails with PCT201 instead of hanging the suite")
	md := fs.Bool("md", false, "emit markdown tables")
	quiet := fs.Bool("quiet", false, "suppress progress messages")
	filter := fs.String("filter", "", "only run query rows whose label contains this substring")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "pctbench:", err)
		return 1
	}

	var cfg bench.Config
	switch *scale {
	case "small":
		cfg = bench.SmallConfig()
	case "medium":
		cfg = bench.MediumConfig()
	case "paper":
		cfg = bench.PaperConfig()
	default:
		fmt.Fprintf(stderr, "pctbench: unknown scale %q\n", *scale)
		return 2
	}
	cfg.Reps = *reps
	cfg.LabelFilter = *filter

	want := strings.ToLower(*table)
	var selected []bench.Experiment
	for _, exp := range experiments {
		if want == "all" || want == exp.Key {
			selected = append(selected, exp)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "pctbench: unknown table %q (%s)\n", *table, tableKeys)
		return 2
	}

	log := stderr
	if *quiet {
		log = nil
	}
	s, err := bench.NewSuite(cfg, log)
	if err != nil {
		return fail(err)
	}
	if *timeout > 0 {
		s.Eng.SetLimits(engine.Limits{Timeout: *timeout})
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		w = io.MultiWriter(stdout, f)
	}

	fmt.Fprintf(w, "pctbench scale=%s (employee=%d sales=%d trans=%d/%d census=%d, store card=%d) reps=%d\n\n",
		*scale, cfg.EmployeeN, cfg.SalesN, cfg.TransN1, cfg.TransN2, cfg.CensusN, cfg.Cards.Store, cfg.Reps)

	var tables []*bench.Table
	for _, exp := range selected {
		tab, err := s.Run(exp)
		if err != nil {
			return fail(err)
		}
		tables = append(tables, tab)
		if *md {
			fmt.Fprintln(w, markdown(tab))
		} else {
			fmt.Fprintln(w, tab.Format())
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, *scale, cfg, tables); err != nil {
			return fail(err)
		}
	}
	return 0
}

// writeJSON dumps the regenerated tables with times in seconds, for CI
// artifacts and downstream tooling.
func writeJSON(path, scale string, cfg bench.Config, tables []*bench.Table) error {
	type jsonRow struct {
		Label   string    `json:"label"`
		Seconds []float64 `json:"seconds"`
	}
	type jsonTable struct {
		Title  string    `json:"title"`
		Note   string    `json:"note,omitempty"`
		Header []string  `json:"header"`
		Rows   []jsonRow `json:"rows"`
	}
	doc := struct {
		Scale  string      `json:"scale"`
		Reps   int         `json:"reps"`
		Tables []jsonTable `json:"tables"`
	}{Scale: scale, Reps: cfg.Reps}
	for _, t := range tables {
		jt := jsonTable{Title: t.Title, Note: t.Note, Header: t.Header}
		for _, r := range t.Rows {
			jr := jsonRow{Label: r.Label}
			for _, d := range r.Times {
				jr.Seconds = append(jr.Seconds, d.Seconds())
			}
			jt.Rows = append(jt.Rows, jr)
		}
		doc.Tables = append(doc.Tables, jt)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// markdown renders a bench table as a markdown table, times in milliseconds
// to the microsecond, so a small-scale cell still reads. A row label's "|",
// which separates its by and totals columns, is escaped: it is not a cell
// boundary.
func markdown(t *bench.Table) string {
	var sb strings.Builder
	sb.WriteString("### " + t.Title + "\n\n")
	if t.Note != "" {
		sb.WriteString(t.Note + "\n\n")
	}
	sb.WriteString("| query (ms) |")
	for _, h := range t.Header {
		sb.WriteString(" " + h + " |")
	}
	sb.WriteString("\n|---|")
	for range t.Header {
		sb.WriteString("---|")
	}
	sb.WriteString("\n")
	for _, r := range t.Rows {
		sb.WriteString("| " + strings.ReplaceAll(r.Label, "|", `\|`) + " |")
		for _, d := range r.Times {
			fmt.Fprintf(&sb, " %.3f |", float64(d.Nanoseconds())/1e6)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
