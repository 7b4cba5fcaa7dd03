package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// endToEnd are the metrics an untraced run reports, in print order. bound is
// the share of the old median by which the metric may get worse before
// -compare calls it a regression; higher says which direction is better. Both
// match BENCHMARK.json (the self-test holds them together).
var endToEnd = []struct {
	name   string
	bound  float64
	higher bool
}{
	{"setup_s", 0.25, false},
	{"latency_geomean_ms", 0.25, false},
	{"throughput_qps", 0.25, true},
	{"allocs_per_stmt", 0.05, false},
	{"alloc_kb_per_stmt", 0.05, false},
	{"heap_mb", 0.25, false},
}

func readReport(path string) (*report, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(body, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// quartiles returns the median and the distance between the first and third
// quartile (the exclusive method, as Python's statistics.quantiles(n=4)).
func quartiles(v []float64) (med, iqr float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	med = median(s)
	if len(s) < 2 {
		return med, 0
	}
	q := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return med, q(0.75) - q(0.25)
}

func values(runs []*result, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func failedFrac(runs []*result) float64 {
	failed, attempted := 0, 0
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

// compareFiles applies each end-to-end metric's bound per workload, one row
// per (workload, metric), every ratio with its base. It reports whether any
// row is worse or any workload fails more statements than before.
func compareFiles(w io.Writer, oldPath, newPath string) (bool, error) {
	oldRep, err := readReport(oldPath)
	if err != nil {
		return false, err
	}
	newRep, err := readReport(newPath)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-10s %-20s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "old median", "new median", "new/old", "spread", "bound", "verdict")
	for _, wl := range workloads() {
		oldRuns, newRuns := oldRep.Workloads[wl.name]["end_to_end"], newRep.Workloads[wl.name]["end_to_end"]
		if len(oldRuns) == 0 || len(newRuns) == 0 {
			continue
		}
		for _, b := range endToEnd {
			name := b.name
			oldMed, oldIQR := quartiles(values(oldRuns, name))
			newMed, newIQR := quartiles(values(newRuns, name))
			spread := ratio(oldIQR, oldMed)
			if s := ratio(newIQR, newMed); s > spread {
				spread = s
			}
			change := ratio(newMed, oldMed) - 1 // > 0 is worse for lower-is-better
			if b.higher {
				change = -change
			}
			verdict := "same"
			switch {
			case spread > b.bound:
				verdict = "unresolved"
			case change > b.bound:
				verdict = "worse"
				anyWorse = true
			case change < -b.bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-10s %-20s %14.4f %14.4f %8.4f %6.1f%% %6.1f%%  %s\n",
				wl.name, name, oldMed, newMed, ratio(newMed, oldMed), 100*spread, 100*b.bound, verdict)
		}
		oldFail, newFail := failedFrac(oldRuns), failedFrac(newRuns)
		verdict := "same"
		if newFail > oldFail {
			verdict = "worse"
			anyWorse = true
		}
		fmt.Fprintf(w, "%-10s %-20s %14.6f %14.6f %8s %7s %7s  %s\n", wl.name, "failed_frac", oldFail, newFail, "-", "-", "any", verdict)
	}
	return anyWorse, nil
}
