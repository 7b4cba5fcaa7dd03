package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// contract mirrors ../BENCHMARK.json.
type contract struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(t *testing.T) *contract {
	t.Helper()
	body, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	c := &contract{}
	if err := json.Unmarshal(body, c); err != nil {
		t.Fatal(err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkEmitted asserts that a run printed exactly the declared metrics, each
// once (a map cannot hold a name twice) and with the declared unit.
func checkEmitted(t *testing.T, what string, res *result, declared []contractMetric) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d first failure: %v", what, res.Correct, res.Attempted, res.Failed, res.firstErr)
	}
	want := map[string]string{}
	for _, m := range declared {
		want[m.Name] = m.Unit
	}
	for name, m := range res.Metrics {
		if !nameRE.MatchString(name) {
			t.Errorf("%s: metric name %q is outside [A-Za-z0-9_.-]", what, name)
		}
		if unit, ok := want[name]; !ok {
			t.Errorf("%s: emits %s, which BENCHMARK.json does not declare", what, name)
		} else if unit != m.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	for name := range want {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("%s: BENCHMARK.json declares %s, which the run does not emit", what, name)
		}
	}
}

// TestWorkloadsMatchContract runs all four workloads in both modes through
// the benchmark's own code at the tiny size and holds the output against
// BENCHMARK.json.
func TestWorkloadsMatchContract(t *testing.T) {
	c := readContract(t)
	ws := workloads()
	if len(ws) != len(c.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json declares %d", len(ws), len(c.Workloads))
	}
	for i, w := range ws {
		if w.name != c.Workloads[i].Name || !nameRE.MatchString(w.name) {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, w.name, c.Workloads[i].Name)
		}
		res, err := untracedRun(w, 7, tiny, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		checkEmitted(t, w.name+" untraced", res, c.EndToEnd)
		for _, m := range endToEnd {
			if res.Metrics[m.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, m.name, res.Metrics[m.name].Value)
			}
		}
		res, err = tracedRun(w, 7, tiny, 0.1, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkEmitted(t, w.name+" traced", res, c.PerLayer)
		if n := res.Metrics["determinism.mismatches"].Value; n != 0 { // floateq:ok a count
			t.Errorf("%s: determinism guard saw %v mismatches", w.name, n)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, BENCHMARK.json declares %d", len(endToEnd), len(c.EndToEnd))
	}
	for i, m := range c.EndToEnd {
		if b := endToEnd[i]; b.name != m.Name || b.bound != m.Bound || b.higher != (m.Better == "higher") { // floateq:ok constants
			t.Errorf("-compare's bound %+v differs from BENCHMARK.json (%+v)", b, m)
		}
	}
}

// TestOracleRejectsCorruptedResult corrupts correct results in the ways a
// broken layer could — a wrong value, a lost row, a repeated row — and the
// oracle must refuse each.
func TestOracleRejectsCorruptedResult(t *testing.T) {
	w := workloads()[0]
	e, _, warm, err := setupEnv(w, 7, tiny, false, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if warm.failed != 0 {
		t.Fatalf("clean run failed: %v", warm.err)
	}
	// The determinism guard compares these by name: a counter the product
	// does not export would compare as 0 == 0 and guard nothing.
	counters := e.counters()
	for _, k := range workCounters {
		if _, ok := counters[k]; !ok {
			t.Errorf("work counter %s is not in db.MetricsJSON()", k)
		}
	}
	specs := []spec{as(specVpct, primary[3]), as(specHpct, primary[2]), as(specCube, primary[5]),
		{kind: specAgg, table: "sales", measure: "salesAmt", by: []string{"dept"}}}
	for _, s := range specs {
		s := s
		tab := e.tables[s.table]
		data, err := e.execEmbedded(0, &stmt{op: opQuery, sql: s.sql()})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.check(tab, data); err != nil {
			t.Fatalf("%s: correct result refused: %v", s.sql(), err)
		}
		valueCol := len(data[0]) - 1
		if s.kind == specCube || s.kind == specAgg {
			valueCol--
		}
		orig := data[1][valueCol]
		f, _ := number(orig)
		data[1][valueCol] = f * 1.001
		if s.check(tab, data) == nil {
			t.Errorf("%s: a value off by 0.1%% was accepted", s.sql())
		}
		data[1][valueCol] = orig
		if s.check(tab, data[1:]) == nil {
			t.Errorf("%s: a missing row was accepted", s.sql())
		}
		dup := append(append([][]any{}, data[1:]...), data[1])
		if s.check(tab, dup) == nil {
			t.Errorf("%s: a repeated row in place of another was accepted", s.sql())
		}
	}
}

func syntheticReport(latency ...float64) *report {
	rep := &report{Workloads: map[string]map[string][]*result{}}
	for _, w := range workloads() {
		var runs []*result
		for _, l := range latency {
			m := map[string]metric{}
			for _, e := range endToEnd {
				m[e.name] = metric{100, "x"}
			}
			m["latency_geomean_ms"] = metric{l, "ms"}
			runs = append(runs, &result{Correct: true, Attempted: 100, Metrics: m})
		}
		rep.Workloads[w.name] = map[string][]*result{"end_to_end": runs}
	}
	return rep
}

func compareReports(t *testing.T, oldRep, newRep *report) (string, bool) {
	t.Helper()
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")}
	for i, rep := range []*report{oldRep, newRep} {
		body, _ := json.Marshal(rep)
		if err := os.WriteFile(paths[i], body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	worse, err := compareFiles(&out, paths[0], paths[1])
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), worse
}

func verdicts(out, metricName string) []string {
	var v []string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[1] == metricName {
			v = append(v, f[len(f)-1])
		}
	}
	return v
}

func TestCompareFlagsRegression(t *testing.T) {
	// The latency bound is 25 %: +30 % is a regression, +20 % is not.
	out, worse := compareReports(t, syntheticReport(10, 10.1, 9.9), syntheticReport(13, 13.1, 12.9))
	if v := verdicts(out, "latency_geomean_ms"); !worse || len(v) != 4 || v[0] != "worse" {
		t.Errorf("+30%% latency: worse=%v verdicts=%v\n%s", worse, v, out)
	}
	out, worse = compareReports(t, syntheticReport(10, 10.1, 9.9), syntheticReport(12, 12.1, 11.9))
	if v := verdicts(out, "latency_geomean_ms"); worse || v[0] != "same" {
		t.Errorf("+20%% latency: worse=%v verdicts=%v", worse, v)
	}
	if v := verdicts(out, "throughput_qps"); len(v) != 4 || v[0] != "same" {
		t.Errorf("unchanged throughput: verdicts=%v", v)
	}
	out, worse = compareReports(t, syntheticReport(10, 10.1, 9.9), syntheticReport(7, 7.1, 6.9))
	if v := verdicts(out, "latency_geomean_ms"); worse || v[0] != "better" {
		t.Errorf("-30%% latency: worse=%v verdicts=%v", worse, v)
	}
	// A spread wider than the bound hides any difference inside it.
	out, worse = compareReports(t, syntheticReport(10, 15, 5, 13, 7), syntheticReport(13, 13.1, 12.9))
	if v := verdicts(out, "latency_geomean_ms"); worse || v[0] != "unresolved" {
		t.Errorf("noisy base: worse=%v verdicts=%v", worse, v)
	}
	failing := syntheticReport(10)
	for _, modes := range failing.Workloads {
		modes["end_to_end"][0].Failed = 1
	}
	out, worse = compareReports(t, syntheticReport(10), failing)
	if v := verdicts(out, "failed_frac"); !worse || v[0] != "worse" {
		t.Errorf("more failures: worse=%v verdicts=%v", worse, v)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// the method the spread rule is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	med, iqr := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if med != 5.5 || iqr != 8.25-2.75 { // floateq:ok exact binary fractions
		t.Errorf("median %v iqr %v, want 5.5 and 5.5", med, iqr)
	}
}
