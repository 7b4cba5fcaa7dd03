// Command benchmark is the repository's one performance benchmark: four
// workloads, six bounded end-to-end metrics and a per-layer traced run. See
// README.md in this directory for definitions and how to read the output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// report is the file -out writes and -compare reads: every run of every
// workload in both modes, with where and on what it was measured.
type report struct {
	Meta struct {
		NProc   int     `json:"nproc"`
		Go      string  `json:"go"`
		Commit  string  `json:"commit"`
		Seed    int64   `json:"seed"`
		Seconds float64 `json:"seconds"`
		Date    string  `json:"date"`
	} `json:"meta"`
	// Workloads maps name → mode ("end_to_end", "per_layer") → runs.
	Workloads map[string]map[string][]*result `json:"workloads"`
}

func main() {
	name := flag.String("workload", "", "run one workload (vpct_scan, hpct_case, hot_mix, serve_mix); empty runs all four in both modes")
	seed := flag.Int64("seed", 7, "seed of the generated data and statement streams")
	seconds := flag.Float64("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: the per-layer traced run; -1: both (0 with -workload)")
	runs := flag.Int("runs", 1, "with no -workload: repeat every run this many times (the spread -compare uses)")
	out := flag.String("out", "", "with no -workload: write the full report as JSON to this file")
	spansOut := flag.String("spans", "", "with -trace 1: write the harness spans as JSON to this file")
	commit := flag.String("commit", "unknown", "commit hash to record in the report")
	compare := flag.Bool("compare", false, "compare two reports: -compare old.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare old.json new.json"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	if *name != "" {
		// One run in this process. The driver's contract: the last line of
		// standard output is the run as one JSON object.
		for _, w := range workloads() {
			if w.name != *name {
				continue
			}
			res, err := runOnce(w, *seed, full, *seconds, max(*trace, 0), *spansOut)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			printResult(w.name, max(*trace, 0), res)
			line, _ := json.Marshal(res)
			fmt.Println(string(line))
			if !res.Correct {
				fatal(errors.New("statements failed or results were wrong"))
			}
			return
		}
		fatal(fmt.Errorf("unknown workload %q", *name))
	}

	// Every workload, each run in a process of its own — the heap high-water
	// of one run must not hold another's — collected into one report.
	ok := true
	rep := &report{Workloads: map[string]map[string][]*result{}}
	rep.Meta.NProc, rep.Meta.Go, rep.Meta.Commit = runtime.NumCPU(), runtime.Version(), *commit
	rep.Meta.Seed, rep.Meta.Seconds, rep.Meta.Date = *seed, *seconds, time.Now().UTC().Format(time.RFC3339)
	modes := map[string]int{"end_to_end": 0, "per_layer": 1}
	for _, w := range workloads() {
		rep.Workloads[w.name] = map[string][]*result{}
		for _, key := range []string{"end_to_end", "per_layer"} {
			if *trace >= 0 && *trace != modes[key] {
				continue
			}
			for r := 0; r < *runs; r++ {
				res, err := childRun(w.name, *seed, *seconds, modes[key])
				if err != nil {
					fatal(fmt.Errorf("%s: %w", w.name, err))
				}
				rep.Workloads[w.name][key] = append(rep.Workloads[w.name][key], res)
				ok = ok && res.Correct
			}
		}
	}
	if *out != "" {
		body, _ := json.MarshalIndent(rep, "", " ")
		if err := os.WriteFile(*out, append(body, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if !ok {
		fatal(errors.New("statements failed or results were wrong"))
	}
}

// childRun runs one workload once in a child process of this binary, passes
// its report through, and parses the result from its last line.
func childRun(workload string, seed int64, seconds float64, mode int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(mode))
	cmd.Stderr = os.Stderr
	// A run with failed statements exits non-zero after printing its result;
	// only a run with no result line is an error here.
	body, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	res := &result{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	return res, nil
}

func runOnce(w *workload, seed int64, sz sizes, seconds float64, mode int, spansOut string) (*result, error) {
	if mode == 0 {
		return untracedRun(w, seed, sz, seconds)
	}
	var spans []span
	res, err := tracedRun(w, seed, sz, seconds, &spans)
	if err == nil && spansOut != "" {
		body, _ := json.Marshal(spans)
		err = os.WriteFile(spansOut, body, 0o644)
	}
	return res, err
}

// printResult prints every metric by name with its unit. Metrics that are
// zero in a traced run belong to another workload's layers and are skipped.
func printResult(workload string, mode int, res *result) {
	title := "end-to-end (tracing off)"
	if mode == 1 {
		title = "per-layer (traced run)"
	}
	fmt.Printf("== %s: %s — %d statements attempted, %d failed\n", workload, title, res.Attempted, res.Failed)
	if res.firstErr != nil {
		fmt.Printf("   first failure: %v\n", res.firstErr)
	}
	for _, k := range sortedKeys(res.Metrics) {
		if m := res.Metrics[k]; m.Value != 0 || mode == 0 { // floateq:ok exactly 0 means not measured here
			fmt.Printf("   %-34s %14.4f %s\n", k, m.Value, m.Unit)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
