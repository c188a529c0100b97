package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchmarkJSON is the part of BENCHMARK.json the compare mode needs.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// spread is the distance between the quartiles of v as a share of its
// median — the run-to-run noise a difference has to exceed — by the
// method of Python's statistics.quantiles(v, n=4). Fewer than four values
// give no quartiles and a spread of 0.
func spread(v []float64) float64 {
	if len(v) < 4 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k*(len(s)+1)) / 4
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return ratio(q(3)-q(1), median(s))
}

// readSet loads a comma-separated list of result files — one set of runs
// of one commit — and returns each (workload, metric)'s values across
// them, the workloads in first-seen order, and whether every run was
// correct.
func readSet(paths string) (vals map[string]map[string][]float64, order []string, correct bool, err error) {
	vals = map[string]map[string][]float64{}
	correct = true
	for _, path := range strings.Split(paths, ",") {
		var f resultFile
		if err := readJSON(path, &f); err != nil {
			return nil, nil, false, err
		}
		for _, w := range f.Workloads {
			if vals[w.Name] == nil {
				vals[w.Name] = map[string][]float64{}
				order = append(order, w.Name)
			}
			correct = correct && w.Correct
			for name, m := range w.Metrics {
				vals[w.Name][name] = append(vals[w.Name][name], m.Value)
			}
		}
	}
	return vals, order, correct, nil
}

// compareFiles compares two sets of runs, A (the base) and B, each a
// comma-separated list of result files. It prints one row per (workload,
// end-to-end metric): both medians, their ratio, and a verdict under the
// metric's bound from BENCHMARK.json. "worse" means B's median is worse
// than A's by more than the bound; "unresolved" means either set's
// run-to-run spread is wider than the bound, so the sets cannot be told
// apart. A set with a failed run is worse. Exit 1 on worse.
func compareFiles(pathsA, pathsB, pathBench string, stdout, stderr io.Writer) int {
	var bj benchmarkJSON
	if err := readJSON(pathBench, &bj); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	a, order, okA, err := readSet(pathsA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, _, okB, err := readSet(pathsB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-15s %-14s %14s %14s %8s %7s %7s  %s\n",
		"workload", "metric", "A (base)", "B", "B/A", "spread", "bound", "verdict")
	worse := 0
	if !okA || !okB {
		fmt.Fprintln(stdout, "a run with failed ops or checks: worse")
		worse++
	}
	for _, w := range order {
		for _, d := range bj.EndToEnd {
			va, vb := a[w][d.Name], b[w][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			// change > 0 means B is worse than A by that share of A.
			change := ratio(mb-ma, ma)
			if d.Better == "higher" {
				change = -change
			}
			noise := math.Max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case noise > d.Bound:
				verdict = "unresolved"
			case change > d.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(stdout, "%-15s %-14s %14.6g %14.6g %8.4f %7.4f %7.2f  %s\n",
				w, d.Name, ma, mb, ratio(mb, ma), noise, d.Bound, verdict)
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}
