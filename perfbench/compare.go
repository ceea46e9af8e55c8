package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two directories of untraced result files, A the
// base and B the candidate, metric by metric and workload by workload,
// under the bounds of BENCHMARK.json in the current directory. It exits 2
// when it refuses to compare, 1 when some metric got worse, 0 otherwise.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <results-dir-A> <results-dir-B>")
		return 2
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare: BENCHMARK.json:", err)
		return 2
	}
	sets := make([][]*result, 2)
	for i, dir := range args {
		if sets[i], err = loadResults(dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
		if len(sets[i]) == 0 {
			fmt.Fprintf(os.Stderr, "perfbench compare: no valid untraced results in %s\n", dir)
			return 2
		}
	}
	if msg := envMismatch(append(append([]*result(nil), sets[0]...), sets[1]...)); msg != "" {
		fmt.Fprintln(os.Stderr, "perfbench compare: refusing to compare:", msg)
		return 2
	}
	workloadSet := map[string]bool{}
	for _, set := range sets {
		for _, res := range set {
			workloadSet[res.Workload] = true
		}
	}
	names := make([]string, 0, len(workloadSet))
	for w := range workloadSet {
		names = append(names, w)
	}
	sort.Strings(names)
	fmt.Printf("%-10s %-18s %6s %12s %12s %12s %12s %12s %12s %8s  %s\n",
		"workload", "metric", "bound", "A median", "A q1", "A q3", "B median", "B q1", "B q3", "change", "verdict")
	worse := false
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			a, b := values(sets[0], w, m.Name), values(sets[1], w, m.Name)
			if len(a) < 2 || len(b) < 2 {
				fmt.Printf("%-10s %-18s %6.2f  need at least 2 runs on each side (A %d, B %d)\n", w, m.Name, m.Bound, len(a), len(b))
				continue
			}
			c := compareMetric(a, b, m.Better == "higher", m.Bound)
			if c.verdict == "worse" {
				worse = true
			}
			fmt.Printf("%-10s %-18s %6.2f %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %+7.1f%%  %s\n",
				w, m.Name, m.Bound, c.a[1], c.a[0], c.a[2], c.b[1], c.b[0], c.b[2], 100*c.change, c.verdict)
		}
	}
	if worse {
		return 1
	}
	return 0
}

func loadResults(dir string) ([]*result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []*result
	for _, f := range files {
		res, err := readResult(f)
		if err != nil {
			return nil, err
		}
		if res.Trace == 0 && res.Valid {
			out = append(out, res)
		}
	}
	return out, nil
}

// envMismatch names the first stamp that differs between results.
func envMismatch(results []*result) string {
	first := results[0].Env
	for _, res := range results[1:] {
		e := res.Env
		switch {
		case e.NumCPU != first.NumCPU:
			return fmt.Sprintf("nproc %d vs %d", first.NumCPU, e.NumCPU)
		case e.GOMAXPROCS != first.GOMAXPROCS:
			return fmt.Sprintf("GOMAXPROCS %d vs %d", first.GOMAXPROCS, e.GOMAXPROCS)
		case e.GoVersion != first.GoVersion:
			return fmt.Sprintf("Go %s vs %s", first.GoVersion, e.GoVersion)
		}
	}
	return ""
}

func values(set []*result, workload, metric string) []float64 {
	var xs []float64
	for _, res := range set {
		if m, ok := res.Metrics[metric]; ok && res.Workload == workload {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// quartiles returns q1, median and q3 as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld, n := len(d), 4
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * (ld + 1) / n
		j = max(1, min(j, ld-1))
		delta := float64(i*(ld+1) - j*n)
		q[i-1] = (d[j-1]*(float64(n)-delta) + d[j]*delta) / float64(n)
	}
	return q
}

type comparison struct {
	a, b    [3]float64 // q1, median, q3
	change  float64    // B's median against A's, positive = worse
	verdict string
}

// compareMetric judges B against A. A median worse by more than the bound
// is "worse"; when either side's quartile spread is wider than the bound
// the difference is "unresolved" unless every B run beats every A run;
// "better" needs B to win nine tenths of the cross pairs of runs and the
// medians apart by more than A's own spread; anything else is "same".
func compareMetric(a, b []float64, higherIsBetter bool, bound float64) comparison {
	c := comparison{a: quartiles(a), b: quartiles(b)}
	sign := 1.0
	if higherIsBetter {
		sign = -1
	}
	if c.a[1] == 0 {
		c.verdict = "unresolved"
		return c
	}
	c.change = sign * (c.b[1] - c.a[1]) / math.Abs(c.a[1])
	spreadA := (c.a[2] - c.a[0]) / math.Abs(c.a[1])
	spreadB := 0.0
	if c.b[1] != 0 {
		spreadB = (c.b[2] - c.b[0]) / math.Abs(c.b[1])
	}
	wins := 0
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) < 0 {
				wins++
			}
		}
	}
	winShare := float64(wins) / float64(len(a)*len(b))
	switch {
	case spreadA > bound || spreadB > bound:
		c.verdict = "unresolved"
		if winShare == 1 {
			c.verdict = "better"
		}
	case c.change > bound:
		c.verdict = "worse"
	case -c.change > spreadA && winShare >= 0.9:
		c.verdict = "better"
	default:
		c.verdict = "same"
	}
	return c
}
