// Command compare judges two sets of benchmark result files, a parent's and
// a change's, by the direction and bound BENCHMARK.json gives each end-to-end
// metric. Each side is one file or several joined by commas (runs of the same
// commit):
//
//	cd bench && go run ./compare out/a1.json,out/a2.json out/b1.json,out/b2.json
//
// It prints one row per workload and metric: both medians, how far the change
// is worse, the bound, the spread between the parent's own runs (the distance
// between their quartiles over their median) and a verdict. A change worse by
// more than the bound is a REGRESSION. Where the parent's spread is wider than
// the bound the row is unresolved, not ok, unless every run of the change
// reads better than every run of the parent. A workload or metric that
// BENCHMARK.json names and either side lacks is MISSING. It exits non-zero on
// a regression, a missing row or failed ops in the change's runs, and refuses
// files that were traced or that measured for different lengths of time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

type benchmark struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
}

// resultFile is the part of a result file (bench -out) compare reads.
type resultFile struct {
	Env struct {
		Seconds float64
		Traced  bool
	} `json:"environment"`
	Results []runResult
}

type runResult struct {
	Workload string
	Failed   int
	Metrics  map[string]struct{ Value float64 }
}

func main() {
	bmPath := flag.String("benchmark", "", "path of BENCHMARK.json (default: here or one directory up)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-benchmark BENCHMARK.json] parent.json[,parent2.json...] change.json[,change2.json...]")
		os.Exit(2)
	}
	bad, err := run(*bmPath, flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if bad > 0 {
		fmt.Printf("%d regression(s) or missing row(s)\n", bad)
		os.Exit(1)
	}
}

func run(bmPath, parent, change string) (int, error) {
	var bm benchmark
	paths := []string{bmPath}
	if bmPath == "" {
		paths = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var err error
	for _, p := range paths {
		if err = readJSON(p, &bm); err == nil {
			break
		}
	}
	if err != nil {
		return 0, err
	}
	sides := make([][]resultFile, 2)
	for i, list := range []string{parent, change} {
		for _, path := range strings.Split(list, ",") {
			var f resultFile
			if err := readJSON(path, &f); err != nil {
				return 0, err
			}
			sides[i] = append(sides[i], f)
		}
	}
	return compare(os.Stdout, bm, sides[0], sides[1])
}

// compare prints the table and returns how many rows are regressions or
// missing, plus one if the change's runs had failed ops.
func compare(w io.Writer, bm benchmark, parent, change []resultFile) (int, error) {
	for _, f := range append(append([]resultFile(nil), parent...), change...) {
		if f.Env.Traced {
			return 0, fmt.Errorf("a result file is of a traced run: end-to-end metrics come from untraced runs")
		}
		if f.Env.Seconds != parent[0].Env.Seconds {
			return 0, fmt.Errorf("result files measured for %g s and %g s: compare runs of one length", parent[0].Env.Seconds, f.Env.Seconds)
		}
	}
	a, _ := collect(parent)
	b, failed := collect(change)

	bad := 0
	fmt.Fprintf(w, "%-22s %-26s %12s %12s %9s %7s %8s  %s\n", "workload", "metric", "parent", "change", "worse by", "bound", "spread", "verdict")
	for _, wl := range bm.Workloads {
		for _, m := range bm.EndToEnd {
			av, bv := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(w, "%-22s %-26s %12s %12s %9s %6.1f%% %8s  MISSING (%d parent, %d change runs)\n",
					wl.Name, m.Name, "-", "-", "-", 100*m.Bound, "-", len(av), len(bv))
				bad++
				continue
			}
			sign := 1.0 // worse means larger
			if m.Better == "higher" {
				sign = -1
			}
			am, bmed := median(av), median(bv)
			worse := sign * (bmed - am) / am
			sp := spread(av)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSION"
				bad++
			case sp > m.Bound && !allBetter(av, bv, sign):
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-22s %-26s %12.5g %12.5g %+8.2f%% %6.1f%% %7.2f%%  %s\n",
				wl.Name, m.Name, am, bmed, 100*worse, 100*m.Bound, 100*sp, verdict)
		}
	}
	if failed > 0 {
		fmt.Fprintf(w, "the change's runs had %d failed ops\n", failed)
		bad++
	}
	return bad, nil
}

// collect turns the result files of one side into workload → metric → one
// value per run, and counts the failed ops.
func collect(files []resultFile) (map[string]map[string][]float64, int) {
	vals := map[string]map[string][]float64{}
	failed := 0
	for _, f := range files {
		for _, r := range f.Results {
			failed += r.Failed
			if vals[r.Workload] == nil {
				vals[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
			}
		}
	}
	return vals, failed
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is the distance between the first and third quartile over the
// median, the quartiles as Python's statistics.quantiles(v, n=4) gives them;
// 0 for fewer than two runs.
func spread(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return 0
	}
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(v)
}

// allBetter reports whether every run of the change reads better than every
// run of the parent.
func allBetter(parent, change []float64, sign float64) bool {
	for _, p := range parent {
		for _, c := range change {
			if sign*(c-p) >= 0 {
				return false
			}
		}
	}
	return true
}
