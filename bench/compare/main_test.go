package main

import (
	"bytes"
	"strings"
	"testing"
)

var testBenchmark = benchmark{
	Workloads: []struct{ Name string }{{"w1"}, {"w2"}},
	EndToEnd: []struct {
		Name, Unit, Better string
		Bound              float64
	}{{"save_ms", "ms", "lower", 0.10}, {"goodput", "MB/s", "higher", 0.10}},
}

// side makes one result file per run: save[i] and goodput[i] on both
// workloads, except that w2 is left out when withW2 is false.
func side(save, goodput []float64, withW2 bool) []resultFile {
	var files []resultFile
	for i := range save {
		var f resultFile
		f.Env.Seconds = 15
		for _, wl := range []string{"w1", "w2"} {
			if wl == "w2" && !withW2 {
				continue
			}
			f.Results = append(f.Results, runResult{Workload: wl, Metrics: map[string]struct{ Value float64 }{
				"save_ms": {save[i]}, "goodput": {goodput[i]},
			}})
		}
		files = append(files, f)
	}
	return files
}

func TestCompare(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{80, 100, 120, 90, 110}
	for _, tc := range []struct {
		name           string
		parent, change []resultFile
		bad            int
		want           string
		wantErr        bool
	}{
		{name: "ok", parent: side(steady, steady, true), change: side([]float64{105, 104, 106, 105, 105}, steady, true), want: "ok"},
		{name: "slower is a regression", parent: side(steady, steady, true), change: side([]float64{115, 114, 116, 115, 115}, steady, true), bad: 2, want: "REGRESSION"},
		{name: "less goodput is a regression", parent: side(steady, steady, true), change: side(steady, []float64{85, 84, 86, 85, 85}, true), bad: 2, want: "REGRESSION"},
		{name: "parent spread above the bound", parent: side(noisy, steady, true), change: side(steady, steady, true), want: "unresolved"},
		{name: "every run better resolves a noisy parent", parent: side(noisy, steady, true), change: side([]float64{70, 71, 72, 70, 71}, steady, true), want: "ok"},
		{name: "workload missing from the change", parent: side(steady, steady, true), change: side(steady, steady, false), bad: 2, want: "MISSING"},
		{name: "no results in the change", parent: side(steady, steady, true), change: func() []resultFile {
			f := side(steady, steady, true)[:1]
			f[0].Results = nil
			return f
		}(), bad: 4, want: "MISSING"},
		{name: "runs of another length", parent: side(steady, steady, true), change: func() []resultFile {
			f := side(steady, steady, true)
			f[0].Env.Seconds = 5
			return f
		}(), wantErr: true},
		{name: "failed ops", parent: side(steady, steady, true), change: func() []resultFile {
			f := side(steady, steady, true)
			f[0].Results[0].Failed = 3
			return f
		}(), bad: 1, want: "3 failed ops"},
		{name: "traced file", parent: side(steady, steady, true), change: func() []resultFile {
			f := side(steady, steady, true)
			f[1].Env.Traced = true
			return f
		}(), wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			bad, err := compare(&out, testBenchmark, tc.parent, tc.change)
			if (err != nil) != tc.wantErr {
				t.Fatalf("error %v, want error: %v", err, tc.wantErr)
			}
			if bad != tc.bad {
				t.Errorf("%d bad rows, want %d:\n%s", bad, tc.bad, out.String())
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out.String())
			}
			if tc.name == "ok" && strings.Contains(out.String(), "unresolved") {
				t.Errorf("a steady parent left a row unresolved:\n%s", out.String())
			}
		})
	}
}
