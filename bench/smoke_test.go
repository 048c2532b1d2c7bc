package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test reads.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs all five workloads at 1/16 size for two cycles, untraced
// and traced, and asserts that each run is correct and reports exactly the
// metrics BENCHMARK.json names, finite and with the unit it declares.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	dir := t.TempDir()
	daemon, err := buildDaemon(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, bf.Workloads[i].Name, w.name)
		}
		c := &config{w: w, seed: 3, scale: 16, cycles: 2, dir: dir, spanDir: dir, daemon: daemon}
		for _, run := range []struct {
			kind string
			fn   func() (*result, error)
			want []struct{ Name, Unit string }
		}{
			{"untraced", c.runEndToEnd, bf.EndToEnd},
			{"traced", c.runTraced, bf.PerLayer},
		} {
			res, err := run.fn()
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, run.kind, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 4 {
				t.Errorf("%s %s: correct=%v, %d of %d ops failed: %v", w.name, run.kind, res.Correct, res.Failed, res.Attempted, res.Errors)
			}
			if len(res.Metrics) != len(run.want) {
				t.Errorf("%s %s: %d metrics reported, BENCHMARK.json names %d", w.name, run.kind, len(res.Metrics), len(run.want))
			}
			for _, m := range run.want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s %s: metric %s is missing", w.name, run.kind, m.Name)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s %s: metric %s is %v", w.name, run.kind, m.Name, got.Value)
				case got.Unit == "" || got.Unit != m.Unit:
					t.Errorf("%s %s: metric %s has unit %q, BENCHMARK.json says %q", w.name, run.kind, m.Name, got.Unit, m.Unit)
				}
			}
			if run.kind == "untraced" {
				for _, m := range run.want {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
		if _, err := os.Stat(dir + "/trace-" + w.name + ".json"); err != nil {
			t.Errorf("%s: span file: %v", w.name, err)
		}
	}
}
