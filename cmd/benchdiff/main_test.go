package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeJSON(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baseDoc = `{
  "description": "x",
  "benchmarks": {
    "BenchmarkA": { "ns_per_op": 1000, "mb_per_s": 5 },
    "BenchmarkB": {
      "workers=1": { "ns_per_op": 2000 },
      "workers=2": { "ns_per_op": 1500 }
    }
  }
}`

func TestSelfDiffPasses(t *testing.T) {
	p := writeJSON(t, "a.json", baseDoc)
	var out bytes.Buffer
	code, err := run([]string{p, p}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("self-diff exit code %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "3 series compared") {
		t.Errorf("expected 3 series (nested variants included):\n%s", out.String())
	}
}

func TestRegressionFails(t *testing.T) {
	old := writeJSON(t, "old.json", baseDoc)
	cur := writeJSON(t, "new.json", `{
  "benchmarks": {
    "BenchmarkA": { "ns_per_op": 1000 },
    "BenchmarkB": {
      "workers=1": { "ns_per_op": 2500 },
      "workers=2": { "ns_per_op": 1500 }
    }
  }
}`)
	var out bytes.Buffer
	code, err := run([]string{old, cur}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("25%% regression exit code %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("regressed series not marked:\n%s", out.String())
	}
}

func TestWithinThresholdPasses(t *testing.T) {
	old := writeJSON(t, "old.json", `{"benchmarks": {"A": {"ns_per_op": 1000}}}`)
	cur := writeJSON(t, "new.json", `{"benchmarks": {"A": {"ns_per_op": 1100}}}`)
	var out bytes.Buffer
	code, err := run([]string{old, cur}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("10%% slowdown under the 15%% default failed: code %d\n%s", code, out.String())
	}
	// But a tightened threshold catches it.
	code, err = run([]string{"-threshold", "5", old, cur}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("10%% slowdown above -threshold 5 passed: code %d", code)
	}
}

func TestSpeedupNeverFails(t *testing.T) {
	old := writeJSON(t, "old.json", `{"benchmarks": {"A": {"ns_per_op": 1000}}}`)
	cur := writeJSON(t, "new.json", `{"benchmarks": {"A": {"ns_per_op": 10}}}`)
	var out bytes.Buffer
	code, err := run([]string{old, cur}, &out)
	if err != nil || code != 0 {
		t.Errorf("99%% speedup flagged: code %d err %v", code, err)
	}
}

func TestOrphansReportedButHarmless(t *testing.T) {
	old := writeJSON(t, "old.json", `{"benchmarks": {"A": {"ns_per_op": 1000}, "Gone": {"ns_per_op": 5}}}`)
	cur := writeJSON(t, "new.json", `{"benchmarks": {"A": {"ns_per_op": 1000}, "New": {"ns_per_op": 7}}}`)
	var out bytes.Buffer
	code, err := run([]string{old, cur}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("orphaned series failed the run: code %d", code)
	}
	for _, want := range []string{"benchmarks/Gone only in", "benchmarks/New only in"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing orphan note %q:\n%s", want, out.String())
		}
	}
}

func TestBadInputRejected(t *testing.T) {
	good := writeJSON(t, "good.json", `{"benchmarks": {"A": {"ns_per_op": 1}}}`)
	cases := [][]string{
		{good},                          // one file
		{good, good, good},              // three files
		{good, "/does/not/exist"},       // unreadable
		{"-definitely-bad", good, good}, // bad flag
	}
	for i, args := range cases {
		var out bytes.Buffer
		if _, err := run(args, &out); err == nil {
			t.Errorf("case %d: bad input accepted: %v", i, args)
		}
	}
	noMetric := writeJSON(t, "no.json", `{"benchmarks": {"A": {"mb_per_s": 1}}}`)
	var out bytes.Buffer
	if _, err := run([]string{noMetric, good}, &out); err == nil {
		t.Error("file without ns_per_op accepted")
	}
	invalid := writeJSON(t, "bad.json", `{not json`)
	if _, err := run([]string{invalid, good}, &out); err == nil {
		t.Error("invalid JSON accepted")
	}
}

func TestRealBenchFileSelfDiff(t *testing.T) {
	// The repo's checked-in BENCH files must stay parseable by this tool,
	// all five (make check's smoke runs the gate on a fixture, not on them).
	for _, name := range []string{"BENCH_parallel.json", "BENCH_obs.json", "BENCH_gzip.json", "BENCH_entropy.json", "BENCH_dedup.json"} {
		path := filepath.Join("..", "..", name)
		if _, err := os.Stat(path); err != nil {
			t.Skipf("%s not present: %v", name, err)
		}
		var out bytes.Buffer
		code, err := run([]string{path, path}, &out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if code != 0 {
			t.Errorf("%s self-diff code %d\n%s", name, code, out.String())
		}
	}
}

// TestMultiPairCompares: consecutive (old, new) pairs gate in one run;
// a regression in any pair fails the whole invocation.
func TestMultiPairCompares(t *testing.T) {
	slow := strings.ReplaceAll(baseDoc, "1000", "2000")
	a1 := writeJSON(t, "a-old.json", baseDoc)
	a2 := writeJSON(t, "a-new.json", baseDoc)
	b1 := writeJSON(t, "b-old.json", baseDoc)
	b2 := writeJSON(t, "b-new.json", slow)

	var out bytes.Buffer
	code, err := run([]string{a1, a2, b1, b2}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit code %d, want 1 (second pair regressed)\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("missing REGRESSION marker:\n%s", out.String())
	}

	out.Reset()
	code, err = run([]string{a1, a2, b1, b1}, &out)
	if err != nil || code != 0 {
		t.Fatalf("clean pairs: code %d err %v\n%s", code, err, out.String())
	}
}

// TestOddArgsRejected: a dangling file without its pair is a usage error.
func TestOddArgsRejected(t *testing.T) {
	p := writeJSON(t, "x.json", baseDoc)
	if _, err := run([]string{p, p, p}, &bytes.Buffer{}); err == nil {
		t.Fatal("three files accepted; want pair-count error")
	}
}

// TestMarkdownSummary: -md writes a table covering every compared
// series of every pair, with regressions flagged.
func TestMarkdownSummary(t *testing.T) {
	slow := strings.ReplaceAll(baseDoc, "1000", "9000")
	a := writeJSON(t, "old.json", baseDoc)
	b := writeJSON(t, "new.json", slow)
	md := filepath.Join(t.TempDir(), "summary.md")

	var out bytes.Buffer
	code, err := run([]string{"-md", md, a, b}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	data, err := os.ReadFile(md)
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	for _, want := range []string{"| pair |", "**REGRESSION**", "benchmarks/BenchmarkA", "ok"} {
		if !strings.Contains(got, want) {
			t.Errorf("markdown missing %q:\n%s", want, got)
		}
	}
}
