package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
)

// promLine matches one Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[+-]?Inf|[-+]?[0-9.eE+-]+)$`)

func populated() *Registry {
	r := NewRegistry()
	r.Counter("lossyckpt_demo_total", "kind", "single").Add(3)
	r.Counter("lossyckpt_demo_total", "kind", "chunked").Add(1)
	r.Gauge("lossyckpt_quality_psnr_db", "var", `tricky"name\`).Set(74.5)
	h := r.Histogram("lossyckpt_compress_wall_seconds", DurationBuckets)
	h.Observe(0.002)
	h.Observe(0.2)
	return r
}

func TestWritePrometheusParseable(t *testing.T) {
	var sb strings.Builder
	if err := populated().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	sc := bufio.NewScanner(strings.NewReader(out))
	samples := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("unparseable sample line: %q", line)
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("no samples emitted")
	}
	for _, want := range []string{
		"# TYPE lossyckpt_demo_total counter",
		`lossyckpt_demo_total{kind="single"} 3`,
		"# TYPE lossyckpt_compress_wall_seconds histogram",
		`lossyckpt_compress_wall_seconds_bucket{le="+Inf"} 2`,
		"lossyckpt_compress_wall_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// The escaped label value must round-trip the quote and backslash.
	if !strings.Contains(out, `var="tricky\"name\\"`) {
		t.Errorf("label escaping wrong:\n%s", out)
	}
	// TYPE lines must not repeat per labeled series.
	if strings.Count(out, "# TYPE lossyckpt_demo_total") != 1 {
		t.Error("duplicate TYPE line for labeled series")
	}
}

func TestJSONSnapshotRoundTrips(t *testing.T) {
	var sb strings.Builder
	if err := populated().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	metrics, ok := snap["metrics"].([]any)
	if !ok || len(metrics) == 0 {
		t.Fatal("snapshot has no metrics array")
	}
	// The registry holds numbers; what happened is the journal's.
	for _, k := range []string{"events", "dropped_events"} {
		if _, ok := snap[k]; ok {
			t.Errorf("snapshot has an %q key", k)
		}
	}
}

func TestWriteSummaryTable(t *testing.T) {
	var sb strings.Builder
	if err := populated().WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"metric", "lossyckpt_demo_total", "count=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	// Empty registry → no output at all.
	var empty strings.Builder
	if err := NewRegistry().WriteSummary(&empty); err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Errorf("empty registry produced output: %q", empty.String())
	}
}

func TestServeEndpoints(t *testing.T) {
	r := populated()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "lossyckpt_demo_total") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	if out := get("/metrics.json"); !strings.Contains(out, `"metrics"`) {
		t.Errorf("/metrics.json not a snapshot:\n%s", out)
	}
	if out := get("/summary"); !strings.Contains(out, "metric") {
		t.Errorf("/summary empty:\n%s", out)
	}
	if out := get("/debug/pprof/cmdline"); len(out) == 0 {
		t.Error("/debug/pprof/cmdline empty")
	}
	if out := get("/"); !strings.Contains(out, "/metrics") {
		t.Errorf("index missing endpoint list:\n%s", out)
	}
}
