package harness

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config {
	c := Quick()
	c.Nx, c.Nz, c.Nc = 72, 18, 2
	c.WarmupSteps = 30
	c.RestartSteps = 40
	c.SampleEvery = 10
	c.Repeats = 1
	return c
}

var update = flag.Bool("update", false, "rewrite testdata/tables_tiny.golden from this run")

// volatileColumns are the header words of columns that carry wall-clock
// readings or figures derived from them (interval's waste is a function of
// the measured checkpoint cost; serve's shed count of who won the race for an
// admission slot).
var volatileColumns = []string{"[ms]", "MB/s", "wall", "overhead", "makespan", "cost", "interval", "runtime", "waste", "shed"}

// volatileTables are the experiments with such columns: the golden holds their
// id, title, header, row count, note count and every other column. The rest
// are held to their whole CSV.
var volatileTables = map[string]bool{
	"fig9": true, "ablate-gzip": true, "cluster": true, "interval": true,
	"guard": true, "entropy": true, "serve": true, "dedup": true,
}

// goldenForm renders tab the way testdata/tables_tiny.golden records it.
func goldenForm(t *testing.T, tab *Table) string {
	t.Helper()
	masked := *tab
	masked.Rows = make([][]string, len(tab.Rows))
	for ri, row := range tab.Rows {
		masked.Rows[ri] = append([]string(nil), row...)
	}
	switch {
	case tab.ID == "tab1":
		// The first four rows describe the host the test runs on.
		for ri := 0; ri < 4 && ri < len(masked.Rows); ri++ {
			masked.Rows[ri][1] = "*"
		}
	case volatileTables[tab.ID]:
		for _, row := range masked.Rows {
			// The tuner picks by measured throughput, so an autotune row's
			// label and rate follow the clock too.
			autotune := strings.HasPrefix(row[0], "autotune ")
			for ci, h := range tab.Header {
				volatile := autotune
				for _, word := range volatileColumns {
					volatile = volatile || strings.Contains(h, word)
				}
				if volatile && ci < len(row) {
					row[ci] = "*"
				}
			}
		}
		masked.Notes = make([]string, len(tab.Notes))
		for i := range masked.Notes {
			masked.Notes[i] = "*"
		}
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "== %s: %s ==\n", tab.ID, tab.Title)
	if err := masked.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte('\n')
	return buf.String()
}

// TestAllRunnersProduceTables runs every experiment at tiny() scale and holds
// what it prints to testdata/tables_tiny.golden, recorded before the runners
// became the Experiments table: a change to this package that moves a title, a header, a
// row, a note or a deterministic cell fails here. Regenerate with -update only
// for a change that means to move them.
func TestAllRunnersProduceTables(t *testing.T) {
	cfg := tiny()
	var got strings.Builder
	for _, e := range Experiments {
		id := e.ID
		tab, err := Run(id, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Header) == 0 || len(tab.Rows) == 0 {
			t.Errorf("%s: empty table", id)
		}
		for ri, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Errorf("%s: row %d has %d cells for %d columns", id, ri, len(row), len(tab.Header))
			}
		}
		got.WriteString(goldenForm(t, tab))
	}

	const path = "testdata/tables_tiny.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	// The golden was recorded on amd64. Where the compiler fuses multiply-adds
	// (arm64, ppc64le, s390x) the last digits of the float columns may differ,
	// so only the structural checks above run there.
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden recorded on amd64, running on %s", runtime.GOARCH)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("tables differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("tables differ from %s in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestServeChaosStopsItsDaemonOnError: an error return after the first daemon
// is up (here: every save of the load phase fails at the transport) used to
// leave its listener, its tenants' open stores and the FaultFS alive over the
// directories the deferred RemoveAll deletes.
func TestServeChaosStopsItsDaemonOnError(t *testing.T) {
	cfg := tiny()
	cfg.TmpDir = t.TempDir()

	var mu sync.Mutex
	var daemon string // host:port the experiment's clients dialled
	orig := http.DefaultTransport
	http.DefaultTransport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
		mu.Lock()
		defer mu.Unlock()
		daemon = r.URL.Host
		return nil, errors.New("injected transport failure")
	})
	_, err := Run("serve", cfg)
	http.DefaultTransport = orig
	if err == nil || !strings.Contains(err.Error(), "injected transport failure") {
		t.Fatalf("serve with a failing transport returned %v", err)
	}
	if conn, derr := net.DialTimeout("tcp", daemon, time.Second); derr == nil {
		conn.Close()
		t.Errorf("the daemon on %s still accepts connections after serve returned %q", daemon, err)
	}
	if left, _ := os.ReadDir(cfg.TmpDir); len(left) != 0 {
		t.Errorf("serve left %d entries under its TmpDir", len(left))
	}
	if _, err := Run("serve", cfg); err != nil {
		t.Errorf("a second serve on the same TmpDir: %v", err)
	}
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func TestFig6Shape(t *testing.T) {
	tab, err := Run("fig6", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("fig6 rows = %d, want 3", len(tab.Rows))
	}
	gzip := parseFloat(t, tab.Rows[0][1])
	simple := parseFloat(t, tab.Rows[1][1])
	proposed := parseFloat(t, tab.Rows[2][1])
	// The paper's headline: both lossy rates far below gzip.
	if simple >= gzip || proposed >= gzip {
		t.Errorf("lossy (%.1f / %.1f) not below gzip (%.1f)", simple, proposed, gzip)
	}
}

func TestFig7Shape(t *testing.T) {
	tab, err := Run("fig7", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(DivisionSweep) {
		t.Fatalf("fig7 rows = %d", len(tab.Rows))
	}
	// Proposed cr ≥ simple cr at equal n (proposed stores passthroughs).
	for _, row := range tab.Rows {
		s, p := parseFloat(t, row[1]), parseFloat(t, row[2])
		if p < s-1 { // tolerate ~1pp noise
			t.Errorf("n=%s: proposed cr %.2f far below simple %.2f", row[0], p, s)
		}
	}
}

func TestFig8ErrorTrend(t *testing.T) {
	tab, err := Run("fig8", tiny())
	if err != nil {
		t.Fatal(err)
	}
	first, last := tab.Rows[0], tab.Rows[len(tab.Rows)-1]
	for col := 1; col <= 2; col++ { // simple avg, proposed avg
		if parseFloat(t, last[col]) > parseFloat(t, first[col]) {
			t.Errorf("column %d: error grew from n=1 to n=128", col)
		}
	}
	// Proposed ≤ simple at n=128.
	if parseFloat(t, last[2]) > parseFloat(t, last[1]) {
		t.Errorf("proposed err %s above simple %s at n=128", last[2], last[1])
	}
}

func TestFig9ShapeAndCrossover(t *testing.T) {
	tab, err := Run("fig9", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(ParallelismSweep) {
		t.Fatalf("fig9 rows = %d", len(tab.Rows))
	}
	// With-compression totals must grow more slowly than without.
	firstWith := parseFloat(t, tab.Rows[0][7])
	lastWith := parseFloat(t, tab.Rows[len(tab.Rows)-1][7])
	firstWithout := parseFloat(t, tab.Rows[0][8])
	lastWithout := parseFloat(t, tab.Rows[len(tab.Rows)-1][8])
	if lastWith-firstWith >= lastWithout-firstWithout {
		t.Error("with-compression slope not flatter than without")
	}
}

func TestFig10ErrorsBoundedAndSampled(t *testing.T) {
	cfg := tiny()
	tab, err := Run("fig10", cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := cfg.RestartSteps/cfg.SampleEvery + 1
	if len(tab.Rows) != wantRows {
		t.Fatalf("fig10 rows = %d, want %d", len(tab.Rows), wantRows)
	}
	for _, row := range tab.Rows {
		s, p := parseFloat(t, row[1]), parseFloat(t, row[2])
		if s < 0 || p < 0 || s > 50 || p > 50 {
			t.Errorf("step %s: errors out of plausible range: %g %g", row[0], s, p)
		}
	}
	// Immediate error at the restart step must be nonzero (it is the lossy
	// compression error) and small.
	if parseFloat(t, tab.Rows[0][2]) <= 0 {
		t.Error("zero immediate error after lossy restart")
	}
}

func TestRenderAndCSV(t *testing.T) {
	tab := &Table{
		ID:     "demo",
		Title:  "demo table",
		Header: []string{"a", "b"},
		Notes:  []string{"a note"},
	}
	tab.AddRow("x", 1.5)
	tab.AddRow("y,z", 2)

	var txt bytes.Buffer
	if err := tab.Render(&txt); err != nil {
		t.Fatal(err)
	}
	out := txt.String()
	for _, want := range []string{"demo table", "y,z  2", "x    1.5", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}

	var csv bytes.Buffer
	if err := tab.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if lines[0] != "a,b" {
		t.Errorf("csv header = %q", lines[0])
	}
	if lines[2] != `"y,z",2` {
		t.Errorf("csv quoting = %q", lines[2])
	}
	if lines[3] != "# a note" {
		t.Errorf("csv note = %q", lines[3])
	}
}

func TestQuickAndDefaultConfigs(t *testing.T) {
	d := Default()
	if d.Nx != 1156 || d.Nz != 82 || d.WarmupSteps != 720 || d.RestartSteps != 1500 {
		t.Errorf("Default() not paper-faithful: %+v", d)
	}
	q := Quick()
	if q.Nx >= d.Nx || q.WarmupSteps >= d.WarmupSteps {
		t.Errorf("Quick() not smaller than Default(): %+v", q)
	}
}
