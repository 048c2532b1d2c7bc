// Package harness regenerates every table and figure of the evaluation
// section of Sasaki et al. (IPDPS 2015), plus the extension experiments
// listed in DESIGN.md §4. Experiments is the one index: each entry fills a
// Table — the same rows or series the paper plots — that cmd/experiments
// renders as text or CSV and EXPERIMENTS.md records. The files are named by
// what they measure: paper.go (Table I, Figs. 6-10), codec.go (what the
// compressor does to an array), system.go (what a checkpointing system does
// with it), quality.go (the workload fixtures and the quality report).
//
// Experiments take a Config so tests can execute them on scaled-down grids;
// the zero-effort Default() matches the paper's setup (1156×82×2 arrays,
// 720 warm-up steps, d=64).
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"lossyckpt/internal/climate"
	"lossyckpt/internal/core"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/gzipio"
	"lossyckpt/internal/quant"
	"lossyckpt/internal/stats"
)

// Experiment is one entry of the evaluation.
type Experiment struct {
	// ID is the experiment identifier from DESIGN.md §4 (e.g. "fig7").
	ID string
	// Title and Header are the table's caption and column names.
	Title  string
	Header []string
	// Run fills the rows and notes of a table that already carries the
	// three fields above.
	Run func(cfg Config, t *Table) error
}

// Experiments lists every experiment in canonical order: what
// `experiments -list` prints and `-run all` executes.
var Experiments = []Experiment{
	{"tab1", "System specification (measured host + modeled parallel FS)",
		[]string{"component", "value"}, table1},
	{"fig6", "Compression rate: gzip vs lossy (simple / proposed, n=128), temperature array",
		[]string{"method", "compression rate [%]", "compressed bytes", "original bytes"}, fig6},
	{"fig7", "Compression rate vs division number n, temperature array",
		[]string{"n", "simple cr [%]", "proposed cr [%]"}, fig7},
	{"fig8", "Average relative error [%] vs division number n, temperature array",
		[]string{"n", "simple avg err [%]", "proposed avg err [%]", "simple max err [%]", "proposed max err [%]"}, fig8},
	{"fig8-all", "Per-array relative errors at n=128, all physical quantities",
		[]string{"array", "simple avg [%]", "simple max [%]", "proposed avg [%]", "proposed max [%]"}, fig8AllArrays},
	{"fig9", "Overall checkpoint time vs parallelism (measured compression + modeled 20 GB/s PFS)",
		[]string{"P", "wavelet [ms]", "quant+enc [ms]", "temp write [ms]", "gzip [ms]",
			"other [ms]", "I/O [ms]", "total w/ comp [ms]", "total w/o comp [ms]"}, fig9},
	{"fig10", "Relative error of the temperature array after lossy restart vs time step",
		[]string{"step", "simple avg err [%]", "proposed avg err [%]"}, fig10},
	{"ablate-gzip", "DEFLATE stage: paper prototype (gzip via temp file) vs proposed improvement (zlib in memory)",
		[]string{"configuration", "temp write [ms]", "deflate [ms]", "total [ms]", "cr [%]"}, ablateGzip},
	{"errbound", "Error-bound-driven division selection (paper §IV-C future work), temperature high band",
		[]string{"max-error bound", "chosen n", "achieved max err", "quantized values"}, errBound},
	{"fpc", "Lossless baselines per array: gzip vs FPC vs lossy (proposed, n=128)",
		[]string{"array", "gzip cr [%]", "fpc cr [%]", "lossy cr [%]"}, fpcBaseline},
	{"nbody", "Lossy compression on N-body particle arrays (non-smooth data)",
		[]string{"array", "cr [%]", "avg err [%]", "max err [%]", "quantized [%]"}, nBody},
	{"levels", "Decomposition-depth and kernel ablation, temperature array (proposed, n=128)",
		[]string{"scheme", "levels", "cr [%]", "avg err [%]", "max err [%]"}, levels},
	{"cluster", "Executed cluster checkpoint: measured parallel compression + modeled PFS",
		[]string{"ranks", "cr [%]", "compress makespan [ms]", "I/O w/ comp [ms]",
			"total w/ comp [ms]", "total w/o comp [ms]"}, cluster},
	{"interval", fmt.Sprintf("Daly-optimal checkpoint intervals at P=%d, MTBF=%v, %v of work", intervalProcs, intervalMTBF, intervalSolve),
		[]string{"scenario", "ckpt cost", "optimal interval", "waste [%]", "expected runtime"}, dalyInterval},
	{"perband", "Pooled (paper) vs per-band quantization, temperature array, n=128",
		[]string{"method", "mode", "cr [%]", "avg err [%]", "max err [%]"}, perBand},
	{"threshold", "Coefficient thresholding before quantization (proposed, n=128), temperature array",
		[]string{"threshold", "cr [%]", "avg err [%]", "max err [%]"}, threshold},
	{"faults", "Failure injection: lossy vs lossless checkpoints under exponential failures",
		[]string{"codec", "MTBF", "failures", "rework steps", "overhead [%]",
			"final avg err [%]", "final max err [%]"}, faults},
	{"incremental", "Incremental vs gzip vs lossy checkpointing (paper §I argument)",
		[]string{"workload", "incremental cr [%]", "gzip cr [%]", "lossy cr [%]"}, incremental},
	{"datasets", "Compressor behaviour across data classes (n=128)",
		[]string{"dataset", "gzip cr [%]", "fpc cr [%]",
			"simple cr [%]", "simple err [%]",
			"proposed cr [%]", "proposed err [%]", "proposed PSNR [dB]"}, datasets},
	{"sections", "Stage 4 by container section: bytes in, bytes out as 8-byte words (format 1) and as byte lanes (format 2) (proposed, n=128)",
		[]string{"dataset", "section", "in [B]", "in [% raw]", "words out [B]", "lanes out [B]", "lanes out/in", "lanes out [% raw]"}, sections},
	{"guard", "Bounded-error enforcement: overhead vs guarantee (temperature array)",
		[]string{"policy", "verify", "wall [ms]", "overhead [%]",
			"cr [%]", "mode", "escalations", "max-abs", "psnr [dB]"}, guardOverhead},
	{"entropy", "Entropy stage: codec x shuffle x block size, temperature array (proposed, n=128)",
		[]string{"configuration", "total [ms]", "entropy [ms]", "entropy [MB/s]", "decode [ms]", "cr [%]"}, entropyStage},
	{"qa", "Quality analytics: error distributions and rate-distortion across workloads",
		[]string{"workload", "var", "max-abs", "max-rel", "PSNR [dB]",
			"bits/val @min-div", "bits/val @max-div"}, qualityAnalytics},
	{"serve", "Checkpoint daemon under multi-tenant load with a mid-save kill",
		[]string{"tenant", "saves ok", "shed (429)", "kill", "restored gen",
			"fields intact", "fsck clean"}, serveChaos},
	{"dedup", "Delta checkpoints through the content-addressed chunk store (sparse-update sweep)",
		[]string{"mutation [%]", "gen", "logical [KiB]", "committed [KiB]",
			"dedup ratio", "compress [ms]", "slabs reused"}, dedup},
}

// Run executes the experiment named id and returns its table.
func Run(id string, cfg Config) (*Table, error) {
	for _, e := range Experiments {
		if e.ID == id {
			t := &Table{ID: e.ID, Title: e.Title, Header: e.Header}
			if err := e.Run(cfg, t); err != nil {
				return nil, err
			}
			return t, nil
		}
	}
	return nil, fmt.Errorf("harness: unknown experiment %q", id)
}

// Config scales the experiment workloads.
type Config struct {
	// Nx, Nz, Nc are the climate grid extents (paper: 1156×82×2).
	Nx, Nz, Nc int
	// WarmupSteps is how long the model runs before checkpointing
	// (paper: 720).
	WarmupSteps int
	// RestartSteps is how far the Fig. 10 study runs past the checkpoint
	// (paper: 1500, to step 2220).
	RestartSteps int
	// SampleEvery is the Fig. 10 sampling stride in steps (paper plots
	// every 50).
	SampleEvery int
	// Seed drives all workload initializations (0 = each workload's own
	// default seed).
	Seed int64
	// TmpDir hosts temp-file-mode gzip scratch files ("" = system temp).
	TmpDir string
	// Repeats is how many times timing measurements are repeated (the
	// median is reported).
	Repeats int
	// EntropyCodec and EntropyShuffle carry the experiment CLI's
	// -codec/-shuffle flags: when set, the entropy experiment measures
	// that configuration as an extra row beside its fixed sweep
	// ("" = no extra row).
	EntropyCodec   string
	EntropyShuffle bool
	// Autotune carries the -autotune flag: the entropy experiment always
	// reports the balanced-objective autotuner; this adds the throughput
	// and ratio objectives.
	Autotune bool
	// ReportDir, when set, makes quality-aware experiments (qa, guard,
	// entropy) write their full per-workload quality reports
	// (markdown + JSON: error histograms, spectra, rate-distortion
	// curves) into this directory.
	ReportDir string
}

// Default returns the paper-faithful configuration. Running all figures at
// this scale takes on the order of minutes (dominated by the 2220-step
// Fig. 10 integration).
func Default() Config {
	return Config{
		Nx: climate.DefaultNx, Nz: climate.DefaultNz, Nc: climate.DefaultNc,
		WarmupSteps:  720,
		RestartSteps: 1500,
		SampleEvery:  50,
		Seed:         2015,
		Repeats:      5,
	}
}

// Quick returns a scaled-down configuration (≈1/16 of the paper's points,
// 1/8 of the steps) for smoke runs and tests.
func Quick() Config {
	c := Default()
	c.Nx, c.Nz = 289, 41
	c.WarmupSteps = 90
	c.RestartSteps = 180
	c.SampleEvery = 20
	c.Repeats = 3
	return c
}

// modelCache memoizes warmed-up models: the 720-step paper warm-up costs
// over a minute at full scale and most experiments need the same state.
// Cached models are cloned before being handed out, so callers can mutate
// freely.
var modelCache sync.Map // modelKey -> *climate.Model

type modelKey struct {
	nx, nz, nc, steps int
	seed              int64
}

// modelAt builds the climate workload and runs it for steps steps, cloning
// from the cache when the same configuration was already prepared.
func (c Config) modelAt(steps int) (*climate.Model, error) {
	key := modelKey{c.Nx, c.Nz, c.Nc, steps, c.Seed}
	if cached, ok := modelCache.Load(key); ok {
		return cached.(*climate.Model).Clone(), nil
	}
	mc := climate.DefaultConfig()
	mc.Nx, mc.Nz, mc.Nc = c.Nx, c.Nz, c.Nc
	if c.Seed != 0 {
		mc.Seed = c.Seed
	}
	m, err := climate.New(mc)
	if err != nil {
		return nil, err
	}
	m.StepN(steps)
	modelCache.Store(key, m)
	return m.Clone(), nil
}

// model is the climate workload at the checkpoint step, WarmupSteps in.
func (c Config) model() (*climate.Model, error) { return c.modelAt(c.WarmupSteps) }

// temperature is the array most experiments measure: the warmed-up model's
// temperature field.
func (c Config) temperature() (*grid.Field, error) {
	m, err := c.model()
	if err != nil {
		return nil, err
	}
	return m.Field("temperature"), nil
}

// options returns the pipeline options used throughout the figures.
func (c Config) options(method quant.Method, divisions int) core.Options {
	o := core.DefaultOptions()
	o.Method = method
	o.Divisions = divisions
	o.TmpDir = c.TmpDir
	return o
}

// gzipOnly is the lossless baseline: f's raw bytes through DEFLATE.
func (c Config) gzipOnly(f *grid.Field) (*core.Result, error) {
	return core.CompressGzipOnly(f, gzipio.Default, gzipio.InMemory, c.TmpDir)
}

// roundTrip compresses f, decompresses the stream and compares the two: the
// rate and the error of one operating point.
func roundTrip(f *grid.Field, opts core.Options) (*core.Result, stats.Summary, error) {
	g, res, err := core.RoundTrip(f, opts)
	if err != nil {
		return nil, stats.Summary{}, err
	}
	s, err := stats.Compare(f.Data(), g.Data())
	return res, s, err
}

// sortedRuns calls fn repeats times (at least once) and returns what it
// returned ordered by the duration each call reported, fastest first:
// element 0 is the best of N and element len/2 the median.
func sortedRuns[T any](repeats int, fn func() (T, time.Duration, error)) ([]T, error) {
	type run struct {
		v T
		d time.Duration
	}
	runs := make([]run, max(repeats, 1))
	for i := range runs {
		v, d, err := fn()
		if err != nil {
			return nil, err
		}
		runs[i] = run{v, d}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].d < runs[j].d })
	out := make([]T, len(runs))
	for i, r := range runs {
		out[i] = r.v
	}
	return out, nil
}

// compressRuns compresses f Repeats times under opts and returns the results
// ordered by their total time (sortedRuns).
func (c Config) compressRuns(f *grid.Field, opts core.Options) ([]*core.Result, error) {
	return sortedRuns(c.Repeats, func() (*core.Result, time.Duration, error) {
		res, err := core.Compress(f, opts)
		if err != nil {
			return nil, 0, err
		}
		return res, res.Timings.Total, nil
	})
}

// ms renders a duration as fractional milliseconds, the tables' time unit.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "fig7").
	ID string
	// Title describes the experiment.
	Title string
	// Header names the columns.
	Header []string
	// Rows are the data rows, already formatted.
	Rows [][]string
	// Notes carries free-form findings (crossover points, fits, paper
	// reference values).
	Notes []string
}

// AddRow appends a formatted row built from arbitrary values.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes an aligned text rendering.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", lineWidth(widths))); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func lineWidth(widths []int) int {
	total := 0
	for _, w := range widths {
		total += w
	}
	return total + 2*(len(widths)-1)
}

// CSV writes the table as comma-separated values (header + rows; notes are
// emitted as trailing comment lines).
func (t *Table) CSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	writeLine := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = esc(c)
		}
		_, err := fmt.Fprintln(w, strings.Join(parts, ","))
		return err
	}
	if err := writeLine(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeLine(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	return nil
}
