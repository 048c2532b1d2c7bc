package harness

import (
	"fmt"
	"runtime"

	"lossyckpt/internal/climate"
	"lossyckpt/internal/core"
	"lossyckpt/internal/gzipio"
	"lossyckpt/internal/iomodel"
	"lossyckpt/internal/quant"
	"lossyckpt/internal/stats"
)

// DivisionSweep is the paper's set of division numbers n (Figs. 7–8).
var DivisionSweep = []int{1, 2, 4, 8, 16, 32, 64, 128}

// ParallelismSweep is the paper's process-count axis (Fig. 9).
var ParallelismSweep = []int{256, 512, 768, 1024, 1280, 1536, 1792, 2048}

// bothMethods is the paper's pair of quantizers, in its column order.
var bothMethods = []quant.Method{quant.Simple, quant.Proposed}

// table1 reports the experimental environment — the analogue of the
// paper's Table I (its in-house cluster + NFS), which here is this host
// plus the modeled parallel filesystem.
func table1(cfg Config, t *Table) error {
	t.AddRow("CPU architecture", runtime.GOARCH)
	t.AddRow("OS", runtime.GOOS)
	t.AddRow("logical CPUs", runtime.NumCPU())
	t.AddRow("Go runtime", runtime.Version())
	t.AddRow("modeled shared FS bandwidth", fmt.Sprintf("%.0f GB/s", iomodel.PaperFS.BandwidthBytesPerSec/1e9))
	t.AddRow("workload grid", fmt.Sprintf("%dx%dx%d doubles (%.2f MB/array)", cfg.Nx, cfg.Nz, cfg.Nc, float64(cfg.Nx*cfg.Nz*cfg.Nc*8)/1e6))
	t.Notes = append(t.Notes, "paper Table I: Core i7-3930K, DDR3 16GB, NFS v3 over RAID6 — replaced per DESIGN.md §2")
	return nil
}

// fig6 compares the compression rates of gzip against the lossy pipeline
// with simple and proposed quantization at n=128 (paper Fig. 6; its values
// are 86.78% for gzip and roughly 12% / 17% for the lossy methods on the
// temperature array).
func fig6(cfg Config, t *Table) error {
	temp, err := cfg.temperature()
	if err != nil {
		return err
	}
	gz, err := cfg.gzipOnly(temp)
	if err != nil {
		return err
	}
	t.AddRow("gzip", gz.CompressionRatePct(), gz.CompressedBytes, gz.RawBytes)
	for _, method := range bothMethods {
		res, err := core.Compress(temp, cfg.options(method, 128))
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("lossy/%s (n=128)", method), res.CompressionRatePct(), res.CompressedBytes, res.RawBytes)
	}
	t.Notes = append(t.Notes, "paper: gzip 86.78%, simple 12.10%, proposed 16.75%")
	return nil
}

// fig7 sweeps the division number n for both quantization methods and
// reports compression rates on the temperature array (paper Fig. 7).
func fig7(cfg Config, t *Table) error {
	temp, err := cfg.temperature()
	if err != nil {
		return err
	}
	for _, n := range DivisionSweep {
		row := []any{n}
		for _, method := range bothMethods {
			res, err := core.Compress(temp, cfg.options(method, n))
			if err != nil {
				return err
			}
			row = append(row, res.CompressionRatePct())
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "paper: simple 11.06%→12.10%, proposed 14.43%→16.75% over n=1→128")
	return nil
}

// fig8 sweeps the division number n and reports average relative errors on
// the temperature array (paper Fig. 8).
func fig8(cfg Config, t *Table) error {
	temp, err := cfg.temperature()
	if err != nil {
		return err
	}
	for _, n := range DivisionSweep {
		var avgs, maxs []any
		for _, method := range bothMethods {
			_, s, err := roundTrip(temp, cfg.options(method, n))
			if err != nil {
				return err
			}
			avgs = append(avgs, s.AvgPct)
			maxs = append(maxs, s.MaxPct)
		}
		t.AddRow(append(append([]any{n}, avgs...), maxs...)...)
	}
	t.Notes = append(t.Notes, "paper: simple 0.74%→0.025%, proposed 0.49%→0.0056% over n=1→128")
	return nil
}

// fig8AllArrays reports per-array average and maximum relative errors for
// every physical quantity at n=128 (the paper's §IV-C in-text ranges:
// simple avg 0.0053–14.56%, max 0.048–56.84%; proposed avg 0.0004–1.19%,
// max 0.0022–5.94%).
func fig8AllArrays(cfg Config, t *Table) error {
	m, err := cfg.model()
	if err != nil {
		return err
	}
	for _, nf := range m.Fields() {
		row := []any{nf.Name}
		for _, method := range bothMethods {
			_, s, err := roundTrip(nf.Field, cfg.options(method, 128))
			if err != nil {
				return err
			}
			row = append(row, s.AvgPct, s.MaxPct)
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper ranges: simple avg 0.0053–14.56%, simple max 0.048–56.84%, proposed avg 0.0004–1.19%, proposed max 0.0022–5.94%")
	return nil
}

// measureBreakdown compresses the temperature array Repeats times in the
// paper prototype's temp-file mode and returns the median-total timing
// breakdown, the measured compression rate (as a fraction), and the raw
// array size.
func measureBreakdown(cfg Config) (core.Timings, float64, int, error) {
	temp, err := cfg.temperature()
	if err != nil {
		return core.Timings{}, 0, 0, err
	}
	opts := cfg.options(quant.Proposed, 128)
	opts.GzipMode = gzipio.TempFile
	runs, err := cfg.compressRuns(temp, opts)
	if err != nil {
		return core.Timings{}, 0, 0, err
	}
	med := runs[len(runs)/2]
	return med.Timings, float64(med.CompressedBytes) / float64(med.RawBytes), med.RawBytes, nil
}

// fig9 measures the per-process compression breakdown and projects overall
// checkpoint time across the paper's parallelism sweep using the I/O model
// (paper Fig. 9: crossover around P=768, 55% saving at P=2048, 81%
// asymptotically).
func fig9(cfg Config, t *Table) error {
	timings, rate, rawBytes, err := measureBreakdown(cfg)
	if err != nil {
		return err
	}
	est := iomodel.Estimator{
		PerProcessBytes: int64(rawBytes),
		CompressionRate: rate,
		FS:              iomodel.PaperFS,
		Compression:     timings,
	}
	rows, err := est.Sweep(ParallelismSweep)
	if err != nil {
		return err
	}
	for _, b := range rows {
		t.AddRow(b.P, ms(b.Wavelet), ms(b.Quantize), ms(b.TempWrite), ms(b.Gzip),
			ms(b.Other), ms(b.IO), ms(b.TotalWith), ms(b.TotalWithout))
	}
	cross, err := est.Crossover(1 << 24)
	if err != nil {
		return err
	}
	saving2048, err := est.SavingPctAt(2048)
	if err != nil {
		return err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("measured compression rate: %.1f%% of original (%d bytes/process)", 100*rate, rawBytes),
		fmt.Sprintf("crossover: compression wins from P=%d (paper: ≈768)", cross),
		fmt.Sprintf("saving at P=2048: %.0f%% (paper: 55%%)", saving2048),
		fmt.Sprintf("asymptotic saving: %.0f%% (paper: 81%%)", est.AsymptoticSavingPct()),
	)
	return nil
}

// fig10 reproduces the restart study (paper Fig. 10): run the model to the
// checkpoint step, checkpoint the temperature array with both quantization
// methods, restart from the lossy state, and track the average relative
// error of the temperature array against the uninterrupted reference run.
func fig10(cfg Config, t *Table) error {
	ref, err := cfg.model() // runs to WarmupSteps
	if err != nil {
		return err
	}

	// Build the two restarted models: copies of the reference whose state
	// passed through the lossy compressor.
	restarted := make([]*climate.Model, len(bothMethods))
	for i, method := range bothMethods {
		restarted[i] = ref.Clone()
		for _, nf := range restarted[i].Fields() {
			g, _, err := core.RoundTrip(nf.Field, cfg.options(method, 128))
			if err != nil {
				return err
			}
			copy(nf.Field.Data(), g.Data())
		}
	}

	stride := max(cfg.SampleEvery, 1)
	series := make([][]float64, len(bothMethods)) // per method, per sample
	sample := func() error {
		row := []any{ref.StepCount()}
		for i, m := range restarted {
			s, err := stats.Compare(ref.Field("temperature").Data(), m.Field("temperature").Data())
			if err != nil {
				return err
			}
			series[i] = append(series[i], s.AvgPct)
			row = append(row, s.AvgPct)
		}
		t.AddRow(row...)
		return nil
	}
	if err := sample(); err != nil { // immediate (restart-step) error
		return err
	}
	for done := 0; done < cfg.RestartSteps; done += stride {
		n := min(stride, cfg.RestartSteps-done)
		ref.StepN(n)
		for _, m := range restarted {
			m.StepN(n)
		}
		if err := sample(); err != nil {
			return err
		}
	}

	for i, method := range bothMethods {
		if c, r2, err := stats.RandomWalkFit(series[i]); err == nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: √t fit err≈%.3g·√t, R²=%.2f (paper: errors grow like a 1D random walk)", method, c, r2))
		}
	}
	simple, proposed := series[0], series[1]
	if last := len(simple) - 1; proposed[last] < simple[last] {
		t.Notes = append(t.Notes, "proposed quantization tracks the reference more closely than simple (matches paper)")
	} else {
		t.Notes = append(t.Notes, "WARNING: proposed quantization did NOT beat simple at the final step (paper expects it to)")
	}
	return nil
}
