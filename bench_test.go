// Package lossyckpt's root benchmark suite regenerates every table and
// figure of Sasaki et al. (IPDPS 2015) as a testing.B benchmark (one per
// artifact, per DESIGN.md §4), plus micro-benchmarks of the individual
// pipeline stages. Benchmarks run the scaled-down Quick workload so the
// whole suite finishes in minutes; `go run ./cmd/experiments` regenerates
// the paper-scale numbers.
package lossyckpt

import (
	"io"
	"testing"

	"lossyckpt/internal/ckpt"
	"lossyckpt/internal/climate"
	"lossyckpt/internal/core"
	"lossyckpt/internal/fpc"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/gzipio"
	"lossyckpt/internal/harness"
	"lossyckpt/internal/quant"
	"lossyckpt/internal/wavelet"
)

// benchConfig is the scaled-down workload shared by the figure benchmarks.
func benchConfig() harness.Config {
	c := harness.Quick()
	c.Nx, c.Nz, c.Nc = 144, 20, 2
	c.WarmupSteps = 40
	c.RestartSteps = 60
	c.SampleEvery = 20
	c.Repeats = 1
	return c
}

func runFigure(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tab, err := harness.Run(id, cfg)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if err := tab.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper artifact (Table I, Figs. 6-10) -------------

func BenchmarkTable1(b *testing.B) { runFigure(b, "tab1") }

func BenchmarkFig6CompressionRates(b *testing.B) { runFigure(b, "fig6") }

func BenchmarkFig7DivisionSweepRates(b *testing.B) { runFigure(b, "fig7") }

func BenchmarkFig8DivisionSweepErrors(b *testing.B) { runFigure(b, "fig8") }

func BenchmarkFig8AllArrays(b *testing.B) { runFigure(b, "fig8-all") }

func BenchmarkFig9ScalingEstimate(b *testing.B) { runFigure(b, "fig9") }

func BenchmarkFig10RestartStudy(b *testing.B) { runFigure(b, "fig10") }

// --- Extension experiments (DESIGN.md X1-X5) -----------------------------

func BenchmarkX1AblateGzipMode(b *testing.B) { runFigure(b, "ablate-gzip") }

func BenchmarkX2ErrorBound(b *testing.B) { runFigure(b, "errbound") }

func BenchmarkX3FPCBaseline(b *testing.B) { runFigure(b, "fpc") }

func BenchmarkX4NBody(b *testing.B) { runFigure(b, "nbody") }

func BenchmarkX5Levels(b *testing.B) { runFigure(b, "levels") }

func BenchmarkX6Cluster(b *testing.B) { runFigure(b, "cluster") }

func BenchmarkX7Interval(b *testing.B) { runFigure(b, "interval") }

func BenchmarkX8PerBand(b *testing.B) { runFigure(b, "perband") }

func BenchmarkX9Threshold(b *testing.B) { runFigure(b, "threshold") }

func BenchmarkX10Faults(b *testing.B) { runFigure(b, "faults") }

func BenchmarkX11Incremental(b *testing.B) { runFigure(b, "incremental") }

func BenchmarkX12Datasets(b *testing.B) { runFigure(b, "datasets") }

// --- Stage micro-benchmarks on the paper-sized array --------------------

// paperArray builds one paper-shaped (1156×82×2, ~1.5 MB) temperature
// array without the expensive warm-up.
func paperArray(b *testing.B) *grid.Field {
	b.Helper()
	cfg := climate.DefaultConfig()
	m, err := climate.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m.StepN(3)
	return m.Field("temperature")
}

func BenchmarkStageWaveletTransform(b *testing.B) {
	f := paperArray(b)
	plan, err := wavelet.NewPlan(f.Shape(), 1, wavelet.Haar)
	if err != nil {
		b.Fatal(err)
	}
	work := f.Clone()
	b.SetBytes(int64(f.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.Transform(work); err != nil {
			b.Fatal(err)
		}
		if err := plan.Inverse(work); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStageQuantizeSimple(b *testing.B) {
	benchmarkQuantize(b, quant.Simple)
}

func BenchmarkStageQuantizeProposed(b *testing.B) {
	benchmarkQuantize(b, quant.Proposed)
}

func benchmarkQuantize(b *testing.B, method quant.Method) {
	b.Helper()
	f := paperArray(b).Clone()
	plan, _ := wavelet.NewPlan(f.Shape(), 1, wavelet.Haar)
	if err := plan.Transform(f); err != nil {
		b.Fatal(err)
	}
	high, err := plan.GatherHigh(f, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * len(high)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := quant.Quantize(high, quant.Config{Method: method, Divisions: 128}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStageFullPipeline(b *testing.B) {
	f := paperArray(b)
	opts := core.DefaultOptions()
	b.SetBytes(int64(f.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compress(f, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStageDecompress(b *testing.B) {
	f := paperArray(b)
	res, err := core.Compress(f, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(f.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Decompress(res.Data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineGzip(b *testing.B) {
	f := paperArray(b)
	b.SetBytes(int64(f.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CompressGzipOnly(f, gzipio.Default, gzipio.InMemory, ""); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineFPC(b *testing.B) {
	f := paperArray(b)
	b.SetBytes(int64(f.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fpc.Compress(f.Data(), fpc.DefaultTableBits); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointManagerLossy(b *testing.B) {
	cfg := climate.DefaultConfig()
	cfg.Nx, cfg.Nz = 289, 41
	m, err := climate.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m.StepN(5)
	mgr := ckpt.NewManager(ckpt.NewLossy(), 0)
	total := 0
	for _, nf := range m.Fields() {
		if err := mgr.Register(nf.Name, nf.Field); err != nil {
			b.Fatal(err)
		}
		total += nf.Field.Bytes()
	}
	b.SetBytes(int64(total))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.Checkpoint(io.Discard, i); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClimateStep(b *testing.B) {
	cfg := climate.DefaultConfig()
	m, err := climate.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(cfg.Nx * cfg.Nz * cfg.Nc * 8 * 5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}
