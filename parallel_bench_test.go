// Benchmarks for the intra-array parallel compression engine (ISSUE PR 1):
// a workers sweep over the chunked pipeline on the paper's NICAM array and
// a 16×-larger variant, plus allocation counts on the pooled hot paths, and
// the entry pipeline's workers sweep over a five-array checkpoint.
// `make bench-parallel` distills these into BENCH_parallel.json.
package lossyckpt

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"lossyckpt/internal/ckpt"
	"lossyckpt/internal/climate"
	"lossyckpt/internal/core"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/guard"
	"lossyckpt/internal/gzipio"
	"lossyckpt/internal/obs"
	"lossyckpt/internal/obs/journal"
	"lossyckpt/internal/tune"
)

// parallelChunkExtent slices the leading axis into ~128-plane slabs — large
// enough that per-chunk overhead is negligible, small enough that even the
// paper-sized array yields 10 chunks to spread over workers.
const parallelChunkExtent = 128

// syntheticClimate builds a smooth climate-like array of the given shape
// without the climate model's warm-up cost (the 16× array would take
// minutes to spin up).
func syntheticClimate(b *testing.B, shape ...int) *grid.Field {
	b.Helper()
	f, err := grid.New(shape...)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2015))
	idx := make([]int, len(shape))
	for off := range f.Data() {
		v := 250.0
		for d, i := range idx {
			v += 20 * math.Sin(2*math.Pi*float64(i)/float64(shape[d])*float64(d+1))
		}
		f.Data()[off] = v + 0.05*rng.NormFloat64()
		for d := len(idx) - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < shape[d] {
				break
			}
			idx[d] = 0
		}
	}
	return f
}

// workerSweep is the pool-size matrix the chunked benchmarks run: serial,
// two, four, and everything the machine has (deduplicated).
func workerSweep() []int {
	sweep := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 && p != 4 {
		sweep = append(sweep, p)
	}
	return sweep
}

func benchmarkChunkedParallel(b *testing.B, f *grid.Field) {
	b.Helper()
	for _, workers := range workerSweep() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Workers = workers
			b.SetBytes(int64(f.Bytes()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.CompressChunked(f, opts, parallelChunkExtent); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChunkedParallel/nicam compresses the paper's NICAM-shaped
// (1156×82×2) temperature array; /nicam16x is the same workload on a
// 16×-larger array (18496×82×2, ~24 MB), the scale where the worker pool
// must show ≥2× wall-clock speedup on a multicore machine.
func BenchmarkChunkedParallel(b *testing.B) {
	b.Run("nicam", func(b *testing.B) {
		benchmarkChunkedParallel(b, syntheticClimate(b, 1156, 82, 2))
	})
	b.Run("nicam16x", func(b *testing.B) {
		benchmarkChunkedParallel(b, syntheticClimate(b, 16*1156, 82, 2))
	})
}

// BenchmarkChunkedParallelDecompress sweeps the decode-side pool.
func BenchmarkChunkedParallelDecompress(b *testing.B) {
	f := syntheticClimate(b, 1156, 82, 2)
	res, err := core.CompressChunked(f, core.DefaultOptions(), parallelChunkExtent)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range workerSweep() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(f.Bytes()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.DecompressAnyParallel(res.Data, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpointStreamClimate5 sweeps the entry pipeline's worker
// count over the paper's checkpoint — the climate model's five 1156×82×2
// arrays — streamed into memory and restored from it, under the lossy
// codec and under guard PSNR ≥ 80. workers=1 is the serial entry loop;
// every row writes the same bytes.
func BenchmarkCheckpointStreamClimate5(b *testing.B) {
	model, err := climate.New(climate.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	model.StepN(3)
	sweep := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		sweep = append(sweep, p)
	}
	codecs := []struct {
		name string
		new  func() ckpt.Codec
	}{
		{"lossy", func() ckpt.Codec { return ckpt.NewLossy() }},
		{"guard", func() ckpt.Codec { return ckpt.NewGuard(guard.Policy{PSNRFloor: 80}) }},
	}
	for _, c := range codecs {
		for _, workers := range sweep {
			m := ckpt.NewManager(c.new(), workers)
			raw := 0
			for _, nf := range model.Fields() {
				if err := m.Register(nf.Name, nf.Field.Clone()); err != nil {
					b.Fatal(err)
				}
				raw += nf.Field.Bytes()
			}
			var stream bytes.Buffer
			b.Run(fmt.Sprintf("%s/save/workers=%d", c.name, workers), func(b *testing.B) {
				b.SetBytes(int64(raw))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					stream.Reset()
					if _, err := m.Checkpoint(&stream, i); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/restore/workers=%d", c.name, workers), func(b *testing.B) {
				if stream.Len() == 0 {
					if _, err := m.Checkpoint(&stream, 0); err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(int64(raw))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := m.Restore(bytes.NewReader(stream.Bytes())); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCheckpointStreamBig24 is the end-to-end benchmark's
// big24_tuned_stream configuration in memory: one 18496×82×2 array (~24 MB)
// in 128-plane slabs, the tuner choosing stage 4, streamed into a buffer and
// restored from it at GOMAXPROCS workers. Sixteen field-sized wavelet
// transforms a direction make stage 1 its largest stage.
func BenchmarkCheckpointStreamBig24(b *testing.B) {
	codec := ckpt.NewLossy()
	codec.ChunkExtent = parallelChunkExtent
	codec.Tuner = tune.New(tune.Config{})
	m := ckpt.NewManager(codec, 0)
	f := syntheticClimate(b, 16*1156, 82, 2)
	if err := m.Register("field", f); err != nil {
		b.Fatal(err)
	}
	var stream bytes.Buffer
	save := func(step int) {
		stream.Reset()
		if _, err := m.Checkpoint(&stream, step); err != nil {
			b.Fatal(err)
		}
	}
	save(0) // the tuner settles on its pick before anything is timed
	b.Run("save", func(b *testing.B) {
		b.SetBytes(int64(f.Bytes()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			save(i + 1)
		}
	})
	b.Run("restore", func(b *testing.B) {
		b.SetBytes(int64(f.Bytes()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.Restore(bytes.NewReader(stream.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGuardEncodeClimate times guard.Encode under PSNR ≥ 80 on the two
// kinds of variable BenchmarkCheckpointStreamClimate5's guard rows mix: one
// the first rung's division walk bounds (temperature), and one that
// abandons both quantizing rungs and ships lossless bands (wind_u) — the
// ladder decides each rung on coefficients and builds one stream.
func BenchmarkGuardEncodeClimate(b *testing.B) {
	model, err := climate.New(climate.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	model.StepN(3)
	for _, row := range []struct {
		name, field string
		mode        guard.Mode
		escalations int
	}{
		{"bounded", "temperature", guard.Bounded, 0},
		{"escalating", "wind_u", guard.LosslessBands, 2},
	} {
		f := model.Field(row.field)
		b.Run(row.name, func(b *testing.B) {
			b.SetBytes(int64(f.Bytes()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := guard.Encode(row.field, f, core.DefaultOptions(), guard.Policy{PSNRFloor: 80})
				if err != nil {
					b.Fatal(err)
				}
				if ann := out.Annotation; ann.Mode != row.mode || ann.Escalations != row.escalations {
					b.Fatalf("%s shipped %v after %d escalations, want %v after %d", row.field, ann.Mode, ann.Escalations, row.mode, row.escalations)
				}
			}
		})
	}
}

// BenchmarkChunkedParallelObs measures the observability tax on the
// chunked-parallel hot path: /noop runs with no observer anywhere (the
// default — instrumentation reduces to one nil check per record site),
// /enabled installs a live process registry recording every stage timing
// and operation series. `make bench-obs` distills the pair into
// BENCH_obs.json; the acceptance bar is noop within 5% of the
// pre-instrumentation baseline.
func BenchmarkChunkedParallelObs(b *testing.B) {
	f := syntheticClimate(b, 1156, 82, 2)
	run := func(b *testing.B, reg *obs.Registry) {
		opts := core.DefaultOptions()
		opts.Workers = 2
		defer obs.SetDefault(obs.SetDefault(reg))
		b.SetBytes(int64(f.Bytes()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.CompressChunked(f, opts, parallelChunkExtent); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("noop", func(b *testing.B) { run(b, nil) })
	b.Run("enabled", func(b *testing.B) { run(b, obs.NewRegistry()) })
}

// BenchmarkChunkedParallelJournal measures the flight-recorder cost on
// the same pipeline: each iteration is one full wide event — begin
// record, stage waterfall, byte totals, end record appended to a real
// JSONL file. The acceptance bar is ≤5% overhead for on vs off.
func BenchmarkChunkedParallelJournal(b *testing.B) {
	f := syntheticClimate(b, 1156, 82, 2)
	run := func(b *testing.B, j *journal.Journal) {
		opts := core.DefaultOptions()
		opts.Workers = 2
		b.SetBytes(int64(f.Bytes()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op := j.Begin(nil, "ckpt.checkpoint", "codec", "lossy", "mode", "chunked")
			res, err := core.CompressChunked(f, opts, parallelChunkExtent)
			if err != nil {
				op.End(err)
				b.Fatal(err)
			}
			if op != nil {
				op.SetStep(i)
				op.SetBytes(int64(f.Bytes()), int64(len(res.Data)))
				op.Stage("transform", res.Timings.Wavelet)
				op.Stage("quantize", res.Timings.Quantize)
				op.Stage("entropy", res.Timings.Gzip)
			}
			op.End(nil)
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) {
		j, err := journal.Open(filepath.Join(b.TempDir(), "bench.jsonl"), journal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer j.Close()
		run(b, j)
	})
}

// --- Allocation benchmarks for the pooled hot paths ----------------------

// BenchmarkAllocCompress tracks allocations of the single-array pipeline;
// the sync.Pool work in core/wavelet/quant/gzipio shows up here as a low,
// steady allocs/op count.
func BenchmarkAllocCompress(b *testing.B) {
	f := syntheticClimate(b, 1156, 82, 2)
	opts := core.DefaultOptions()
	b.SetBytes(int64(f.Bytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compress(f, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocDecompress is the decode-side counterpart.
func BenchmarkAllocDecompress(b *testing.B) {
	f := syntheticClimate(b, 1156, 82, 2)
	res, err := core.Compress(f, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(f.Bytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Decompress(res.Data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocGzipOnly measures the gzip baseline after the redundant
// input copy was removed and DEFLATE writers became pooled.
func BenchmarkAllocGzipOnly(b *testing.B) {
	f := syntheticClimate(b, 1156, 82, 2)
	b.SetBytes(int64(f.Bytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CompressGzipOnly(f, gzipio.Default, gzipio.InMemory, ""); err != nil {
			b.Fatal(err)
		}
	}
}
