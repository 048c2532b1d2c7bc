// Benchmarks for delta checkpoints through the content-addressed chunk
// store (dedup). A sparse-update workload is re-checkpointed into a
// dedup store by a delta-enabled manager at different per-step mutation
// fractions; each variant reports the physical bytes the store
// committed per generation (committed_bytes/op) and the compression CPU
// the pipeline actually spent (compress_ns/op) beside the usual
// ns_per_op. `make bench-dedup` distills these into BENCH_dedup.json;
// the headline target is the 1%-mutation re-checkpoint committing ≥10×
// fewer bytes and burning ≥10× less compression CPU than the full
// (100%-mutation) re-checkpoint.
package lossyckpt

import (
	"testing"

	"lossyckpt/internal/cas"
	"lossyckpt/internal/ckpt"
	"lossyckpt/internal/faultsim"
	"lossyckpt/internal/store"
)

const dedupBenchElems = 1 << 18 // 2 MiB logical footprint

// dedupBenchChunk sizes content-defined chunks well below the ~40 KiB
// compressed slab frames, so a single dirty slab dirties a few chunks
// instead of most of the payload (the store default of 256 KiB average
// is tuned for multi-MB payloads).
var dedupBenchChunk = cas.Config{Min: 4 << 10, Avg: 16 << 10, Max: 64 << 10}

// dedupBenchVariants is the mutation-fraction sweep: "full" rewrites
// the whole footprint every step (the no-reuse baseline the ≥10×
// targets are measured against).
var dedupBenchVariants = []struct {
	name string
	frac float64
}{
	{"full", 1.0},
	{"mutate-10pct", 0.10},
	{"mutate-1pct", 0.01},
}

// BenchmarkDedupCheckpoint measures one re-checkpoint generation per
// iteration: mutate the workload, encode through the delta slab cache,
// commit to the dedup store.
func BenchmarkDedupCheckpoint(b *testing.B) {
	for _, v := range dedupBenchVariants {
		b.Run(v.name, func(b *testing.B) {
			app, err := faultsim.NewSparseApp(faultsim.SparseConfig{
				Elems: dedupBenchElems, MutateFraction: v.frac, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			codec := ckpt.NewLossy()
			codec.ChunkExtent = dedupBenchElems / 32
			mgr := ckpt.NewManager(codec, 0)
			mgr.SetDelta(true)
			if err := mgr.Register("state", app.Field()); err != nil {
				b.Fatal(err)
			}
			st, err := store.Open(b.TempDir(), store.Options{Keep: 4, Dedup: true, DedupChunk: dedupBenchChunk})
			if err != nil {
				b.Fatal(err)
			}
			// Baseline generation outside the measured loop: the benchmark
			// is the steady-state re-checkpoint, not the cold start.
			if _, _, err := mgr.CheckpointTo(st, app.StepCount()); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(8 * dedupBenchElems))
			b.ReportAllocs()
			var committed, compressNs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				app.Step()
				before := st.PhysicalBytes()
				rep, _, err := mgr.CheckpointTo(st, app.StepCount())
				if err != nil {
					b.Fatal(err)
				}
				committed += st.PhysicalBytes() - before
				agg := rep.AggregateTimings()
				compressNs += int64(agg.Wavelet + agg.Quantize + agg.Encode + agg.Gzip)
			}
			b.ReportMetric(float64(committed)/float64(b.N), "committed_bytes/op")
			b.ReportMetric(float64(compressNs)/float64(b.N), "compress_ns/op")
		})
	}
}

// BenchmarkDedupChunker measures the content-defined chunker alone —
// the fixed per-commit tax every dedup generation pays regardless of
// how much dedups.
func BenchmarkDedupChunker(b *testing.B) {
	app, err := faultsim.NewSparseApp(faultsim.SparseConfig{
		Elems: dedupBenchElems, MutateFraction: 0, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 8*dedupBenchElems)
	for i, v := range app.Field().Data() {
		u := uint64(i) * 0x9e3779b9
		_ = v
		data[8*i] = byte(u)
	}
	cfg := dedupBenchChunk
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunks, err := cas.Split(cfg, data)
		if err != nil {
			b.Fatal(err)
		}
		if len(chunks) == 0 {
			b.Fatal("no chunks")
		}
	}
}

// sparse16 sets up the benchmark's sparse16_delta_dedup workload: a 16 MiB
// array mutating 1 % per step, a delta-enabled lossy manager over it in 64
// slabs, a dedup store of 4/16/64 KiB chunks, and one generation saved.
func sparse16(b *testing.B) (*faultsim.SparseApp, *ckpt.Manager, *store.Store) {
	const elems, slabs = 1 << 21, 64
	app, err := faultsim.NewSparseApp(faultsim.SparseConfig{Elems: elems, MutateFraction: 0.01, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	codec := ckpt.NewLossy()
	codec.ChunkExtent = elems / slabs
	mgr := ckpt.NewManager(codec, 0)
	mgr.SetDelta(true)
	if err := mgr.Register("state", app.Field()); err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(b.TempDir(), store.Options{Keep: 4, Dedup: true, DedupChunk: dedupBenchChunk})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := mgr.CheckpointTo(st, app.StepCount()); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(8 * elems)
	b.ReportAllocs()
	return app, mgr, st
}

// BenchmarkSaveDedupSparse16 is the write side of the benchmark's
// sparse16_delta_dedup workload: each iteration mutates 1 % of the array and
// saves it with CheckpointTo — 64 slabs fingerprinted, the few dirty ones
// compressed, a ~10 MB stream cut into some five hundred chunks, hashed,
// and the handful the ledger does not hold written with the recipe and the
// manifest. The codec is nearly idle; this is the save path's byte traffic.
func BenchmarkSaveDedupSparse16(b *testing.B) {
	app, mgr, st := sparse16(b)
	var committed int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.Step()
		before := st.PhysicalBytes()
		if _, _, err := mgr.CheckpointTo(st, app.StepCount()); err != nil {
			b.Fatal(err)
		}
		committed += st.PhysicalBytes() - before
	}
	b.ReportMetric(float64(committed)/float64(b.N), "committed_bytes/op")
}

// BenchmarkRestoreDedupSparse16 is the read side of the benchmark's
// sparse16_delta_dedup workload: a 16 MiB array in 64 delta slabs, saved once
// into a dedup store of 4/16/64 KiB chunks, then restored from it over and
// over — recipe, some five hundred chunk files read and hashed, one entry,
// 64 slabs inflated and inverted.
func BenchmarkRestoreDedupSparse16(b *testing.B) {
	_, mgr, st := sparse16(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.RestoreLatest(st); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDedupBenchTargets is the acceptance check behind the benchmark:
// at 1% mutation the steady-state re-checkpoint must commit ≥10× fewer
// physical bytes and do ≥10× less compression work than the full
// rewrite, and every retained generation must stay readable. The work is
// counted in slabs compressed, not timed: two stage-time sums taken beside
// the other packages of `go test ./...` on two CPUs did not always stand
// 10× apart.
func TestDedupBenchTargets(t *testing.T) {
	run := func(frac float64) (committed int64, slabsCompressed int) {
		app, err := faultsim.NewSparseApp(faultsim.SparseConfig{
			Elems: dedupBenchElems, MutateFraction: frac, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		codec := ckpt.NewLossy()
		codec.ChunkExtent = dedupBenchElems / 32
		mgr := ckpt.NewManager(codec, 0)
		mgr.SetDelta(true)
		if err := mgr.Register("state", app.Field()); err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(t.TempDir(), store.Options{Keep: -1, Dedup: true, DedupChunk: dedupBenchChunk})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := mgr.CheckpointTo(st, app.StepCount()); err != nil {
			t.Fatal(err)
		}
		const gens = 3
		for i := 0; i < gens; i++ {
			app.Step()
			before := st.PhysicalBytes()
			rep, _, err := mgr.CheckpointTo(st, app.StepCount())
			if err != nil {
				t.Fatal(err)
			}
			committed += st.PhysicalBytes() - before
			slabsCompressed += rep.DeltaSlabsCompressed
		}
		for _, g := range st.Generations() {
			if _, err := st.ReadGeneration(g.Seq); err != nil {
				t.Fatalf("frac %v: generation %d unreadable: %v", frac, g.Seq, err)
			}
		}
		return committed, slabsCompressed
	}
	fullBytes, fullSlabs := run(1.0)
	oneBytes, oneSlabs := run(0.01)
	if oneBytes*10 > fullBytes {
		t.Errorf("1%%-mutation committed %d bytes, full %d — want >=10x reduction", oneBytes, fullBytes)
	}
	if oneSlabs == 0 || oneSlabs*10 > fullSlabs {
		t.Errorf("1%%-mutation compressed %d slabs, full %d — want >=10x fewer, and some", oneSlabs, fullSlabs)
	}
}
