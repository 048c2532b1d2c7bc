package core

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"lossyckpt/internal/grid"
)

// smooth1D and smooth2D are lower-rank companions of smooth3D.
func smooth1D(n int, seed int64) *grid.Field {
	f := grid.MustNew(n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		f.Set(100+10*math.Sin(2*math.Pi*float64(i)/float64(n))+0.01*rng.NormFloat64(), i)
	}
	return f
}

func smooth2D(nx, ny int, seed int64) *grid.Field {
	f := grid.MustNew(nx, ny)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			v := 500 +
				30*math.Sin(2*math.Pi*float64(i)/float64(nx)) +
				10*math.Cos(2*math.Pi*float64(j)/float64(ny)) +
				0.02*rng.NormFloat64()
			f.Set(v, i, j)
		}
	}
	return f
}

// parallelWorkerSweep is the worker-count matrix the determinism tests
// exercise: serial, two workers, and everything the machine has.
func parallelWorkerSweep() []int {
	return []int{1, 2, runtime.GOMAXPROCS(0)}
}

// TestChunkedParallelByteIdentical is the engine's core guarantee: for any
// shape (1D/2D/3D, odd trailing slabs, fewer chunks than workers) and any
// worker count, every exported entry point's stream is byte-for-byte the
// serial oracle's (chunked_oracle_test.go).
func TestChunkedParallelByteIdentical(t *testing.T) {
	cases := []struct {
		name  string
		field *grid.Field
		chunk int
	}{
		{"1d-even", smooth1D(256, 41), 64},
		{"1d-odd-tail", smooth1D(250, 42), 64},
		{"2d-odd-tail", smooth2D(67, 9, 43), 16},
		{"3d-even", smooth3D(128, 20, 2, 44), 32},
		{"3d-odd-tail", smooth3D(130, 20, 2, 45), 16},
		{"3d-single-chunk", smooth3D(33, 8, 2, 46), 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkEntryPoints(t, tc.field, DefaultOptions(), tc.chunk)
		})
	}
}

// TestDecompressChunkedParallelMatchesSerial checks the decode side: the
// decoder reconstructs bit-identical fields for every worker count, through
// Decompress as through DecompressAnyParallel.
func TestDecompressChunkedParallelMatchesSerial(t *testing.T) {
	f := smooth3D(130, 20, 2, 47)
	res, err := CompressChunked(f, DefaultOptions(), 16)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecompressAnyParallel(res.Data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Decompress(res.Data); err != nil || !want.Equal(got) {
		t.Fatalf("Decompress of a chunked stream: %v, equal=%v", err, err == nil && want.Equal(got))
	}
	for _, workers := range append(parallelWorkerSweep(), 0, 64) {
		got, err := DecompressAnyParallel(res.Data, workers)
		if err != nil {
			t.Fatalf("any workers=%d: %v", workers, err)
		}
		if !want.Equal(got) {
			t.Fatalf("any workers=%d: reconstruction differs", workers)
		}
	}
	// DecompressAnyParallel must also handle plain (unchunked) streams.
	plain, err := Compress(f, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	wantPlain, err := Decompress(plain.Data)
	if err != nil {
		t.Fatal(err)
	}
	gotPlain, err := DecompressAnyParallel(plain.Data, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !wantPlain.Equal(gotPlain) {
		t.Fatal("plain-stream parallel reconstruction differs")
	}
}

// TestChunkedParallelTimings checks the new Total/CPUTotal split: CPUTotal
// sums per-chunk work, Total is wall clock, and both are positive.
func TestChunkedParallelTimings(t *testing.T) {
	f := smooth3D(128, 20, 2, 48)
	opts := DefaultOptions()
	opts.Workers = 2
	res, err := CompressChunked(f, opts, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timings.Total <= 0 {
		t.Errorf("wall Total %v not positive", res.Timings.Total)
	}
	if res.Timings.CPUTotal <= 0 {
		t.Errorf("CPUTotal %v not positive", res.Timings.CPUTotal)
	}
	if res.Workers != 2 {
		t.Errorf("Workers %d, want 2", res.Workers)
	}
	phases := res.Timings.Wavelet + res.Timings.Quantize + res.Timings.Encode +
		res.Timings.Format + res.Timings.TempWrite + res.Timings.Gzip
	if phases > res.Timings.CPUTotal {
		t.Errorf("summed phases %v exceed CPUTotal %v", phases, res.Timings.CPUTotal)
	}
	// Serial is a pool of one: CPUTotal is the per-chunk sum and the wall
	// clock covers it.
	opts.Workers = 1
	sres, err := CompressChunked(f, opts, 16)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Workers != 1 {
		t.Errorf("serial Workers %d, want 1", sres.Workers)
	}
	if sres.Timings.Total < sres.Timings.CPUTotal {
		t.Errorf("serial wall Total %v below CPUTotal %v", sres.Timings.Total, sres.Timings.CPUTotal)
	}
}

// TestTimingsOtherClampedUnderParallel pins down the Other() contract for
// chunked-parallel runs: the named phases aggregate per-worker CPU time and
// can exceed the wall-clock Total, in which case the unattributed remainder
// clamps to zero instead of going negative.
func TestTimingsOtherClampedUnderParallel(t *testing.T) {
	// Deterministic clamp check: phase CPU sum far above wall Total.
	over := Timings{
		Total:   10 * time.Millisecond,
		Wavelet: 30 * time.Millisecond,
		Gzip:    15 * time.Millisecond,
	}
	if got := over.Other(); got != 0 {
		t.Errorf("CPU-heavy Timings.Other() = %v, want clamp to 0", got)
	}
	// And the normal case still attributes the remainder.
	under := Timings{Total: 10 * time.Millisecond, Wavelet: 4 * time.Millisecond}
	if got := under.Other(); got != 6*time.Millisecond {
		t.Errorf("Timings.Other() = %v, want 6ms", got)
	}

	// Live chunked-parallel runs must never surface a negative remainder,
	// whatever the scheduler does.
	f := smooth3D(128, 20, 2, 51)
	for _, workers := range parallelWorkerSweep() {
		opts := DefaultOptions()
		opts.Workers = workers
		res, err := CompressChunked(f, opts, 16)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := res.Timings.Other(); got < 0 {
			t.Errorf("workers=%d: Other() = %v, want >= 0", workers, got)
		}
	}
}

// TestCompressWorkersOptionValidation rejects negative worker counts.
func TestCompressWorkersOptionValidation(t *testing.T) {
	f := smooth3D(16, 8, 2, 49)
	opts := DefaultOptions()
	opts.Workers = -1
	if _, err := Compress(f, opts); err == nil {
		t.Error("negative Workers accepted by Compress")
	}
	if _, err := CompressChunked(f, opts, 8); err == nil {
		t.Error("negative Workers accepted by CompressChunked")
	}
}

// TestCompressWorkersByteIdentical: the Workers option must never change
// the single-array stream either (the wavelet sharding is bit-exact).
func TestCompressWorkersByteIdentical(t *testing.T) {
	f := smooth3D(256, 40, 2, 50) // big enough to cross the wavelet parallel cutoff
	var base []byte
	for _, workers := range parallelWorkerSweep() {
		opts := DefaultOptions()
		opts.Workers = workers
		res, err := Compress(f, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = res.Data
			continue
		}
		if !bytes.Equal(base, res.Data) {
			t.Fatalf("workers=%d: stream differs from workers=1", workers)
		}
	}
}
