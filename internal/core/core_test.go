package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lossyckpt/internal/entropy"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/gzipio"
	"lossyckpt/internal/quant"
	"lossyckpt/internal/stats"
	"lossyckpt/internal/wavelet"
)

// smooth3D builds a NICAM-like smooth 3D field.
func smooth3D(nx, ny, nz int, seed int64) *grid.Field {
	f := grid.MustNew(nx, ny, nz)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				v := 1000 +
					50*math.Sin(2*math.Pi*float64(i)/float64(nx)) +
					20*math.Cos(4*math.Pi*float64(j)/float64(ny)) +
					5*float64(k) +
					0.05*rng.NormFloat64()
				f.Set(v, i, j, k)
			}
		}
	}
	return f
}

func TestRoundTripSmallError(t *testing.T) {
	f := smooth3D(128, 40, 2, 1)
	for _, method := range []quant.Method{quant.Simple, quant.Proposed} {
		opts := DefaultOptions()
		opts.Method = method
		g, res, err := RoundTrip(f, opts)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if !f.SameShape(g) {
			t.Fatalf("%v: shape changed", method)
		}
		s, err := stats.Compare(f.Data(), g.Data())
		if err != nil {
			t.Fatal(err)
		}
		// With n=128 the paper reports avg errors well under 1%.
		if s.AvgPct > 1 {
			t.Errorf("%v: avg relative error %.4f%% too large", method, s.AvgPct)
		}
		if res.CompressionRatePct() >= 100 {
			t.Errorf("%v: no size reduction: %.1f%%", method, res.CompressionRatePct())
		}
	}
}

func TestLossyBeatsGzipOnSmoothData(t *testing.T) {
	// The paper's Fig. 6: gzip ≈ 87%, lossy ≈ 12-17%.
	f := smooth3D(256, 41, 2, 2)
	gz, err := CompressGzipOnly(f, entropy.Params{GzipLevel: gzipio.Default})
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := Compress(f, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if lossy.CompressionRatePct() >= gz.CompressionRatePct() {
		t.Errorf("lossy cr %.1f%% not below gzip cr %.1f%%",
			lossy.CompressionRatePct(), gz.CompressionRatePct())
	}
	if lossy.CompressionRatePct() > 50 {
		t.Errorf("lossy cr %.1f%% unexpectedly poor on smooth data", lossy.CompressionRatePct())
	}
}

func TestGzipOnlyRoundTripExact(t *testing.T) {
	f := smooth3D(32, 16, 2, 3)
	res, err := CompressGzipOnly(f, entropy.Params{GzipLevel: gzipio.Default})
	if err != nil {
		t.Fatal(err)
	}
	g, err := DecompressGzipOnly(res.Data, nil, 32, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equal(g) {
		t.Error("gzip-only round trip is not bit-exact")
	}
	if _, err := DecompressGzipOnly(res.Data, nil, 32, 16, 3); err == nil {
		t.Error("wrong shape accepted")
	}
}

func TestDecompressMatchesParams(t *testing.T) {
	// Parameters travel inside the stream; Decompress needs no options.
	f := smooth3D(64, 10, 2, 4)
	for _, scheme := range []wavelet.Scheme{wavelet.Haar, wavelet.CDF53} {
		for _, levels := range []int{1, 2} {
			opts := DefaultOptions()
			opts.Scheme = scheme
			opts.Levels = levels
			opts.Divisions = 64
			g, _, err := RoundTrip(f, opts)
			if err != nil {
				t.Fatalf("%v L%d: %v", scheme, levels, err)
			}
			s, _ := stats.Compare(f.Data(), g.Data())
			if s.AvgPct > 2 {
				t.Errorf("%v L%d: avg error %.4f%%", scheme, levels, s.AvgPct)
			}
		}
	}
}

func TestCompressDoesNotModifyInput(t *testing.T) {
	f := smooth3D(32, 8, 2, 5)
	orig := f.Clone()
	if _, err := Compress(f, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if !f.Equal(orig) {
		t.Error("Compress modified its input")
	}
}

func TestTimingsAccounted(t *testing.T) {
	f := smooth3D(128, 41, 2, 6)
	opts := DefaultOptions()
	opts.GzipMode = gzipio.TempFile
	opts.TmpDir = t.TempDir()
	res, err := Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timings
	if tm.Total <= 0 {
		t.Error("zero total time")
	}
	if tm.TempWrite <= 0 {
		t.Error("temp-file mode reported no temp-write time")
	}
	sum := tm.Wavelet + tm.Quantize + tm.Encode + tm.Format + tm.TempWrite + tm.Gzip
	if sum > tm.Total {
		t.Errorf("phase sum %v exceeds total %v", sum, tm.Total)
	}
	if tm.Other() < 0 {
		t.Error("negative Other()")
	}
}

func TestOptionValidation(t *testing.T) {
	f := smooth3D(16, 8, 2, 7)
	bad := []Options{
		{}, // zero value: levels 0
		func() Options { o := DefaultOptions(); o.Divisions = 0; return o }(),
		func() Options { o := DefaultOptions(); o.Divisions = 300; return o }(),
		func() Options { o := DefaultOptions(); o.Levels = 99; return o }(),
		func() Options { o := DefaultOptions(); o.SpikeDivisions = -1; return o }(),
		func() Options { o := DefaultOptions(); o.SpikeDivisions = quant.MaxSpikeDivisions + 1; return o }(),
		func() Options { o := DefaultOptions(); o.SpikeDivisions = 1_000_000_000; return o }(),
	}
	for i, o := range bad {
		if _, err := Compress(f, o); !errors.Is(err, ErrOptions) {
			t.Errorf("bad options %d: err = %v, want ErrOptions", i, err)
		}
	}
	// The stage-4 selections entropy refuses: core wraps entropy's verdict
	// in ErrOptions, and entropy.Compress refuses them on its own.
	for _, c := range []struct {
		what string
		set  func(*Options)
	}{
		{"unknown codec", func(o *Options) { o.EntropyCodec = entropy.ID(77) }},
		{"negative gzip block", func(o *Options) { o.GzipBlock = -1 }},
		{"gzip block on lz4", func(o *Options) { o.EntropyCodec, o.GzipBlock = entropy.LZ4, 1024 }},
		{"temp file with shuffle", func(o *Options) { o.Shuffle, o.GzipMode = true, gzipio.TempFile }},
		{"temp file with lz4", func(o *Options) { o.EntropyCodec, o.GzipMode = entropy.LZ4, gzipio.TempFile }},
		{"temp file with gzip blocks", func(o *Options) { o.GzipBlock, o.GzipMode = 1024, gzipio.TempFile }},
	} {
		o := DefaultOptions()
		c.set(&o)
		if _, err := Compress(f, o); !errors.Is(err, ErrOptions) {
			t.Errorf("%s: core.Compress err = %v, want ErrOptions", c.what, err)
		}
		if _, err := entropy.Compress(grid.FloatBytes(f.Data()), o.entropyParams()); err == nil {
			t.Errorf("%s: entropy.Compress accepted it", c.what)
		}
	}
	// The cap itself is usable and survives the 16-bit header field.
	o := DefaultOptions()
	o.SpikeDivisions = quant.MaxSpikeDivisions
	res, err := Compress(f, o)
	if err != nil {
		t.Fatalf("d = %d: %v", o.SpikeDivisions, err)
	}
	if _, err := Decompress(res.Data); err != nil {
		t.Errorf("d = %d: %v", o.SpikeDivisions, err)
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	if _, err := Decompress([]byte("junk")); err == nil {
		t.Error("garbage accepted")
	}
	// Valid gzip of garbage container.
	gz, _ := gzipio.Compress([]byte("still junk"), gzipio.Default, gzipio.InMemory, "")
	if _, err := Decompress(gz.Compressed); err == nil {
		t.Error("gzip-wrapped garbage accepted")
	}
}

func TestDecompressRejectsTamperedStream(t *testing.T) {
	f := smooth3D(32, 8, 2, 8)
	res, err := Compress(f, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the gzip payload: either gzip's CRC or the
	// container CRC must catch it.
	mut := append([]byte(nil), res.Data...)
	mut[len(mut)/2] ^= 0x01
	if _, err := Decompress(mut); err == nil {
		t.Error("tampered stream accepted")
	}
}

func TestProposedPassthroughPreservesOutliers(t *testing.T) {
	// Inject a sharp outlier; under the proposed method it should survive
	// compression almost exactly (it passes through the quantizer), while
	// simple quantization smears it.
	f := smooth3D(64, 16, 2, 9)
	f.Set(1e6, 32, 8, 0)

	check := func(method quant.Method) float64 {
		opts := DefaultOptions()
		opts.Method = method
		opts.Divisions = 16
		g, _, err := RoundTrip(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(g.At(32, 8, 0) - 1e6)
	}
	errProposed := check(quant.Proposed)
	errSimple := check(quant.Simple)
	if errProposed >= errSimple {
		t.Errorf("outlier error: proposed %g not below simple %g", errProposed, errSimple)
	}
}

func TestHighCountsReported(t *testing.T) {
	f := smooth3D(64, 16, 2, 10)
	res, err := Compress(f, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumHigh <= 0 || res.NumQuantized <= 0 || res.NumQuantized > res.NumHigh {
		t.Errorf("counts: quantized %d of %d high values", res.NumQuantized, res.NumHigh)
	}
	if res.SpikePartitions <= 0 {
		t.Error("proposed method reported no spike partitions")
	}
	simple := DefaultOptions()
	simple.Method = quant.Simple
	res2, _ := Compress(f, simple)
	if res2.NumQuantized != res2.NumHigh {
		t.Errorf("simple method quantized %d of %d", res2.NumQuantized, res2.NumHigh)
	}
}

func TestErrorShrinksWithDivisions(t *testing.T) {
	// Fig. 8's trend: larger n, smaller error.
	f := smooth3D(128, 41, 2, 11)
	avg := func(n int) float64 {
		opts := DefaultOptions()
		opts.Divisions = n
		g, _, err := RoundTrip(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := stats.Compare(f.Data(), g.Data())
		return s.AvgPct
	}
	e1, e128 := avg(1), avg(128)
	if e128 > e1 {
		t.Errorf("error grew with divisions: n=1 %.5f%%, n=128 %.5f%%", e1, e128)
	}
}

func Test1DAnd2DArrays(t *testing.T) {
	// The compressor must handle 1D and 2D checkpoint arrays too.
	f1 := grid.MustNew(4096)
	for i := range f1.Data() {
		f1.Data()[i] = math.Sin(float64(i) / 100)
	}
	f2 := grid.MustNew(128, 128)
	for i := range f2.Data() {
		f2.Data()[i] = math.Cos(float64(i) / 777)
	}
	for _, f := range []*grid.Field{f1, f2} {
		g, res, err := RoundTrip(f, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		s, _ := stats.Compare(f.Data(), g.Data())
		if s.AvgPct > 1 {
			t.Errorf("%dD: avg error %.4f%%", f.Dims(), s.AvgPct)
		}
		if res.CompressionRatePct() >= 100 {
			t.Errorf("%dD: cr %.1f%%", f.Dims(), res.CompressionRatePct())
		}
	}
}

// TestStagesRungsShareOnePristinePool transforms once and then quantizes and
// encodes under several stage-2 option sets in a row, as the guard's ladder
// does, thresholded and not, pooled and per band: every stream must be the
// one a fresh Compress writes under the same options, so no rung sees values
// an earlier one changed.
func TestStagesRungsShareOnePristinePool(t *testing.T) {
	f := smooth3D(64, 20, 2, 7)
	base := DefaultOptions()
	clip, bounded, coarse, perBand := base, base, base, base
	clip.ZeroThreshold = 0.05
	bounded.ErrorBound = 0.01
	coarse.Divisions, coarse.ZeroThreshold = 8, 0.2
	perBand.PerBandQuant, perBand.ZeroThreshold = true, 0.05
	rungs := []Options{clip, base, coarse, bounded, perBand, clip, base}
	s, err := Transform(f, base)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	for i, opts := range rungs {
		res, err := s.Quantize(opts)
		if err == nil {
			err = s.Encode()
		}
		if err != nil {
			t.Fatalf("rung %d: %v", i, err)
		}
		want, err := Compress(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if string(res.Data) != string(want.Data) {
			t.Fatalf("rung %d (%+v): stream differs from a fresh Compress", i, opts)
		}
	}
}
