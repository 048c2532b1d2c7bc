package core

import (
	"bytes"
	"testing"

	"lossyckpt/internal/entropy"
	"lossyckpt/internal/gzipio"
	"lossyckpt/internal/obs"
)

// entropyVariants are the non-default stage-4 selections under test.
func entropyVariants() []Options {
	lz4 := DefaultOptions()
	lz4.EntropyCodec = entropy.LZ4
	lz4s := lz4
	lz4s.Shuffle = true
	gzs := DefaultOptions()
	gzs.Shuffle = true
	gzsBlock := gzs
	gzsBlock.GzipBlock = 64 * 1024
	return []Options{lz4, lz4s, gzs, gzsBlock}
}

// TestEntropyCodecRoundTrip: every codec selection reconstructs the
// exact same field as the default gzip path — the lossy stages are
// deterministic, so only the entropy framing may differ.
func TestEntropyCodecRoundTrip(t *testing.T) {
	f := smooth3D(64, 32, 4, 5)
	ref, err := Compress(f, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	refField, err := Decompress(ref.Data)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range entropyVariants() {
		res, err := Compress(f, opts)
		if err != nil {
			t.Fatalf("%s shuffle=%v: %v", opts.EntropyCodec, opts.Shuffle, err)
		}
		if bytes.HasPrefix(res.Data, []byte{0x1f, 0x8b}) {
			t.Fatalf("%s shuffle=%v: non-default selection produced a bare gzip stream", opts.EntropyCodec, opts.Shuffle)
		}
		for name, dec := range map[string]func([]byte) (interface{ Data() []float64 }, error){
			"Decompress":  func(d []byte) (interface{ Data() []float64 }, error) { return Decompress(d) },
			"AnyParallel": func(d []byte) (interface{ Data() []float64 }, error) { return DecompressAnyParallel(d, 2) },
		} {
			g, err := dec(res.Data)
			if err != nil {
				t.Fatalf("%s shuffle=%v via %s: %v", opts.EntropyCodec, opts.Shuffle, name, err)
			}
			got, want := g.Data(), refField.Data()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s shuffle=%v via %s: value %d differs from gzip-path reconstruction", opts.EntropyCodec, opts.Shuffle, name, i)
				}
			}
		}
	}
}

// TestLegacyGzipPayloadBackCompat is the PR's backward-compat guarantee
// (satellite 1): streams produced by the default configuration are the
// pre-PR-6 format — a bare DEFLATE stream with no entropy envelope —
// and every decode entry point consumes them bit-exactly.
func TestLegacyGzipPayloadBackCompat(t *testing.T) {
	f := smooth3D(48, 24, 2, 9)
	legacy := []Options{DefaultOptions()}
	zl := DefaultOptions()
	zl.GzipFormat = gzipio.FormatZlib
	mm := DefaultOptions()
	mm.GzipBlock = 32 * 1024 // multi-member parallel stream, still legacy framing
	legacy = append(legacy, zl, mm)

	for _, opts := range legacy {
		res, err := Compress(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		// The legacy framing: raw gzip or zlib magic, never the envelope.
		if bytes.HasPrefix(res.Data, []byte("LKE1")) {
			t.Fatalf("%v: default-path stream grew an envelope", opts.GzipFormat)
		}
		wantMagic := res.Data[0] == 0x1f || res.Data[0] == 0x78
		if !wantMagic {
			t.Fatalf("%v: stream does not start with a DEFLATE magic byte (%#x)", opts.GzipFormat, res.Data[0])
		}
		// The formatted container must be recoverable by the pre-PR-6
		// decoder chain (gzipio alone), proving the bytes are the old format.
		if _, err := gzipio.DecompressMembersParallel(res.Data, 2); err != nil {
			t.Fatalf("%v: pre-PR-6 DEFLATE decoder rejects the default-path stream: %v", opts.GzipFormat, err)
		}
		g1, err := Decompress(res.Data)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := DecompressAnyParallel(res.Data, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range g1.Data() {
			if g2.Data()[i] != v {
				t.Fatalf("decode entry points disagree at %d", i)
			}
		}
	}
}

// TestEntropyChunkedRoundTrip runs the chunked (framed) paths with a
// non-default codec: each chunk payload carries its own envelope inside
// the unchanged LKCC framing.
func TestEntropyChunkedRoundTrip(t *testing.T) {
	f := smooth3D(64, 16, 4, 11)
	opts := DefaultOptions()
	opts.EntropyCodec = entropy.LZ4
	opts.Shuffle = true

	cres, err := CompressChunked(f, opts, 16)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress(cres.Data)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := CompressChunkedTo(&buf, f, opts, 16); err != nil {
		t.Fatal(err)
	}
	gs, err := DecompressAnyParallel(buf.Bytes(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range g.Data() {
		if gs.Data()[i] != v {
			t.Fatalf("buffered and streaming chunked reconstructions disagree at %d", i)
		}
	}
}

// TestEntropyOptionValidation pins the unsupported combinations.
func TestEntropyOptionValidation(t *testing.T) {
	f := smooth3D(16, 8, 2, 1)

	bad := DefaultOptions()
	bad.EntropyCodec = entropy.LZ4
	bad.GzipBlock = 1024
	if _, err := Compress(f, bad); err == nil {
		t.Error("lz4 + gzip block accepted")
	}

	bad = DefaultOptions()
	bad.Shuffle = true
	bad.GzipMode = gzipio.TempFile
	if _, err := Compress(f, bad); err == nil {
		t.Error("shuffle + temp-file mode accepted")
	}

	bad = DefaultOptions()
	bad.EntropyCodec = entropy.ID(77)
	if _, err := Compress(f, bad); err == nil {
		t.Error("unknown codec ID accepted")
	}
}

// TestEntropySelectionMetric checks the codec-selection counter fires
// once per top-level compression, labeled with the codec.
func TestEntropySelectionMetric(t *testing.T) {
	f := smooth3D(32, 16, 2, 3)
	reg := obs.NewRegistry()
	defer obs.SetDefault(obs.SetDefault(reg))
	opts := DefaultOptions()
	opts.EntropyCodec = entropy.LZ4
	opts.Shuffle = true
	if _, err := Compress(f, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := CompressChunked(f, opts, 8); err != nil {
		t.Fatal(err)
	}
	var got float64
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == entropy.MetricCodecSelected &&
			m.Labels["codec"] == "lz4+shuffle" {
			got = m.Value
		}
	}
	if got != 2 {
		t.Fatalf("selection counter = %v, want 2 (one single + one chunked)", got)
	}
}

// TestObserveRoundTrip: both halves of a chunked, GzipBlock-sharded round
// trip record on the process registry: one operation each way, and one
// sharded DEFLATE pass per chunk each way.
func TestObserveRoundTrip(t *testing.T) {
	f := smooth3D(64, 32, 8, 5)
	reg := obs.NewRegistry()
	defer obs.SetDefault(obs.SetDefault(reg))
	opts := DefaultOptions()
	opts.GzipBlock = 1024
	res, err := CompressChunked(f, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(res.Data); err != nil {
		t.Fatal(err)
	}
	chunks := float64(res.Chunks)
	for _, c := range []struct {
		name, label, value string
		want               float64
	}{
		{MetricCompressOps, "kind", "chunked", 1},
		{MetricDecompressOps, "kind", "chunked", 1},
		{gzipio.MetricParallelOps, "op", "compress", chunks},
		{gzipio.MetricParallelOps, "op", "decompress", chunks},
	} {
		if got := reg.Counter(c.name, c.label, c.value).Value(); got != c.want {
			t.Errorf("%s{%s=%s} = %v, want %v", c.name, c.label, c.value, got, c.want)
		}
	}
}

// TestGzipOnlyEntropyAware: the lossless baseline round-trips through
// the entropy-aware DecompressGzipOnly.
func TestGzipOnlyEntropyAware(t *testing.T) {
	f := smooth3D(16, 8, 4, 7)
	res, err := CompressGzipOnly(f, entropy.Params{GzipLevel: gzipio.Default})
	if err != nil {
		t.Fatal(err)
	}
	g, err := DecompressGzipOnly(res.Data, nil, f.Shape()...)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range f.Data() {
		if g.Data()[i] != v {
			t.Fatalf("gzip-only round trip not bit-exact at %d", i)
		}
	}
}
