package core

import (
	"testing"

	"lossyckpt/internal/stats"
)

func TestChunkedRoundTrip(t *testing.T) {
	f := smooth3D(130, 20, 2, 31) // 130 planes: uneven split expected
	for _, chunk := range []int{2, 16, 64, 130, 500} {
		res, err := CompressChunked(f, DefaultOptions(), chunk)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		wantChunks := (130 + chunk - 1) / chunk
		if chunk > 130 {
			wantChunks = 1
		}
		if res.Chunks != wantChunks {
			t.Errorf("chunk %d: %d chunks, want %d", chunk, res.Chunks, wantChunks)
		}
		g, err := Decompress(res.Data)
		if err != nil {
			t.Fatalf("chunk %d: decompress: %v", chunk, err)
		}
		if !f.SameShape(g) {
			t.Fatalf("chunk %d: shape %v", chunk, g.Shape())
		}
		s, _ := stats.Compare(f.Data(), g.Data())
		if s.AvgPct > 1 {
			t.Errorf("chunk %d: avg error %.4f%%", chunk, s.AvgPct)
		}
		if res.CompressionRatePct() >= 100 {
			t.Errorf("chunk %d: cr %.1f%%", chunk, res.CompressionRatePct())
		}
	}
}

func TestChunkedMatchesUnchunkedQuality(t *testing.T) {
	// Chunking must not cost much: per-chunk quantization adapts locally,
	// so the error should be in the same ballpark as whole-array
	// compression.
	f := smooth3D(128, 20, 2, 32)
	whole, _, err := RoundTrip(f, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := CompressChunked(f, DefaultOptions(), 32)
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := Decompress(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	sw, _ := stats.Compare(f.Data(), whole.Data())
	sc, _ := stats.Compare(f.Data(), chunked.Data())
	if sc.AvgPct > 10*sw.AvgPct+0.01 {
		t.Errorf("chunked error %.5f%% far above whole-array %.5f%%", sc.AvgPct, sw.AvgPct)
	}
}

func TestChunkedValidation(t *testing.T) {
	f := smooth3D(16, 8, 2, 33)
	if _, err := CompressChunked(f, DefaultOptions(), 0); err == nil {
		t.Error("chunk extent 0 accepted")
	}
	bad := DefaultOptions()
	bad.Divisions = 0
	if _, err := CompressChunked(f, bad, 8); err == nil {
		t.Error("bad options accepted")
	}
	// A chunk extent of 1 makes 1-plane slabs whose leading extent cannot
	// be transformed at level 1 unless another axis still can; for this
	// shape the other axes are fine, so it must succeed.
	if _, err := CompressChunked(f, DefaultOptions(), 1); err != nil {
		t.Errorf("1-plane chunks rejected: %v", err)
	}
}

func TestChunkedDecompressErrors(t *testing.T) {
	f := smooth3D(32, 8, 2, 34)
	res, err := CompressChunked(f, DefaultOptions(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(nil); err == nil {
		t.Error("nil input accepted")
	}
	if _, err := Decompress([]byte("garbage stream")); err == nil {
		t.Error("garbage accepted")
	}
	for _, cut := range []int{3, 10, len(res.Data) / 2, len(res.Data) - 1} {
		if _, err := Decompress(res.Data[:cut]); err == nil {
			t.Errorf("truncation to %d accepted", cut)
		}
	}
	mut := append([]byte(nil), res.Data...)
	mut[len(mut)/2] ^= 0xFF
	if _, err := Decompress(mut); err == nil {
		t.Error("corruption accepted")
	}
	trailing := append(append([]byte(nil), res.Data...), 0xAB)
	if _, err := Decompress(trailing); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestChunked1D(t *testing.T) {
	f := smooth3D(64, 1, 1, 35) // effectively thin; also test a pure 1D field
	res, err := CompressChunked(f, DefaultOptions(), 16)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decompress(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !f.SameShape(g) {
		t.Error("1-thin chunked shape mismatch")
	}
}
