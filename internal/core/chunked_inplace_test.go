package core

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"lossyckpt/internal/grid"
	"lossyckpt/internal/wavelet"
)

// frameStream re-frames parsed chunks as a chunked stream.
func frameStream(shape []int, frames []chunkFrame) []byte {
	out := chunkedHeader(shape, len(frames))
	for _, fr := range frames {
		var hdr [12]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(fr.ext))
		binary.LittleEndian.PutUint64(hdr[4:], uint64(len(fr.payload)))
		out = append(append(out, hdr[:]...), fr.payload...)
	}
	return out
}

// TestChunkedDecodeInPlaceMatchesPerSlab: the decoder reconstructs each
// slab straight into its plane range of the output; the result must be
// what decoding each payload on its own and copying it there gives, bit for
// bit, for every worker count.
func TestChunkedDecodeInPlaceMatchesPerSlab(t *testing.T) {
	cdf2 := DefaultOptions()
	cdf2.Scheme, cdf2.Levels = wavelet.CDF53, 2
	perBand := DefaultOptions()
	perBand.PerBandQuant = true
	cases := []struct {
		name  string
		field *grid.Field
		opts  Options
		chunk int
	}{
		{"1d-odd-tail", smooth1D(250, 61), DefaultOptions(), 64},
		{"2d-odd-tail", smooth2D(67, 9, 62), DefaultOptions(), 16},
		{"3d-odd-tail", smooth3D(130, 20, 2, 63), DefaultOptions(), 16},
		{"3d-cdf53-2-levels", smooth3D(70, 9, 5, 64), cdf2, 12},
		{"3d-per-band", smooth3D(48, 10, 2, 65), perBand, 16},
	}
	for _, tc := range cases {
		res, err := CompressChunked(tc.field, tc.opts, tc.chunk)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		shape, frames, err := parseChunked(res.Data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := grid.MustNew(shape...)
		planeElems := want.Len() / shape[0]
		for _, fr := range frames {
			slab, err := Decompress(fr.payload)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			copy(want.Data()[fr.plane*planeElems:], slab.Data())
		}
		check := func(how string, got *grid.Field, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, how, err)
			}
			if !got.SameShape(want) {
				t.Fatalf("%s %s: shape %v, want %v", tc.name, how, got.Shape(), shape)
			}
			for i, v := range got.Data() {
				if math.Float64bits(v) != math.Float64bits(want.Data()[i]) {
					t.Fatalf("%s %s: element %d is %g, per-slab decode gives %g", tc.name, how, i, v, want.Data()[i])
				}
			}
		}
		got, err := Decompress(res.Data)
		check("Decompress", got, err)
		for _, workers := range []int{1, 2, 8} {
			got, err := DecompressAnyParallel(res.Data, workers)
			check("DecompressAnyParallel", got, err)
		}
	}
}

// TestChunkedDecodeRefusesSlabShapeBeforeWriting: a chunk whose payload
// decodes to some other shape than its frame declares is refused with
// ErrChunked before a single value is written — a taller slab would otherwise
// run over the planes of the chunk after it.
func TestChunkedDecodeRefusesSlabShapeBeforeWriting(t *testing.T) {
	f := smooth3D(48, 10, 2, 66)
	res, err := CompressChunked(f, DefaultOptions(), 16)
	if err != nil {
		t.Fatal(err)
	}
	shape, frames, err := parseChunked(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	for name, wrong := range map[string]*grid.Field{
		"taller":     smooth3D(20, 10, 2, 67),
		"shorter":    smooth3D(12, 10, 2, 67),
		"wider":      smooth3D(16, 11, 2, 67),
		"fewer dims": smooth2D(16, 20, 67),
	} {
		payload, err := Compress(wrong, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]chunkFrame(nil), frames...)
		bad[1].payload = payload.Data

		const sentinel = -777
		out := grid.MustNew(shape...)
		out.Fill(sentinel)
		err = decodeChunkInto(out, shape, out.Len()/shape[0], 1, bad[1], 1)
		if !errors.Is(err, ErrChunked) {
			t.Fatalf("%s slab: decodeChunkInto = %v, want ErrChunked", name, err)
		}
		for i, v := range out.Data() {
			if v != sentinel {
				t.Fatalf("%s slab: element %d written (%g) before the shape was refused", name, i, v)
			}
		}

		stream := frameStream(shape, bad)
		if _, err := Decompress(stream); !errors.Is(err, ErrChunked) {
			t.Errorf("%s slab: Decompress = %v, want ErrChunked", name, err)
		}
		for _, workers := range []int{1, 2, 8} {
			if _, err := DecompressAnyParallel(stream, workers); !errors.Is(err, ErrChunked) {
				t.Errorf("%s slab: DecompressAnyParallel(%d) = %v, want ErrChunked", name, workers, err)
			}
		}
	}
}
