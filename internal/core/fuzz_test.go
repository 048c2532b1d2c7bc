package core

import (
	"testing"

	"lossyckpt/internal/grid"
)

// FuzzDecompress hardens the end-to-end decoder: gzip layer, container
// parser and wavelet reconstruction must survive arbitrary input.
func FuzzDecompress(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x1f, 0x8b})
	fld := smooth3D(16, 8, 2, 99)
	if res, err := Compress(fld, DefaultOptions()); err == nil {
		f.Add(res.Data)
		f.Add(res.Data[:len(res.Data)/2])
		mut := append([]byte(nil), res.Data...)
		mut[len(mut)/3] ^= 0x55
		f.Add(mut)
	}
	perBand := DefaultOptions()
	perBand.PerBandQuant = true
	if res, err := Compress(fld, perBand); err == nil {
		f.Add(res.Data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := Decompress(data)
		if err == nil && out == nil {
			t.Fatal("nil field without error")
		}
	})
}

// FuzzDecompressChunked covers the chunked framing path.
func FuzzDecompressChunked(f *testing.F) {
	f.Add([]byte{})
	fld := smooth3D(24, 8, 2, 98)
	if res, err := CompressChunked(fld, DefaultOptions(), 8); err == nil {
		f.Add(res.Data)
		f.Add(res.Data[:len(res.Data)-3])
		mut := append([]byte(nil), res.Data...)
		mut[len(mut)/2] ^= 0x55 // the middle chunk rots, its neighbours decode
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := DecompressAnyParallel(data, 1)
		if err == nil && out == nil {
			t.Fatal("nil field without error")
		}
		// The same stream into an array the caller owns: the verdict and the
		// field are those of the decode into a fresh one, and a failure has
		// written a chunk's planes entirely or not at all.
		var owned *grid.Field
		into, intoErr := DecompressTo(data, 1, func(shape ...int) (*grid.Field, error) {
			f, err := grid.New(shape...)
			if err == nil {
				f.Fill(marker)
				owned = f
			}
			return f, err
		})
		if (err == nil) != (intoErr == nil) {
			t.Fatalf("verdicts differ: into a fresh field %v, into the caller's %v", err, intoErr)
		}
		if err == nil && (into != owned || !into.Equal(out)) {
			t.Fatal("decode into the caller's field differs from the decode into a fresh one")
		}
		if err != nil && owned != nil {
			// Whole chunks or nothing: a plain stream is one chunk.
			frames := []chunkFrame{{ext: owned.Extent(0)}}
			if _, parsed, perr := parseChunked(data); perr == nil {
				frames = parsed
			}
			planeElems := owned.Len() / owned.Extent(0)
			for c, fr := range frames {
				written := 0
				for _, v := range owned.Data()[fr.plane*planeElems : (fr.plane+fr.ext)*planeElems] {
					if v != marker {
						written++
					}
				}
				if written != 0 && (len(frames) == 1 || written != fr.ext*planeElems) {
					t.Fatalf("decode failed (%v) with %d of chunk %d's %d values written", err, written, c, fr.ext*planeElems)
				}
			}
		}
	})
}

// FuzzDecompressChunkedParallel differentially checks the decoder on a pool
// against itself on one goroutine: for arbitrary input both must agree on
// whether the stream is valid, and on the reconstructed field when it is.
func FuzzDecompressChunkedParallel(f *testing.F) {
	f.Add([]byte{})
	fld := smooth3D(24, 8, 2, 97)
	if res, err := CompressChunked(fld, DefaultOptions(), 8); err == nil {
		f.Add(res.Data)
		f.Add(res.Data[:len(res.Data)-3])
		mut := append([]byte(nil), res.Data...)
		mut[len(mut)/2] ^= 0x55
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		serial, serialErr := DecompressAnyParallel(data, 1)
		par, parErr := DecompressAnyParallel(data, 3)
		if (serialErr == nil) != (parErr == nil) {
			t.Fatalf("error disagreement: serial %v, parallel %v", serialErr, parErr)
		}
		if serialErr == nil && !serial.Equal(par) {
			t.Fatal("parallel reconstruction differs from serial")
		}
	})
}
