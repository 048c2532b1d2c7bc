package core

import "testing"

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
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := DecompressAnyParallel(data, 1)
		if err == nil && out == nil {
			t.Fatal("nil field without error")
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
