package core

import (
	"testing"

	"lossyckpt/internal/grid"
)

// compressedSample builds one valid compressed stream (gzip-wrapped
// container) for corruption sweeps.
func compressedSample(t *testing.T, chunk int) []byte {
	t.Helper()
	f := grid.MustNew(48, 30, 2)
	for i := range f.Data() {
		f.Data()[i] = 300 + float64(i%113)
	}
	opts := DefaultOptions()
	opts.Workers = 1
	if chunk > 0 {
		res, err := CompressChunked(f, opts, chunk)
		if err != nil {
			t.Fatal(err)
		}
		return res.Data
	}
	res, err := Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Data
}

// TestDecompressCorruptionSweep truncates and bit-flips whole-array and
// chunked streams. Every truncation must error. A bit flip must either
// error (gzip CRC, container CRC, or framing) or — when it lands in
// dead stream metadata like a gzip MTIME byte — decode to bit-identical
// output. Silent different output or a panic is the failure.
func TestDecompressCorruptionSweep(t *testing.T) {
	for _, tc := range []struct {
		name  string
		chunk int
	}{
		{"whole", 0},
		{"chunked", 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := compressedSample(t, tc.chunk)
			ref, err := DecompressAnyParallel(data, 1)
			if err != nil {
				t.Fatalf("intact stream failed: %v", err)
			}
			step := len(data)/512 + 1

			for cut := 0; cut < len(data); cut += step {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("truncate %d: panic: %v", cut, r)
						}
					}()
					if _, err := DecompressAnyParallel(data[:cut], 1); err == nil {
						t.Fatalf("truncate %d: accepted", cut)
					}
				}()
			}
			for pos := 0; pos < len(data); pos += step {
				for bit := uint(0); bit < 8; bit += 3 {
					mut := append([]byte(nil), data...)
					mut[pos] ^= 1 << bit
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Fatalf("flip byte %d bit %d: panic: %v", pos, bit, r)
							}
						}()
						got, err := DecompressAnyParallel(mut, 1)
						if err != nil {
							return // detected, good
						}
						for i, v := range got.Data() {
							if v != ref.Data()[i] {
								t.Fatalf("flip byte %d bit %d: silent corruption at element %d", pos, bit, i)
							}
						}
					}()
				}
			}
		})
	}
}

// TestChunkedShapePlausibilityCap forges a chunked header declaring an
// enormous array over a tiny input.
func TestChunkedShapePlausibilityCap(t *testing.T) {
	var hdr []byte
	hdr = append32(hdr, chunkedMagic)
	hdr = append16(hdr, chunkedVersion)
	hdr = append16(hdr, 3)
	for _, e := range []uint64{1 << 31, 1 << 20, 1 << 10} {
		var b [8]byte
		for i := range b {
			b[i] = byte(e >> (8 * i))
		}
		hdr = append(hdr, b[:]...)
	}
	hdr = append32(hdr, 1)
	if _, _, err := parseChunked(hdr); err == nil {
		t.Fatal("implausible chunked shape accepted")
	}
}
