package entropy

import (
	"bytes"
	"testing"
)

// FuzzLZ4RoundTrip asserts the codec is lossless for arbitrary input.
func FuzzLZ4RoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("abcabcabcabcabcabc"))
	f.Add(bytes.Repeat([]byte{0}, 300))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		comp := lz4Compress(nil, data)
		if len(comp) > lz4CompressBound(len(data)) {
			t.Fatalf("output %d exceeds bound %d", len(comp), lz4CompressBound(len(data)))
		}
		back, err := lz4Decompress(nil, comp)
		if err != nil {
			t.Fatalf("own output rejected: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("round trip mismatch: %d -> %d bytes", len(data), len(back))
		}
	})
}

// FuzzLZ4Decompress feeds the decoder arbitrary bytes: it must either
// decode or return ErrCorrupt — never panic, and never allocate beyond
// the expansion cap relative to the input size.
func FuzzLZ4Decompress(f *testing.F) {
	f.Add([]byte{})
	f.Add(lz4Compress(nil, []byte("seed corpus entry with some repetition repetition")))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{8, 0x41, 'a', 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := lz4Decompress(nil, data)
		if err != nil {
			return
		}
		if uint64(len(out)) > uint64(len(data))*lz4MaxExpansion+16 {
			t.Fatalf("decoded %d bytes from %d input bytes: expansion cap breached", len(out), len(data))
		}
	})
}

// FuzzDecompressAny drives the envelope parser plus both codec decoders
// with arbitrary bytes, including bit-flipped valid streams: errors are
// fine, panics and over-allocation are not, and streams that do decode
// must round-trip under the matching params.
func FuzzDecompressAny(f *testing.F) {
	seed := []byte("the quick brown fox jumps over the lazy dog, twice over")
	for _, p := range []Params{{Codec: LZ4}, {Codec: LZ4, Shuffle: true}, {Codec: Gzip, GzipLevel: -1}} {
		if res, err := Compress(seed, p); err == nil {
			f.Add(res.Compressed)
		}
	}
	f.Add([]byte("LKE1garbage that is not a valid envelope payload"))
	f.Add([]byte{0x1f, 0x8b, 0x08, 0x00})
	f.Add([]byte{0x78, 0x9c, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := Decompress(data, 2)
		if err != nil {
			return
		}
		// DEFLATE's own cap is 1032:1; the envelope adds a small header.
		if uint64(len(out)) > uint64(len(data))*1040+64 {
			t.Fatalf("decoded %d bytes from %d input bytes", len(out), len(data))
		}
	})
}

// FuzzShuffle asserts the pre-pass is a bijection for every stride and
// length combination the envelope can express, and that the float width,
// which goes through grid's transpose kernel, lays the bytes out as a
// byte-at-a-time loop does.
func FuzzShuffle(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), 8)
	f.Add([]byte{}, 4)
	f.Add([]byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef0123456789abc"), 8)
	f.Fuzz(func(t *testing.T, data []byte, stride int) {
		if stride < 0 || stride > 255 {
			return
		}
		back := UnshuffleBytes(ShuffleBytes(data, stride), stride)
		if !bytes.Equal(back, data) {
			t.Fatalf("stride %d len %d: not a bijection", stride, len(data))
		}
		if got, want := ShuffleBytes(data, 8), byteLanes8(data); !bytes.Equal(got, want) {
			t.Fatalf("len %d: stride-8 shuffle %x, byte at a time %x", len(data), got, want)
		}
	})
}

// byteLanes8 is the stride-8 shuffle one byte at a time: byte k of word i
// goes to k*n+i, and the tail past the last whole word follows verbatim.
func byteLanes8(src []byte) []byte {
	n := len(src) / 8
	out := make([]byte, len(src))
	for i := 0; i < n; i++ {
		for k := 0; k < 8; k++ {
			out[k*n+i] = src[8*i+k]
		}
	}
	copy(out[8*n:], src[8*n:])
	return out
}
