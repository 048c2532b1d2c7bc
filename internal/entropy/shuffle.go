// shuffle.go implements the whole-stream byte-shuffle pre-pass of the
// entropy stage. Nearby climate samples share sign, exponent, and
// high-mantissa bytes, so transposing a run of fixed-width little-endian
// values into byte lanes — all byte-0s, then all byte-1s, … — turns
// per-value similarity into long same-lane runs that the cheap LZ4-class
// coder can match, the standard trick of production scientific
// compressors (blosc, HDF5's shuffle filter; see PAPERS.md, Di et al.).
// It is the pre-pass of the raw-array codecs, whose input is nothing but
// doubles, and the decode side of every stream flagged as shuffled. A
// pipeline stream no longer needs it: container format 2 stores each float
// section in these lanes and leaves the code and bitmap sections alone.
// The transpose is grid.Lanes, the kernel the container's float sections
// use too.
package entropy

import "lossyckpt/internal/grid"

// ShuffleBytes transposes src into stride byte lanes: output lane k
// holds byte k of each stride-sized element, in element order. The tail
// (len(src) % stride) is appended verbatim, so the transform is a
// bijection for every input length and alignment. stride < 2 returns
// src unchanged.
func ShuffleBytes(src []byte, stride int) []byte { return shuffleTo(nil, src, stride, true) }

// UnshuffleBytes inverts ShuffleBytes for the same stride, into a new slice.
func UnshuffleBytes(src []byte, stride int) []byte { return shuffleTo(nil, src, stride, false) }

// shuffleTo is ShuffleBytes (toLanes) or UnshuffleBytes into a buffer the
// caller keeps: it writes over dst from its start, growing it if it is short,
// and returns the len(src) bytes written. dst and src must not overlap.
func shuffleTo(dst, src []byte, stride int, toLanes bool) []byte {
	if cap(dst) < len(src) {
		dst = make([]byte, len(src)) // not slices.Grow: append clears what make already gets zeroed
	}
	out, n := dst[:len(src)], 0
	if stride >= 2 {
		n = len(src) / stride * stride
		if toLanes {
			grid.Lanes(out[:n], src[:n], stride)
		} else {
			grid.Unlanes(out[:n], src[:n], stride)
		}
	}
	copy(out[n:], src[n:])
	return out
}
