package container

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"lossyckpt/internal/entropy"
	"lossyckpt/internal/grid"
)

// byteLanes is the lane layout one byte at a time, as the writers produced it
// before they shared a kernel: byte k of value i of an n-value run goes to
// k*n+i, and a tail shorter than a value follows verbatim.
func byteLanes(src []byte) []byte {
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

// TestLaneWritersMatchByteReference: the entropy stage's shuffle and
// unshuffle at the float width and the container's float sections, written
// and read, all lay values out as byteLanes does — for every count from 0 to
// 200, which puts every tail length beside 0 to 25 whole 8-value blocks, and
// for a climate field of 1156×82×2 values. The shuffle also gets the byte
// tails a raw stream may end in.
func TestLaneWritersMatchByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	counts := make([]int, 0, 202)
	for n := 0; n <= 200; n++ {
		counts = append(counts, n)
	}
	for _, n := range append(counts, 1156*82*2) {
		fs := make([]float64, n)
		for i := range fs {
			fs[i] = math.Float64frombits(rng.Uint64())
		}
		words := bytes.Clone(grid.FloatBytes(fs))

		raw := append(bytes.Clone(words), words[:n%8]...) // a tail of n%8 bytes
		want := byteLanes(raw)
		if got := entropy.ShuffleBytes(raw, 8); !bytes.Equal(got, want) {
			t.Fatalf("%d values + %d bytes: ShuffleBytes differs from the byte-at-a-time lanes", n, n%8)
		}
		if got := entropy.UnshuffleBytes(want, 8); !bytes.Equal(got, raw) {
			t.Fatalf("%d values + %d bytes: UnshuffleBytes does not restore the words", n, n%8)
		}

		section := binary.LittleEndian.AppendUint64([]byte("prefix"), uint64(n))
		section = append(section, byteLanes(words)...)
		if got := appendFloats([]byte("prefix"), fs); !bytes.Equal(got, section) {
			t.Fatalf("%d values: appendFloats differs from the byte-at-a-time lanes", n)
		}
		rd := &sliceReader{b: section, off: len("prefix"), lanes: true}
		back := rd.floats()
		if rd.err != nil || rd.remaining() != 0 || len(back) != n {
			t.Fatalf("%d values: floats read %d values, %d bytes left, error %v", n, len(back), rd.remaining(), rd.err)
		}
		if !bytes.Equal(grid.FloatBytes(back), words) {
			t.Fatalf("%d values: floats does not read the lanes back bit for bit", n)
		}
	}
}
