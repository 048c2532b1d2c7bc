package grid

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// refLanes is the lane layout byte at a time: byte k of word i goes to
// k*n+i. The kernel is held to it.
func refLanes(src []byte, stride int) []byte {
	n := len(src) / stride
	out := make([]byte, len(src))
	for i := 0; i < n; i++ {
		for k := 0; k < stride; k++ {
			out[k*n+i] = src[stride*i+k]
		}
	}
	return out
}

// TestLanesMatchReference: at stride 8 every word count from 0 to 200 — the
// byte-by-byte tail alone, then 8-word blocks beside every tail length — and a
// climate field (1156×82×2 values); a few counts at the strides that go byte
// by byte.
func TestLanesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	counts := make([]int, 0, 202)
	for n := 0; n <= 200; n++ {
		counts = append(counts, n)
	}
	for _, c := range []struct {
		stride int
		counts []int
	}{{8, append(counts, 1156*82*2)}, {2, counts[:20]}, {3, counts[:20]}, {16, counts[:20]}} {
		for _, n := range c.counts {
			src := make([]byte, c.stride*n)
			rng.Read(src)
			want := refLanes(src, c.stride)
			got := bytes.Repeat([]byte{0xa5}, len(src))
			Lanes(got, src, c.stride)
			if !bytes.Equal(got, want) {
				t.Fatalf("stride %d, %d words: Lanes differs from the byte-at-a-time layout", c.stride, n)
			}
			back := bytes.Repeat([]byte{0x5a}, len(src))
			Unlanes(back, want, c.stride)
			if !bytes.Equal(back, src) {
				t.Fatalf("stride %d, %d words: Unlanes does not invert the layout", c.stride, n)
			}
			if c.stride != 8 {
				continue
			}
			fs := make([]float64, n)
			for i := range fs {
				fs[i] = math.Float64frombits(rng.Uint64())
			}
			into := make([]float64, n)
			PutLanes(into, refLanes(FloatBytes(fs), 8))
			for i := range fs {
				if math.Float64bits(into[i]) != math.Float64bits(fs[i]) {
					t.Fatalf("%d words: PutLanes value %d is %x, want %x", n, i, math.Float64bits(into[i]), math.Float64bits(fs[i]))
				}
			}
		}
	}
}

func TestLanesRefuseMismatchedLengths(t *testing.T) {
	for _, c := range []struct{ dst, src, stride int }{{8, 9, 8}, {15, 15, 8}, {16, 8, 8}, {7, 7, 2}, {8, 8, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Lanes into %d bytes from %d at stride %d did not panic", c.dst, c.src, c.stride)
				}
			}()
			Lanes(make([]byte, c.dst), make([]byte, c.src), c.stride)
		}()
	}
}

// FuzzLanes holds the kernel to the byte-at-a-time layout and to its own
// inverse on every whole number of words, at stride 8 and at the fuzzed one.
func FuzzLanes(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef!"), uint8(8))
	f.Add([]byte{}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, s uint8) {
		for _, stride := range []int{8, max(int(s), 1)} {
			src := data[:len(data)/stride*stride]
			got := make([]byte, len(src))
			Lanes(got, src, stride)
			if !bytes.Equal(got, refLanes(src, stride)) {
				t.Fatalf("stride %d, %d bytes: Lanes differs from the byte-at-a-time layout", stride, len(src))
			}
			back := make([]byte, len(src))
			Unlanes(back, got, stride)
			if !bytes.Equal(back, src) {
				t.Fatalf("stride %d, %d bytes: Unlanes does not invert Lanes", stride, len(src))
			}
		}
	})
}

func BenchmarkLanes(b *testing.B) {
	src := make([]byte, 8*1156*82*2)
	rand.New(rand.NewSource(1)).Read(src)
	dst := make([]byte, len(src))
	for _, c := range []struct {
		name string
		fn   func(dst, src []byte, stride int)
	}{{"lanes", Lanes}, {"unlanes", Unlanes}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				c.fn(dst, src, 8)
			}
		})
	}
}
