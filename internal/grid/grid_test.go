package grid

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewShapes(t *testing.T) {
	cases := []struct {
		shape []int
		ok    bool
	}{
		{[]int{4}, true},
		{[]int{3, 5}, true},
		{[]int{2, 3, 4}, true},
		{[]int{1}, true},
		{[]int{1, 1, 1, 1, 1, 1, 1, 1}, true},
		{[]int{}, false},
		{[]int{0}, false},
		{[]int{-1, 4}, false},
		{[]int{1, 1, 1, 1, 1, 1, 1, 1, 1}, false},
	}
	for _, c := range cases {
		f, err := New(c.shape...)
		if c.ok && err != nil {
			t.Errorf("New(%v): unexpected error %v", c.shape, err)
		}
		if !c.ok && err == nil {
			t.Errorf("New(%v): expected error, got %v", c.shape, f)
		}
	}
}

func TestNewZeroFilled(t *testing.T) {
	f := MustNew(3, 4)
	if f.Len() != 12 {
		t.Fatalf("Len = %d, want 12", f.Len())
	}
	for i, v := range f.Data() {
		if v != 0 {
			t.Fatalf("element %d = %g, want 0", i, v)
		}
	}
}

func TestFromSlice(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	f, err := FromSlice(d, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %g, want 6", f.At(1, 2))
	}
	// No copy: mutating the slice mutates the field.
	d[5] = 99
	if f.At(1, 2) != 99 {
		t.Errorf("FromSlice copied; At(1,2) = %g, want 99", f.At(1, 2))
	}
	if _, err := FromSlice(d, 7); err == nil {
		t.Error("FromSlice with wrong size: expected error")
	}
}

func TestOffsetRowMajor(t *testing.T) {
	f := MustNew(2, 3, 4)
	// Row-major: offset = i*12 + j*4 + k.
	want := 0
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 4; k++ {
				if got := f.Offset(i, j, k); got != want {
					t.Fatalf("Offset(%d,%d,%d) = %d, want %d", i, j, k, got, want)
				}
				want++
			}
		}
	}
}

func TestOffsetPanics(t *testing.T) {
	f := MustNew(2, 3)
	for _, idx := range [][]int{{1}, {1, 2, 3}, {2, 0}, {0, 3}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Offset(%v) did not panic", idx)
				}
			}()
			f.Offset(idx...)
		}()
	}
}

func TestSetAt(t *testing.T) {
	f := MustNew(4, 5)
	f.Set(3.25, 2, 3)
	if got := f.At(2, 3); got != 3.25 {
		t.Errorf("At = %g, want 3.25", got)
	}
	if got := f.Data()[2*5+3]; got != 3.25 {
		t.Errorf("flat = %g, want 3.25", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	f := MustNew(3)
	f.Set(1, 0)
	g := f.Clone()
	g.Set(2, 0)
	if f.At(0) != 1 {
		t.Error("Clone shares backing storage")
	}
	if !f.SameShape(g) {
		t.Error("Clone changed shape")
	}
}

func TestMinMax(t *testing.T) {
	f, _ := FromSlice([]float64{3, -1, math.NaN(), 7, 2}, 5)
	min, max := f.MinMax()
	if min != -1 || max != 7 {
		t.Errorf("MinMax = (%g,%g), want (-1,7)", min, max)
	}
	g, _ := FromSlice([]float64{math.NaN(), math.NaN()}, 2)
	min, max = g.MinMax()
	if !math.IsNaN(min) || !math.IsNaN(max) {
		t.Errorf("all-NaN MinMax = (%g,%g), want NaNs", min, max)
	}
}

func TestSumKahan(t *testing.T) {
	// 1 + 1e16 + 1 + -1e16 naive summation loses one of the 1s.
	f, _ := FromSlice([]float64{1, 1e16, 1, -1e16}, 4)
	if got := f.Sum(); got != 2 {
		t.Errorf("Sum = %g, want 2 (compensated)", got)
	}
}

func TestEqual(t *testing.T) {
	a, _ := FromSlice([]float64{1, math.NaN()}, 2)
	b, _ := FromSlice([]float64{1, math.NaN()}, 2)
	c, _ := FromSlice([]float64{1, 2}, 2)
	d, _ := FromSlice([]float64{1, math.NaN()}, 1, 2)
	if !a.Equal(b) {
		t.Error("NaN-equal fields reported unequal")
	}
	if a.Equal(c) {
		t.Error("different fields reported equal")
	}
	if a.Equal(d) {
		t.Error("different shapes reported equal")
	}
}

func TestFillApply(t *testing.T) {
	f := MustNew(2, 2)
	f.Fill(2)
	f.Apply(func(x float64) float64 { return x * x })
	for _, v := range f.Data() {
		if v != 4 {
			t.Fatalf("got %g, want 4", v)
		}
	}
}

func TestScratchSizedAndReusable(t *testing.T) {
	a := GetScratch(100)
	if len(a.S) != 100 {
		t.Fatalf("len = %d, want 100", len(a.S))
	}
	a.Put()
	for _, n := range []int{0, 7, 100, 1000} {
		b := GetScratch(n)
		if len(b.S) != n {
			t.Fatalf("len = %d, want %d", len(b.S), n)
		}
		for i := range b.S {
			b.S[i] = 1 // the whole length is writable
		}
		b.Put()
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	shapes := [][]int{{1}, {7}, {4, 9}, {3, 5, 7}, {2, 2, 2, 2}}
	rng := rand.New(rand.NewSource(42))
	for _, shape := range shapes {
		f := MustNew(shape...)
		for i := range f.Data() {
			f.Data()[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(10)-5))
		}
		f.Data()[0] = math.NaN()
		if f.Len() > 1 {
			f.Data()[1] = math.Inf(-1)
		}
		var buf bytes.Buffer
		n, err := f.WriteTo(&buf)
		if err != nil {
			t.Fatalf("WriteTo(%v): %v", shape, err)
		}
		if n != int64(buf.Len()) {
			t.Errorf("WriteTo returned %d, wrote %d", n, buf.Len())
		}
		g, err := ReadField(&buf)
		if err != nil {
			t.Fatalf("ReadField(%v): %v", shape, err)
		}
		if !f.Equal(g) {
			t.Errorf("round trip of %v changed data", shape)
		}
	}
}

func TestReadFieldErrors(t *testing.T) {
	// Truncated header.
	if _, err := ReadField(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("truncated header: expected error")
	}
	// Bad magic.
	bad := make([]byte, 16)
	if _, err := ReadField(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic: expected error")
	}
	// Truncated data.
	f := MustNew(10)
	var buf bytes.Buffer
	_, _ = f.WriteTo(&buf)
	trunc := buf.Bytes()[:buf.Len()-8]
	if _, err := ReadField(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated data: expected error")
	}
}

func TestBytes(t *testing.T) {
	if got := MustNew(10, 10).Bytes(); got != 800 {
		t.Errorf("Bytes = %d, want 800", got)
	}
}

// Property: serialization round trip is the identity for arbitrary 1D data.
func TestQuickSerializeRoundTrip(t *testing.T) {
	fn := func(data []float64) bool {
		if len(data) == 0 {
			return true
		}
		f, err := FromSlice(data, len(data))
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			return false
		}
		g, err := ReadField(&buf)
		if err != nil {
			return false
		}
		return f.Equal(g)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// stagedImage is the byte image the delta caches fingerprinted before they
// read FloatBytes: the array copied element by element, little-endian.
func stagedImage(data []float64) []byte {
	out := make([]byte, 0, 8*len(data))
	for _, v := range data {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// TestFloatBytesMatchesStagedImage: the byte view is the staged image, byte
// for byte, at lengths around the old 512-element block and for a slab, with
// a NaN and an infinity in it — what the fingerprints and the lossless codecs
// read of an array is what the stream format defines it by.
func TestFloatBytesMatchesStagedImage(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 1156 * 82 * 2} {
		data := make([]float64, n)
		for i := range data {
			data[i] = math.Sin(float64(i)) * math.Exp(float64(i%37))
		}
		if n > 2 {
			data[1], data[2] = math.NaN(), math.Inf(-1)
		}
		if got := FloatBytes(data); len(got) != 8*n || !bytes.Equal(got, stagedImage(data)) {
			t.Errorf("n=%d: view of %d bytes differs from the staged image", n, len(got))
		}
	}
}

// TestFingerprintKey: a key's sum is a function of the bytes — equal arrays,
// equal sums; one bit anywhere, another sum, under each of the two seeds — and
// two keys are drawn independently.
func TestFingerprintKey(t *testing.T) {
	k := NewFingerprintKey()
	data := make([]float64, 1000)
	for i := range data {
		data[i] = math.Cos(float64(i) / 7)
	}
	sum := k.Sum(data)
	if k.Sum(slices.Clone(data)) != sum {
		t.Fatal("equal arrays, different fingerprints")
	}
	for _, i := range []int{0, 499, 999} {
		mut := slices.Clone(data)
		mut[i] = math.Float64frombits(math.Float64bits(mut[i]) ^ 1)
		if got := k.Sum(mut); got[0] == sum[0] || got[1] == sum[1] {
			t.Errorf("one ULP at %d: fingerprint %x, unchanged %x", i, got, sum)
		}
	}
	if other := NewFingerprintKey().Sum(data); other[0] == sum[0] || other[1] == sum[1] || sum[0] == sum[1] {
		t.Errorf("seeds not independent: %x and %x", sum, other)
	}
}

// TestElemsAndDest: Elems vets a shape as New does without allocating, and
// Dest hands back the caller's field only when it has exactly that shape.
func TestElemsAndDest(t *testing.T) {
	if n, err := Elems(3, 4, 5); err != nil || n != 60 {
		t.Errorf("Elems(3,4,5) = %d, %v", n, err)
	}
	for _, bad := range [][]int{{}, {0}, {3, -1}, {math.MaxInt32, math.MaxInt32, math.MaxInt32}} {
		if _, err := Elems(bad...); !errors.Is(err, ErrShape) {
			t.Errorf("Elems(%v): %v", bad, err)
		}
	}
	if n, err := Elems(math.MaxInt32, math.MaxInt32); err != nil || n != math.MaxInt32*math.MaxInt32 {
		t.Errorf("Elems of a shape too large to allocate: %d, %v", n, err)
	}

	own := MustNew(3, 4)
	if f, err := Dest(own, 3, 4); err != nil || f != own {
		t.Errorf("Dest(own, its shape) = %p, %v", f, err)
	}
	for _, other := range [][]int{{4, 3}, {12}, {3, 4, 1}} {
		if f, err := Dest(own, other...); !errors.Is(err, ErrShape) || f != nil {
			t.Errorf("Dest(own, %v) = %v, %v", other, f, err)
		}
	}
	if f, err := Dest(nil, 3, 4); err != nil || f == own || !f.SameShape(own) {
		t.Errorf("Dest(nil, 3, 4) = %v, %v", f, err)
	}
}
