package encode

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lossyckpt/internal/bitpack"
	"lossyckpt/internal/quant"
)

func spiky(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		if rng.Float64() < 0.9 {
			out[i] = rng.NormFloat64() * 0.01
		} else {
			out[i] = rng.NormFloat64() * 5
		}
	}
	return out
}

// apply quantizes vals and reconstructs them one bitmap bit at a time: the
// reference Decode is held to.
func apply(vals []float64, cfg quant.Config) ([]float64, *quant.Quantization, error) {
	q, err := quant.Quantize(vals, cfg)
	if err != nil {
		return nil, nil, err
	}
	return decodeRef(&EncodedBand{N: len(vals), Bitmap: q.Bitmap, Codes: q.Codes, Averages: q.Averages, Passthrough: q.Passthrough}, nil), q, nil
}

// decodeRef is Decode as it stood: a Get per value, two cursors.
func decodeRef(e *EncodedBand, out []float64) []float64 {
	ci, pi := 0, 0
	for i := 0; i < e.N; i++ {
		if e.Bitmap.Get(i) {
			out = append(out, e.Averages[e.Codes[ci]])
			ci++
		} else {
			out = append(out, e.Passthrough[pi])
			pi++
		}
	}
	return out
}

func TestEncodeDecodeMatchesDequantize(t *testing.T) {
	vals := spiky(8000, 1)
	for _, m := range []quant.Method{quant.Simple, quant.Proposed} {
		cfg := quant.Config{Method: m, Divisions: 32}
		want, q, err := apply(vals, cfg)
		if err != nil {
			t.Fatal(err)
		}
		band, err := Encode(vals, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := band.Decode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: decoded %d values, want %d", m, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("%v: value %d: got %g want %g", m, i, got[i], want[i])
			}
		}
	}
}

func TestEncodeLengthMismatch(t *testing.T) {
	vals := spiky(100, 2)
	q, _ := quant.Quantize(vals, quant.Config{Method: quant.Simple, Divisions: 4})
	if _, err := Encode(vals[:50], q); err == nil {
		t.Error("mismatched input length: expected error")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	vals := spiky(500, 3)
	q, _ := quant.Quantize(vals, quant.Config{Method: quant.Proposed, Divisions: 8})
	band, err := Encode(vals, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := band.Validate(); err != nil {
		t.Fatalf("fresh band invalid: %v", err)
	}

	// Nil bitmap.
	b1 := *band
	b1.Bitmap = nil
	if b1.Validate() == nil {
		t.Error("nil bitmap accepted")
	}
	// Wrong bitmap length.
	b2 := *band
	b2.Bitmap = bitpack.New(band.N + 1)
	if b2.Validate() == nil {
		t.Error("wrong bitmap length accepted")
	}
	// Missing codes.
	b3 := *band
	if len(band.Codes) > 0 {
		b3.Codes = band.Codes[:len(band.Codes)-1]
		if b3.Validate() == nil {
			t.Error("short code stream accepted")
		}
	}
	// Out-of-range code.
	b4 := *band
	b4.Codes = append([]uint8(nil), band.Codes...)
	if len(b4.Codes) > 0 {
		b4.Codes[0] = uint8(len(band.Averages))
		if b4.Validate() == nil {
			t.Error("out-of-range code accepted")
		}
	}
	// Extra passthrough.
	b5 := *band
	b5.Passthrough = append(append([]float64(nil), band.Passthrough...), 1)
	if b5.Validate() == nil {
		t.Error("extra passthrough accepted")
	}
}

func TestPayloadSmallerThanRawForSpikyData(t *testing.T) {
	// The whole point of stages 2-3: for spiky high bands, codes (1 byte)
	// replace doubles (8 bytes), so payload << raw.
	vals := spiky(20000, 4)
	q, _ := quant.Quantize(vals, quant.Config{Method: quant.Proposed, Divisions: 128})
	band, _ := Encode(vals, q)
	if band.PayloadBytes() >= band.RawBytes() {
		t.Errorf("payload %d >= raw %d", band.PayloadBytes(), band.RawBytes())
	}
	// Simple quantization encodes everything: payload ~ N bytes + table.
	qs, _ := quant.Quantize(vals, quant.Config{Method: quant.Simple, Divisions: 128})
	bs, _ := Encode(vals, qs)
	if got, bound := bs.PayloadBytes(), len(vals)+8*128+9+64; got > bound {
		t.Errorf("simple payload %d exceeds expected bound %d", got, bound)
	}
}

func TestDecodeAppendsToDst(t *testing.T) {
	vals := spiky(100, 5)
	q, _ := quant.Quantize(vals, quant.Config{Method: quant.Simple, Divisions: 4})
	band, _ := Encode(vals, q)
	prefix := []float64{42}
	out, err := band.Decode(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 101 || out[0] != 42 {
		t.Errorf("Decode did not append: len=%d out[0]=%g", len(out), out[0])
	}
}

func TestEmptyBand(t *testing.T) {
	q, _ := quant.Quantize(nil, quant.Config{Method: quant.Simple, Divisions: 4})
	band, err := Encode(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	out, err := band.Decode(nil)
	if err != nil || len(out) != 0 {
		t.Errorf("empty band decode: %v %v", out, err)
	}
}

// Property: encode/decode round trip equals the bit-by-bit reference for random data.
func TestQuickEncodeDecode(t *testing.T) {
	fn := func(seed int64, nRaw, div uint8) bool {
		n := int(nRaw)%500 + 1
		d := int(div)%quant.MaxDivisions + 1
		vals := spiky(n, seed)
		want, q, err := apply(vals, quant.Config{Method: quant.Proposed, Divisions: d})
		if err != nil {
			return false
		}
		band, err := Encode(vals, q)
		if err != nil {
			return false
		}
		got, err := band.Decode(nil)
		if err != nil {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestEncodeIsAssembly: the band is views of the quantization, and a
// quantization that selected nothing — the quantizer's or PassthroughAll's —
// carries the input itself, not a copy.
func TestEncodeIsAssembly(t *testing.T) {
	vals := spiky(1000, 6)
	q, err := quant.Quantize(vals, quant.Config{Method: quant.Proposed, Divisions: 16})
	if err != nil {
		t.Fatal(err)
	}
	band, err := Encode(vals, q)
	if err != nil {
		t.Fatal(err)
	}
	if band.Bitmap != q.Bitmap || &band.Codes[0] != &q.Codes[0] || &band.Passthrough[0] != &q.Passthrough[0] {
		t.Error("Encode copied a piece of the quantization")
	}
	if a := testing.AllocsPerRun(10, func() { _, _ = Encode(vals, q) }); a > 1 {
		t.Errorf("Encode allocates %.0f times, want the band alone", a)
	}
	nan := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	qn, err := quant.Quantize(nan, quant.Config{Method: quant.Proposed, Divisions: 4})
	if err != nil {
		t.Fatal(err)
	}
	for name, q := range map[string]*quant.Quantization{"all non-finite": qn, "PassthroughAll": quant.PassthroughAll(len(nan))} {
		band, err := Encode(nan, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := band.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(band.Passthrough) != len(nan) || &band.Passthrough[0] != &nan[0] {
			t.Errorf("%s: passthrough is not the input slice", name)
		}
	}
	// A quantization whose passthrough does not add up is refused.
	bad := *q
	bad.Passthrough = q.Passthrough[:len(q.Passthrough)-1]
	if _, err := Encode(vals, &bad); err == nil {
		t.Error("short passthrough accepted")
	}
}

// patternBand builds a band of n values whose bitmap follows pattern.
func patternBand(n int, pattern func(i int) bool, rng *rand.Rand) *EncodedBand {
	e := &EncodedBand{N: n, Bitmap: bitpack.New(n), Averages: make([]float64, 1+rng.Intn(255))}
	for i := range e.Averages {
		e.Averages[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		if pattern(i) {
			e.Bitmap.Set(i, true)
			e.Codes = append(e.Codes, uint8(rng.Intn(len(e.Averages))))
		} else {
			e.Passthrough = append(e.Passthrough, rng.NormFloat64()*100)
		}
	}
	return e
}

// TestDecodeMatchesBitByBit holds the run-walking Decode to the Get-per-value
// one over every length through two words and a tail, and every kind of word:
// all codes, all passthrough, isolated bits of either kind, runs that straddle
// word boundaries, random.
func TestDecodeMatchesBitByBit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	patterns := map[string]func(i int) bool{
		"all codes":       func(int) bool { return true },
		"all passthrough": func(int) bool { return false },
		"alternating":     func(i int) bool { return i%2 == 0 },
		"lone zeros":      func(i int) bool { return i%17 != 3 },
		"lone ones":       func(i int) bool { return i%13 == 5 },
		"runs":            func(i int) bool { return (i/23)%2 == 0 },
		"word then word":  func(i int) bool { return (i/64)%2 == 0 },
		"random":          func(int) bool { return rng.Intn(2) == 0 },
		"mostly codes":    func(int) bool { return rng.Intn(20) != 0 },
	}
	for name, pattern := range patterns {
		for n := 0; n <= 200; n++ {
			e := patternBand(n, pattern, rng)
			want := decodeRef(e, nil)
			got, err := e.Decode([]float64{-1})
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if got[0] != -1 || len(got) != n+1 {
				t.Fatalf("%s n=%d: Decode did not append", name, n)
			}
			for i := range want {
				if got[i+1] != want[i] {
					t.Fatalf("%s n=%d: value %d = %g, want %g", name, n, i, got[i+1], want[i])
				}
			}
		}
	}
}

// TestDecodeRefusesForgedBands: Decode makes its own checks — a band nobody
// validated is an error, not a panic, whichever word kind the bad code sits in.
func TestDecodeRefusesForgedBands(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for name, pattern := range map[string]func(i int) bool{
		"dense": func(int) bool { return true },
		"mixed": func(i int) bool { return i%3 != 0 },
	} {
		for _, at := range []int{0, 70, -1} {
			e := patternBand(300, pattern, rng)
			if at < 0 {
				at = len(e.Codes) - 1
			}
			e.Codes[at] = uint8(len(e.Averages))
			if len(e.Averages) == 256 {
				continue
			}
			if _, err := e.Decode(nil); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: out-of-range code %d: err = %v, want ErrCorrupt", name, at, err)
			}
		}
		e := patternBand(300, pattern, rng)
		e.Codes = e.Codes[:len(e.Codes)-1]
		if _, err := e.Decode(nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: short codes: err = %v, want ErrCorrupt", name, err)
		}
		e = patternBand(300, pattern, rng)
		e.Passthrough = append(e.Passthrough, 1)
		if _, err := e.Decode(nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: long passthrough: err = %v, want ErrCorrupt", name, err)
		}
		e = patternBand(300, pattern, rng)
		e.N = 299
		if _, err := e.Decode(nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: wrong N: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// BenchmarkDecodeBand times the restore side of stage 3 on the two band
// shapes the end-to-end benchmark decodes — one slab of the 24 MB array and
// one climate field — beside the Get-per-value loop it replaced.
func BenchmarkDecodeBand(b *testing.B) {
	for _, n := range []int{18368, 165886} {
		vals := spiky(n, 9)
		q, err := quant.Quantize(vals, quant.Config{Method: quant.Proposed, Divisions: 128})
		if err != nil {
			b.Fatal(err)
		}
		band, err := Encode(vals, q)
		if err != nil {
			b.Fatal(err)
		}
		dst := make([]float64, 0, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(8 * n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := band.Decode(dst[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/reference", n), func(b *testing.B) {
			b.SetBytes(int64(8 * n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := band.Validate(); err != nil {
					b.Fatal(err)
				}
				sink = decodeRef(band, dst[:0])
			}
		})
	}
}

var sink []float64
