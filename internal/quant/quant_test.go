package quant

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// spikyData mimics wavelet high-frequency coefficients: most values pile up
// near zero with a few large outliers.
func spikyData(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		if rng.Float64() < 0.95 {
			out[i] = rng.NormFloat64() * 0.01 // the spike near zero
		} else {
			out[i] = rng.NormFloat64() * 10 // sparse outliers
		}
	}
	return out
}

func TestSimpleQuantizeDistinctValues(t *testing.T) {
	vals := spikyData(10000, 1)
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		out, q, err := Apply(vals, Config{Method: Simple, Divisions: n})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		distinct := map[float64]bool{}
		for _, v := range out {
			distinct[v] = true
		}
		if len(distinct) > n {
			t.Errorf("n=%d: %d distinct values after simple quantization", n, len(distinct))
		}
		if q.NumQuantized != len(vals) {
			t.Errorf("n=%d: simple quantized %d of %d values", n, q.NumQuantized, len(vals))
		}
	}
}

func TestSimpleQuantizeAveragesAreMeans(t *testing.T) {
	// Hand-checkable: values 0..9, n=2 partitions over [0,9]:
	// partition 0 holds 0..4 (mean 2), partition 1 holds 5..9 (mean 7).
	// Indexing: i = floor(2*(v-0)/9): v=4 -> 0, v=5 -> 1.
	vals := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	q, err := Quantize(vals, Config{Method: Simple, Divisions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if q.Averages[0] != 2 || q.Averages[1] != 7 {
		t.Errorf("averages = %v, want [2 7]", q.Averages)
	}
	wantCodes := []uint8{0, 0, 0, 0, 0, 1, 1, 1, 1, 1}
	for i, c := range q.Codes {
		if c != wantCodes[i] {
			t.Errorf("code %d = %d, want %d", i, c, wantCodes[i])
		}
	}
}

func TestProposedQuantizesOnlySpike(t *testing.T) {
	// 95% of values in a tight spike near 0, 5% outliers: the outliers must
	// pass through losslessly under Proposed.
	vals := spikyData(20000, 2)
	out, q, err := Apply(vals, Config{Method: Proposed, Divisions: 16, SpikeDivisions: 64})
	if err != nil {
		t.Fatal(err)
	}
	if q.NumQuantized == 0 || q.NumQuantized == len(vals) {
		t.Fatalf("proposed quantized %d of %d values; expected a strict subset", q.NumQuantized, len(vals))
	}
	for i, v := range vals {
		if !q.Bitmap.Get(i) && out[i] != v {
			t.Errorf("passthrough value %d changed: %g -> %g", i, v, out[i])
		}
	}
	if q.SpikePartitions < 1 || q.SpikePartitions >= 64 {
		t.Errorf("spike partitions = %d; expected a small positive count", q.SpikePartitions)
	}
}

func TestProposedErrorSmallerThanSimple(t *testing.T) {
	// The paper's headline claim (Fig. 8): at equal n, the proposed method's
	// max error is much smaller because outliers are not collapsed into
	// coarse partition means.
	vals := spikyData(20000, 3)
	for _, n := range []int{4, 16, 64} {
		simple, qs, err := Apply(vals, Config{Method: Simple, Divisions: n})
		if err != nil {
			t.Fatal(err)
		}
		proposed, qp, err := Apply(vals, Config{Method: Proposed, Divisions: n})
		if err != nil {
			t.Fatal(err)
		}
		_ = qs
		_ = qp
		maxErr := func(out []float64) float64 {
			m := 0.0
			for i := range vals {
				if e := math.Abs(vals[i] - out[i]); e > m {
					m = e
				}
			}
			return m
		}
		es, ep := maxErr(simple), maxErr(proposed)
		if ep >= es {
			t.Errorf("n=%d: proposed max error %g not below simple %g", n, ep, es)
		}
	}
}

func TestErrorDecreasesWithDivisions(t *testing.T) {
	vals := spikyData(20000, 4)
	avgErr := func(n int, m Method) float64 {
		out, _, err := Apply(vals, Config{Method: m, Divisions: n})
		if err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for i := range vals {
			s += math.Abs(vals[i] - out[i])
		}
		return s / float64(len(vals))
	}
	for _, m := range []Method{Simple, Proposed} {
		e1, e128 := avgErr(1, m), avgErr(128, m)
		if e128 >= e1 {
			t.Errorf("%v: avg error did not decrease: n=1 %g, n=128 %g", m, e1, e128)
		}
	}
}

func TestDequantizeRoundTripStructure(t *testing.T) {
	vals := spikyData(5000, 5)
	for _, m := range []Method{Simple, Proposed} {
		q, err := Quantize(vals, Config{Method: m, Divisions: 32})
		if err != nil {
			t.Fatal(err)
		}
		pass := q.Passthrough
		if len(pass)+len(q.Codes) != len(vals) {
			t.Fatalf("%v: passthrough %d + codes %d != %d", m, len(pass), len(q.Codes), len(vals))
		}
		out, err := Dequantize(q.Mask(), q.Codes, q.Averages, pass, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(vals) {
			t.Fatalf("%v: dequantized %d values, want %d", m, len(out), len(vals))
		}
		// Each reconstructed value is either the original (passthrough) or
		// a table average.
		avgs := map[float64]bool{}
		for _, a := range q.Averages {
			avgs[a] = true
		}
		for i, v := range out {
			if q.Bitmap.Get(i) && !avgs[v] {
				t.Fatalf("%v: quantized value %d = %g is not a table average", m, i, v)
			}
			if !q.Bitmap.Get(i) && v != vals[i] {
				t.Fatalf("%v: passthrough value %d changed", m, i)
			}
		}
	}
}

func TestNonFiniteValuesPassThrough(t *testing.T) {
	vals := []float64{1, math.NaN(), 2, math.Inf(1), 3, math.Inf(-1), 4}
	for _, m := range []Method{Simple, Proposed} {
		out, q, err := Apply(vals, Config{Method: m, Divisions: 8})
		if err != nil {
			t.Fatal(err)
		}
		if q.Bitmap.Get(1) || q.Bitmap.Get(3) || q.Bitmap.Get(5) {
			t.Errorf("%v: non-finite value was quantized", m)
		}
		if !math.IsNaN(out[1]) || !math.IsInf(out[3], 1) || !math.IsInf(out[5], -1) {
			t.Errorf("%v: non-finite values not reconstructed exactly: %v", m, out)
		}
	}
}

func TestConstantInput(t *testing.T) {
	vals := []float64{5, 5, 5, 5}
	for _, m := range []Method{Simple, Proposed} {
		out, _, err := Apply(vals, Config{Method: m, Divisions: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != 5 {
				t.Errorf("%v: constant input reconstructed to %g at %d", m, v, i)
			}
		}
	}
}

func TestEmptyInput(t *testing.T) {
	for _, m := range []Method{Simple, Proposed} {
		q, err := Quantize(nil, Config{Method: m, Divisions: 4})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(q.Codes) != 0 || q.NumQuantized != 0 {
			t.Errorf("%v: empty input produced codes", m)
		}
		out, err := Dequantize(q.Mask(), q.Codes, q.Averages, nil, nil)
		if err != nil || len(out) != 0 {
			t.Errorf("%v: dequantize empty failed: %v %v", m, out, err)
		}
	}
}

func TestSingleValue(t *testing.T) {
	out, _, err := Apply([]float64{3.5}, Config{Method: Simple, Divisions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 3.5 {
		t.Errorf("single value reconstructed to %g", out[0])
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Method: Simple, Divisions: 0},
		{Method: Simple, Divisions: 256},
		{Method: Simple, Divisions: -3},
		{Method: Method(7), Divisions: 4},
		{Method: Proposed, Divisions: 4, SpikeDivisions: -1},
		{Method: Proposed, Divisions: 4, SpikeDivisions: MaxSpikeDivisions + 1},
		{Method: Simple, Divisions: 4, SpikeDivisions: 1_000_000_000},
	}
	for _, c := range bad {
		if _, err := Quantize([]float64{1, 2}, c); !errors.Is(err, ErrConfig) {
			t.Errorf("config %+v: err = %v, want ErrConfig", c, err)
		}
	}
	// The header field's width is the cap, and it is usable.
	if _, err := Quantize(spikyData(1000, 6), Config{Method: Proposed, Divisions: 4, SpikeDivisions: MaxSpikeDivisions}); err != nil {
		t.Errorf("d = %d: %v", MaxSpikeDivisions, err)
	}
	// d defaults to 64.
	q, err := Quantize(spikyData(1000, 6), Config{Method: Proposed, Divisions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if q.SpikePartitions <= 0 {
		t.Error("default spike divisions produced no spike")
	}
}

func TestDequantizeErrors(t *testing.T) {
	// Mismatched code count.
	if _, err := Dequantize([]bool{true, true}, []uint8{0}, []float64{1}, nil, nil); err == nil {
		t.Error("mismatched codes: expected error")
	}
	// Mismatched passthrough count.
	if _, err := Dequantize([]bool{true, false}, []uint8{0}, []float64{1}, nil, nil); err == nil {
		t.Error("missing passthrough: expected error")
	}
	// Code out of range.
	if _, err := Dequantize([]bool{true}, []uint8{9}, []float64{1}, nil, nil); err == nil {
		t.Error("out-of-range code: expected error")
	}
}

func TestMaxQuantizationError(t *testing.T) {
	vals := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	q, _ := Quantize(vals, Config{Method: Simple, Divisions: 2})
	e, err := MaxQuantizationError(vals, q)
	if err != nil {
		t.Fatal(err)
	}
	// Partition means are 2 and 7; farthest member is distance 2 (0 or 4
	// from 2; 5 or 9 from 7).
	if e != 2 {
		t.Errorf("max error = %g, want 2", e)
	}
}

// TestIndexOverflowMatchesScaledPool: where n·(v − lo) or hi − lo
// overflows, a value's partition is the one the same pool scaled into range
// gets, not what the platform makes of ±Inf or NaN as an int (on amd64 the
// first pool's codes were all 0 at every n).
func TestIndexOverflowMatchesScaledPool(t *testing.T) {
	for _, pool := range [][]float64{
		{0, 1.5e308, 1.4e308, 1e308, 7e307},       // n·(v − lo) overflows
		{-1e308, 1.5e308, 2e307, -7e307, 1.4e308}, // so does hi − lo
	} {
		scaled := make([]float64, len(pool))
		for i, v := range pool {
			scaled[i] = v * 0x1p-10
		}
		for _, n := range []int{2, 128, 255} {
			got := mustQuantize(t, pool, Config{Method: Simple, Divisions: n}).Codes
			want := mustQuantize(t, scaled, Config{Method: Simple, Divisions: n}).Codes
			if string(got) != string(want) {
				t.Errorf("%g at n=%d: codes %v, the pool scaled by 2⁻¹⁰ gets %v", pool, n, got, want)
			}
		}
	}
	want := map[int][]uint8{2: {0, 1, 1, 1, 0}, 128: {0, 127, 119, 85, 59}, 255: {0, 254, 238, 170, 119}}
	for n, codes := range want {
		if got := mustQuantize(t, []float64{0, 1.5e308, 1.4e308, 1e308, 7e307}, Config{Method: Simple, Divisions: n}).Codes; string(got) != string(codes) {
			t.Errorf("n=%d: codes %v, want %v", n, got, codes)
		}
	}
}

func TestChooseDivisionsMeetsBound(t *testing.T) {
	vals := spikyData(5000, 7)
	// Simple quantization's best-case max error is ~range/255, so only
	// looser bounds are reachable; Proposed quantizes just the spike, whose
	// pooled range is tiny, so much tighter bounds are reachable.
	cases := []struct {
		method Method
		bound  float64
	}{
		{Simple, 5.0},
		{Simple, 1.0},
		{Proposed, 0.1},
		{Proposed, 0.01},
	}
	for _, c := range cases {
		n, q, err := ChooseDivisions(vals, c.bound, c.method, 0)
		if err != nil {
			t.Fatalf("%v bound %g: %v", c.method, c.bound, err)
		}
		e, _ := MaxQuantizationError(vals, q)
		if e > c.bound {
			t.Errorf("%v bound %g: chose n=%d with max error %g", c.method, c.bound, n, e)
		}
	}
}

func TestChooseDivisionsUnreachable(t *testing.T) {
	vals := spikyData(5000, 8)
	_, _, err := ChooseDivisions(vals, 0, Simple, 0) // zero bound: impossible for lossy
	if err != ErrBoundUnreachable {
		t.Errorf("expected ErrBoundUnreachable, got %v", err)
	}
}

func TestMethodStringParse(t *testing.T) {
	for _, m := range []Method{Simple, Proposed} {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMethod("vector"); err == nil {
		t.Error("ParseMethod(vector): expected error")
	}
}

// Property: quantization error never exceeds the width of one partition for
// the simple method (every value maps to the mean of its own partition).
func TestQuickSimpleErrorBounded(t *testing.T) {
	fn := func(raw []float64, nRaw uint8) bool {
		n := int(nRaw%MaxDivisions) + 1
		vals := make([]float64, 0, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			v = math.Mod(v, 1e9)
			vals = append(vals, v)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if len(vals) == 0 {
			return true
		}
		out, _, err := Apply(vals, Config{Method: Simple, Divisions: n})
		if err != nil {
			return false
		}
		width := (hi - lo) / float64(n)
		for i := range vals {
			if math.Abs(vals[i]-out[i]) > width+1e-9*(math.Abs(hi)+math.Abs(lo)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Dequantize(Quantize(v)) preserves length and passthrough
// identity for both methods.
func TestQuickRoundTripStructure(t *testing.T) {
	fn := func(raw []float64, m bool, nRaw uint8) bool {
		method := Simple
		if m {
			method = Proposed
		}
		n := int(nRaw%MaxDivisions) + 1
		vals := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			vals[i] = math.Mod(v, 1e9)
		}
		out, q, err := Apply(vals, Config{Method: method, Divisions: n})
		if err != nil || len(out) != len(vals) {
			return false
		}
		for i := range vals {
			if !q.Bitmap.Get(i) && out[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLogScaleRoundTripStructure(t *testing.T) {
	vals := spikyData(10000, 20)
	for _, m := range []Method{Simple, Proposed} {
		out, q, err := Apply(vals, Config{Method: m, Divisions: 32, LogScale: true})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(out) != len(vals) {
			t.Fatalf("%v: wrong output length", m)
		}
		for i := range vals {
			if !q.Bitmap.Get(i) && out[i] != vals[i] {
				t.Errorf("%v: passthrough changed under log scale", m)
			}
		}
	}
}

func TestLogScaleImprovesSmallValueResolution(t *testing.T) {
	// For spike-plus-outlier data, log partitioning gives the near-zero
	// mass finer partitions, cutting the error of the small values under
	// the simple method at equal n.
	vals := spikyData(50000, 21)
	errSmall := func(logScale bool) float64 {
		out, _, err := Apply(vals, Config{Method: Simple, Divisions: 32, LogScale: logScale})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		var n int
		for i, v := range vals {
			if math.Abs(v) < 0.05 { // the spike population
				sum += math.Abs(v - out[i])
				n++
			}
		}
		return sum / float64(n)
	}
	linear, logged := errSmall(false), errSmall(true)
	if logged >= linear {
		t.Errorf("log-scale small-value error %g not below linear %g", logged, linear)
	}
}

func TestLogScaleConstantAndEmpty(t *testing.T) {
	out, _, err := Apply([]float64{7, 7, 7}, Config{Method: Simple, Divisions: 4, LogScale: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v != 7 {
			t.Errorf("constant log-scale reconstructed to %g", v)
		}
	}
	if _, err := Quantize(nil, Config{Method: Simple, Divisions: 4, LogScale: true}); err != nil {
		t.Errorf("empty log-scale: %v", err)
	}
}

func TestLogScaleAllZeros(t *testing.T) {
	vals := make([]float64, 100)
	out, _, err := Apply(vals, Config{Method: Proposed, Divisions: 8, LogScale: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v != 0 {
			t.Errorf("zero input reconstructed to %g", v)
		}
	}
}
