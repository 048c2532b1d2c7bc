package quant

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// propertyPools is the corpus of the pool properties: every shape of
// input that takes a different path through selection or partitioning.
func propertyPools(rng *rand.Rand) map[string][]float64 {
	nan, inf := math.NaN(), math.Inf(1)
	pools := map[string][]float64{
		"empty":          {},
		"single":         {42},
		"constant":       {3.25, 3.25, 3.25, 3.25, 3.25},
		"all non-finite": {nan, inf, -inf, nan},
		"signed zeros":   {0, math.Copysign(0, -1), 0, math.Copysign(0, -1)},
		"huge":           {math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64, 1, -1},
	}
	gauss := make([]float64, 4000)
	heavy := make([]float64, 4000)
	few := make([]float64, 3000)
	denormal := make([]float64, 2000)
	holes := make([]float64, 3000)
	uniform := make([]float64, 2560)
	for i := range gauss {
		gauss[i] = rng.NormFloat64() * 1e-3
		heavy[i] = rng.NormFloat64() * math.Exp(6*rng.NormFloat64())
	}
	for i := range few {
		few[i] = float64(rng.Intn(7)) * 1000.5
	}
	for i := range denormal {
		denormal[i] = float64(rng.Intn(4096)-2048) * math.SmallestNonzeroFloat64
	}
	for i := range holes {
		holes[i] = rng.NormFloat64()
		switch rng.Intn(40) {
		case 0:
			holes[i] = nan
		case 1:
			holes[i] = inf
		case 2:
			holes[i] = -inf
		}
	}
	for i := range uniform { // every histogram partition is spiked
		uniform[i] = float64(i % 256)
	}
	pools["gaussian"], pools["heavy-tailed"], pools["few distinct"] = gauss, heavy, few
	pools["denormal"], pools["non-finite holes"], pools["uniform"] = denormal, holes, uniform
	return pools
}

var bothMethods = []Method{Simple, Proposed}

// TestCandidateEvaluationMatchesScan: the one-pass evaluation of a division
// count is MaxQuantizationError of the full quantization, bit for bit, and
// the quantization the pool materialises is the oracle's — linear and log
// partitions, in a Scratch reused from pool to pool.
func TestCandidateEvaluationMatchesScan(t *testing.T) {
	scratch := new(Scratch)
	for name, values := range propertyPools(rand.New(rand.NewSource(1))) {
		orig := append([]float64(nil), values...)
		for _, method := range bothMethods {
			for _, logScale := range []bool{false, true} {
				sel := selectPool(values, method, DefaultSpikeDivisions, nil)
				var tl tally
				for _, n := range []int{1, 2, 3, 4, 8, 16, 32, 64, 100, 128, 255} {
					cfg := Config{Method: method, Divisions: n, LogScale: logScale}
					want, err := refQuantize(values, cfg)
					if err != nil {
						t.Fatal(err)
					}
					wantErr := refMaxError(values, want)
					if got := sel.evaluate(n, logScale, &tl); math.Float64bits(got) != math.Float64bits(wantErr) {
						t.Errorf("%s/%v/log=%v n=%d: one-pass error %g, scan %g", name, method, logScale, n, got, wantErr)
					}
					got, gotErr, err := QuantizeMeasured(values, cfg, scratch)
					if err != nil {
						t.Fatal(err)
					}
					if d := diffQuantization(values, got, want); d != "" || math.Float64bits(gotErr) != math.Float64bits(wantErr) {
						t.Errorf("%s/%v/log=%v n=%d: quantization differs from the reference: %s (error %g, want %g)",
							name, method, logScale, n, d, gotErr, wantErr)
					}
					if scan, err := MaxQuantizationError(values, got); err != nil || math.Float64bits(scan) != math.Float64bits(wantErr) {
						t.Errorf("%s/%v/log=%v n=%d: MaxQuantizationError %g (%v), the mask scan %g", name, method, logScale, n, scan, err, wantErr)
					}
				}
			}
		}
		for i := range values { // by bits: the pools hold NaNs
			if math.Float64bits(values[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("%s: input modified at %d", name, i)
			}
		}
	}
}

// TestChooseDivisionsMatchesReference: same n, same error and the same
// Quantization as the per-candidate full scan, for both methods and bounds
// from exactness to anything-goes, and at every bound where a candidate's
// verdict flips.
func TestChooseDivisionsMatchesReference(t *testing.T) {
	bounds := []float64{0, 1e-300, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1}
	calls := 0
	scratch := new(Scratch)
	for seed := int64(1); seed <= 4; seed++ {
		for name, values := range propertyPools(rand.New(rand.NewSource(seed))) {
			rng := finiteRange(values)
			for _, method := range bothMethods {
				tries := flipBounds(values, method)
				for _, b := range bounds {
					tries = append(tries, b, b*rng)
				}
				for _, bound := range tries {
					calls++
					if d := diffChoose(values, bound, method, scratch); d != "" {
						t.Fatalf("seed %d %s/%v bound %g: %s", seed, name, method, bound, d)
					}
				}
			}
		}
	}
	t.Logf("%d calls compared", calls)
	if _, _, err := ChooseDivisions([]float64{1, 2}, 0.1, Method(7), 64); !errors.Is(err, ErrConfig) {
		t.Errorf("unknown method: err = %v, want ErrConfig", err)
	}
	if _, _, err := ChooseDivisions([]float64{1, 2}, 0.1, Proposed, -1); !errors.Is(err, ErrConfig) {
		t.Errorf("negative spike divisions: err = %v, want ErrConfig", err)
	}
}

// FuzzChooseDivisions holds the walk to the reference on fuzzed pools, at the
// fuzzed bound and at every bound where a candidate's verdict flips.
func FuzzChooseDivisions(f *testing.F) {
	for _, values := range propertyPools(rand.New(rand.NewSource(1))) {
		data := make([]byte, 0, 8*64)
		for _, v := range values[:min(len(values), 64)] {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
		}
		f.Add(data, 1e-3, true)
		f.Add(data, 0.0, false)
	}
	sc := new(Scratch)
	f.Fuzz(func(t *testing.T, data []byte, bound float64, proposed bool) {
		values := make([]float64, min(len(data)/8, 512))
		for i := range values {
			values[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		method := Simple
		if proposed {
			method = Proposed
		}
		bounds := flipBounds(values, method)
		if bound >= 0 {
			bounds = append(bounds, bound)
		}
		for _, b := range bounds {
			if d := diffChoose(values, b, method, sc); d != "" {
				t.Fatalf("%v bound %g over %v: %s", method, b, values, d)
			}
		}
	})
}

// flipBounds are the bounds at which the walk's verdict on a candidate
// flips: each candidate's own error and both its float neighbours. They are
// what separates a verdict from merged figures from the exact one.
func flipBounds(values []float64, method Method) []float64 {
	var out []float64
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, MaxDivisions} {
		q, err := refQuantize(values, Config{Method: method, Divisions: n})
		if err != nil {
			panic(err)
		}
		e := refMaxError(values, q)
		for _, b := range []float64{math.Nextafter(e, math.Inf(-1)), e, math.Nextafter(e, math.Inf(1))} {
			if b >= 0 {
				out = append(out, b)
			}
		}
	}
	return out
}

// diffChoose names the first way ChooseDivisionsMeasured, in sc, or
// ChooseDivisions departs from the reference over values — n, error value,
// reported error, the Quantization bit for bit — or returns "".
func diffChoose(values []float64, bound float64, method Method, sc *Scratch) string {
	wantN, wantQ, wantErr := refChooseDivisions(values, bound, method, DefaultSpikeDivisions)
	gotN, gotQ, gotE, gotErr := ChooseDivisionsMeasured(values, bound, method, DefaultSpikeDivisions, sc)
	if d := diffQuantization(values, gotQ, wantQ); gotN != wantN || !errors.Is(gotErr, wantErr) || d != "" {
		return fmt.Sprintf("got n=%d err=%v, want n=%d err=%v (quantization: %s)", gotN, gotErr, wantN, wantErr, d)
	}
	if scan := refMaxError(values, wantQ); math.Float64bits(gotE) != math.Float64bits(scan) {
		return fmt.Sprintf("reported error %g, scan %g", gotE, scan)
	}
	n, q, err := ChooseDivisions(values, bound, method, DefaultSpikeDivisions)
	if n != wantN || !errors.Is(err, wantErr) || diffQuantization(values, q, wantQ) != "" {
		return "ChooseDivisions differs from its measured form"
	}
	return ""
}

// finiteRange is the range of the finite values (0 when there are none or
// it overflows), to scale the relative bounds by.
func finiteRange(values []float64) float64 {
	sel := selectAll(values)
	if sel.nSel == 0 || math.IsInf(sel.hi-sel.lo, 0) {
		return 0
	}
	return sel.hi - sel.lo
}

// TestCandidateEvaluationAllocatesNothing pins what makes a candidate
// cheap: no mask, no codes, no tables.
func TestCandidateEvaluationAllocatesNothing(t *testing.T) {
	values := propertyPools(rand.New(rand.NewSource(3)))["gaussian"]
	sel := selectPool(values, Proposed, DefaultSpikeDivisions, nil)
	if a := testing.AllocsPerRun(20, func() { var tl tally; sel.evaluate(128, false, &tl) }); a != 0 {
		t.Errorf("candidate evaluation allocates %.0f times per run, want 0", a)
	}
}

// BenchmarkChooseDivisions times the ways a bounded quantization of a
// checkpoint-sized high band (the paper's 1156×82×2 array has ~166k
// coefficients) can end: the walk reaches the bound at n = 128 (eight
// candidates), at n = 32 (six; where the guard workload's bounded variables
// stop), never reaches it (nine, shipped at the cap), or n = 1 already meets
// it (one).
func BenchmarkChooseDivisions(b *testing.B) {
	rng := rand.New(rand.NewSource(2015))
	values := make([]float64, 165886)
	for i := range values {
		values[i] = rng.NormFloat64() * 1e-2
		if rng.Intn(50) == 0 {
			values[i] *= 40 // the tail the spike detector leaves alone
		}
	}
	scratch := new(Scratch)
	// The bounds that n = 128, 32 and 1 meet exactly: their own errors.
	own := func(n int) float64 {
		_, e, err := QuantizeMeasured(values, Config{Method: Proposed, Divisions: n}, nil)
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	for _, row := range []struct {
		name  string
		bound float64
		wantN int
	}{
		{"reached_at_128", own(128), 128},
		{"reached_at_32", own(32), 32},
		{"unreachable", 1e-12, MaxDivisions},
		{"n1_fast_path", own(1), 1},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.SetBytes(int64(8 * len(values)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n, _, _, err := ChooseDivisionsMeasured(values, row.bound, Proposed, DefaultSpikeDivisions, scratch)
				if n != row.wantN || (err != nil && !errors.Is(err, ErrBoundUnreachable)) {
					b.Fatalf("n = %d (want %d), err = %v", n, row.wantN, err)
				}
			}
		})
		b.Run(row.name+"/reference", func(b *testing.B) {
			b.SetBytes(int64(8 * len(values)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if n, _, _ := refChooseDivisions(values, row.bound, Proposed, DefaultSpikeDivisions); n != row.wantN {
					b.Fatalf("n = %d, want %d", n, row.wantN)
				}
			}
		})
	}
}
