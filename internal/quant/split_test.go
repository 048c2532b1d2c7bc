package quant

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"lossyckpt/internal/climate"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/wavelet"
)

// highPool is the single-level Haar high-frequency pool of f: what stage 2
// is handed.
func highPool(t testing.TB, f *grid.Field) []float64 {
	t.Helper()
	plan, err := wavelet.NewPlan(f.Shape(), 1, wavelet.Haar)
	if err != nil {
		t.Fatal(err)
	}
	work := f.Clone()
	if err := plan.Transform(work); err != nil {
		t.Fatal(err)
	}
	high, err := plan.GatherHigh(work, make([]float64, plan.HighCount()))
	if err != nil {
		t.Fatal(err)
	}
	return high
}

// big24Slab is the pool of one 128-plane slab of the end-to-end benchmark's
// 24 MB array: smooth in every axis plus 0.05-sigma noise, 18 368 values.
func big24Slab(t testing.TB) []float64 {
	f := grid.MustNew(128, 82, 2)
	rng := rand.New(rand.NewSource(24))
	d := f.Data()
	for off := range d {
		i, j, k := off/164, off/2%82, off%2
		d[off] = 250 + 20*math.Sin(2*math.Pi*float64(i)/18496) + 20*math.Sin(4*math.Pi*float64(j)/82) + 7.5*float64(k) + 0.05*rng.NormFloat64()
	}
	return highPool(t, f)
}

// climatePools are the pools of the climate model's five arrays, a few steps
// in, at the paper's 1156×82×2 (165 886 values each) or a reduced extent.
func climatePools(t testing.TB, nx int) map[string][]float64 {
	cfg := climate.DefaultConfig()
	cfg.Nx = nx
	model, err := climate.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model.StepN(3)
	pools := map[string][]float64{}
	for _, nf := range model.Fields() {
		pools[nf.Name] = highPool(t, nf.Field)
	}
	return pools
}

// splitPools is what the split pass has to get right that propertyPools does
// not already hold: every bitmap tail, spiked runs apart from each other,
// selections that are all or nothing, signed zeros at the selected range's
// ends.
func splitPools(t testing.TB, rng *rand.Rand) map[string][]float64 {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	pools := propertyPools(rng)
	for name, p := range climatePools(t, 96) {
		pools["climate "+name] = p
	}
	pools["big24 slab"] = big24Slab(t)
	for n := 0; n <= 130; n++ { // a spike, a far tail and a non-finite hole at every length
		p := make([]float64, n)
		for i := range p {
			switch {
			case i%11 == 7:
				p[i] = 1000 * rng.NormFloat64()
			case i%29 == 13:
				p[i] = nan
			default:
				p[i] = rng.NormFloat64()
			}
		}
		pools[fmt.Sprintf("length %d", n)] = p
	}
	runs := func(centres ...float64) []float64 { // tight clusters far apart, thin noise between
		p := make([]float64, 3000)
		for i := range p {
			if i%50 == 0 {
				p[i] = 1000 * rng.Float64()
			} else {
				p[i] = centres[i%len(centres)] + 0.01*rng.NormFloat64()
			}
		}
		return p
	}
	pools["two spiked runs"] = runs(100, 900)
	pools["three spiked runs"] = runs(50, 500, 950)
	pools["zeros at both ends"] = []float64{negZero, 0, 5, negZero, 5, 0, -5, -5, negZero}
	pools["negative zero first"] = append([]float64{negZero, 0, 0, negZero}, make([]float64, 200)...)
	pools["none selected"] = []float64{nan, inf, -inf, nan, inf}
	pools["one finite among holes"] = []float64{nan, 3, inf, -inf}
	sprinkled := make([]float64, 1000)
	for i := range sprinkled {
		sprinkled[i] = rng.NormFloat64()
		if i%7 == 0 {
			sprinkled[i] = []float64{nan, inf, -inf}[i/7%3]
		}
	}
	pools["sprinkled non-finite"] = sprinkled
	return pools
}

// TestQuantizeMatchesOracle holds the quantizer to the one it replaced, bit
// for bit in everything a Quantization shows and in the error it reports,
// over the split corpus, both methods, histograms from one partition to the
// cap, division numbers at both ends, both partition scales — in one Scratch
// carried from call to call.
func TestQuantizeMatchesOracle(t *testing.T) {
	sc := new(Scratch)
	calls := 0
	for name, values := range splitPools(t, rand.New(rand.NewSource(5))) {
		orig := append([]float64(nil), values...)
		for _, method := range bothMethods {
			for _, d := range []int{1, 2, 64, 255, 256, MaxSpikeDivisions} {
				if method == Simple && d != 64 {
					continue
				}
				for _, n := range []int{1, 128, 255} {
					for _, logScale := range []bool{false, true} {
						cfg := Config{Method: method, Divisions: n, SpikeDivisions: d, LogScale: logScale}
						want, err := refQuantize(values, cfg)
						if err != nil {
							t.Fatal(err)
						}
						got, gotErr, err := QuantizeMeasured(values, cfg, sc)
						if err != nil {
							t.Fatal(err)
						}
						calls++
						if diff := diffQuantization(values, got, want); diff != "" {
							t.Fatalf("%s/%v d=%d n=%d log=%v: %s", name, method, d, n, logScale, diff)
						}
						wantErr := refMaxError(values, want)
						scan, err := MaxQuantizationError(values, got)
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(gotErr) != math.Float64bits(wantErr) || math.Float64bits(scan) != math.Float64bits(wantErr) {
							t.Fatalf("%s/%v d=%d n=%d log=%v: error measured %g, scanned %g, oracle %g", name, method, d, n, logScale, gotErr, scan, wantErr)
						}
					}
				}
			}
		}
		if !sameBits(values, orig) {
			t.Fatalf("%s: input modified", name)
		}
	}
	t.Logf("%d quantizations compared", calls)
}

// TestQuantizeDependsOnInputAlone: a quantization made in a recycled Scratch
// is the one made in fresh memory, whatever the Scratch held before — A, B, A
// in a row, and on four goroutines drawing from the pool at once. The division
// walk runs here too: its pass at 128 partitions leaves 128-way codes behind
// in the Scratch whatever n it ships.
func TestQuantizeDependsOnInputAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a, b := big24Slab(t), propertyPools(rng)["non-finite holes"]
	type call func(values []float64, sc *Scratch) (*Quantization, float64, error)
	var calls []call
	for _, cfg := range []Config{{Method: Proposed, Divisions: 128}, {Method: Simple, Divisions: 7}, {Method: Proposed, Divisions: 255, SpikeDivisions: 2}} {
		calls = append(calls, func(values []float64, sc *Scratch) (*Quantization, float64, error) {
			return QuantizeMeasured(values, cfg, sc)
		})
	}
	// Bounds at which the proposed walk over a ends at 32, at 128 and at the
	// cap: the first two are those candidates' own errors.
	own := func(n int) float64 {
		q, err := refQuantize(a, Config{Method: Proposed, Divisions: n})
		if err != nil {
			t.Fatal(err)
		}
		return refMaxError(a, q)
	}
	for _, bound := range []float64{own(32), own(128), 1e-12} {
		for _, method := range bothMethods {
			calls = append(calls, func(values []float64, sc *Scratch) (*Quantization, float64, error) {
				_, q, e, err := ChooseDivisionsMeasured(values, bound, method, DefaultSpikeDivisions, sc)
				if errors.Is(err, ErrBoundUnreachable) {
					err = nil
				}
				return q, e, err
			})
		}
	}
	type shown struct { // a deep copy of everything a call returned
		q     Quantization
		words []uint64
		err   float64
	}
	snapshot := func(values []float64, c call, sc *Scratch) shown {
		q, e, err := c(values, sc)
		if err != nil {
			t.Error(err)
			return shown{}
		}
		cp := *q
		cp.Averages, cp.Codes = append([]float64(nil), q.Averages...), append([]uint8(nil), q.Codes...)
		cp.Passthrough = append([]float64(nil), q.Passthrough...)
		return shown{cp, append([]uint64(nil), q.Bitmap.Words()...), e}
	}
	same := func(x, y shown) bool {
		return sameBits(x.q.Averages, y.q.Averages) && string(x.q.Codes) == string(y.q.Codes) &&
			sameBits(x.q.Passthrough, y.q.Passthrough) && slices.Equal(x.words, y.words) &&
			x.q.Bitmap.Len() == y.q.Bitmap.Len() && x.q.NumQuantized == y.q.NumQuantized &&
			x.q.SpikePartitions == y.q.SpikePartitions && math.Float64bits(x.err) == math.Float64bits(y.err)
	}
	for ci, c := range calls {
		wantA, wantB := snapshot(a, c, nil), snapshot(b, c, nil)
		sc := new(Scratch)
		for i, in := range [][]float64{a, b, a, b[:100], a} {
			want := map[int]shown{0: wantA, 1: wantB, 2: wantA, 4: wantA}
			got := snapshot(in, c, sc)
			if w, ok := want[i]; ok && !same(got, w) {
				t.Fatalf("call %d: input %d in a reused Scratch differs from fresh memory", ci, i)
			}
		}
		// A result made without a Scratch owns its memory: later calls,
		// which work in what it left behind, do not reach it.
		kept, _, err := c(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range [][]float64{b, a, b[:100]} {
			if _, _, err := c(in, nil); err != nil {
				t.Fatal(err)
			}
		}
		if got := (shown{*kept, kept.Bitmap.Words(), wantA.err}); !same(got, wantA) {
			t.Fatalf("call %d: a kept Quantization changed under later calls", ci)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 6; i++ {
					in, want := a, wantA
					if (g+i)%2 == 1 {
						in, want = b, wantB
					}
					sc := GetScratch()
					if got := snapshot(in, c, sc); !same(got, want) {
						t.Errorf("call %d: goroutine %d call %d in a pooled Scratch differs from fresh memory", ci, g, i)
					}
					sc.Put()
				}
			}(g)
		}
		wg.Wait()
	}
}

// BenchmarkQuantizeSlab times stage 2 on the two pools the end-to-end
// benchmark quantizes — one slab of the 24 MB array and one climate field —
// in a pooled Scratch as core.Stages runs it, beside the oracle.
func BenchmarkQuantizeSlab(b *testing.B) {
	cfg := Config{Method: Proposed, Divisions: 128}
	for _, row := range []struct {
		name   string
		values []float64
	}{
		{"big24", big24Slab(b)},
		{"climate", climatePools(b, climate.DefaultNx)["temperature"]},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.SetBytes(int64(8 * len(row.values)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc := GetScratch()
				if _, _, err := QuantizeMeasured(row.values, cfg, sc); err != nil {
					b.Fatal(err)
				}
				sc.Put()
			}
		})
		b.Run(row.name+"/reference", func(b *testing.B) {
			b.SetBytes(int64(8 * len(row.values)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q, err := refQuantize(row.values, cfg)
				if err != nil {
					b.Fatal(err)
				}
				refMaxError(row.values, q)
			}
		})
	}
}
