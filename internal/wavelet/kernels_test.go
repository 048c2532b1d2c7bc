package wavelet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lossyckpt/internal/grid"
)

// This file keeps the machinery the row kernels and the run walker replaced —
// gather a lane, transform it, scatter it back; visit every element and ask
// which band it is in — as a test-only reference, and holds the new code to
// it bit for bit.

// refLane is one 1-D line through a field: the flat offset of its first
// element, the stride between consecutive elements, and their number.
type refLane struct{ start, stride, n int }

func (l refLane) gather(data, dst []float64) {
	for i := 0; i < l.n; i++ {
		dst[i] = data[l.start+i*l.stride]
	}
}

func (l refLane) scatter(data, src []float64) {
	for i := 0; i < l.n; i++ {
		data[l.start+i*l.stride] = src[i]
	}
}

// refTransform is the in-place forward transform as a lane walk.
func refTransform(p *Plan, f *grid.Field) {
	for k := 0; k < p.levels; k++ {
		for axis := range p.shape {
			if p.ext[k][axis] >= 2 {
				refAxisPass(p, f, p.ext[k], axis, true)
			}
		}
	}
}

// refInverse undoes refTransform.
func refInverse(p *Plan, f *grid.Field) {
	for k := p.levels - 1; k >= 0; k-- {
		for axis := len(p.shape) - 1; axis >= 0; axis-- {
			if p.ext[k][axis] >= 2 {
				refAxisPass(p, f, p.ext[k], axis, false)
			}
		}
	}
}

// refAxisPass transforms every lane along axis of the active box act: the
// index tuples over act with the pass axis fixed at 0, last dimension fastest.
func refAxisPass(p *Plan, f *grid.Field, act []int, axis int, forward bool) {
	n := act[axis]
	src, dst := make([]float64, n), make([]float64, n)
	data := f.Data()
	idx := make([]int, len(act))
	for {
		off := 0
		for d, i := range idx {
			off += i * f.Stride(d)
		}
		l := refLane{start: off, stride: f.Stride(axis), n: n}
		l.gather(data, src)
		if forward {
			refForwardLane(p.scheme, src, dst)
		} else {
			refInverseLane(p.scheme, src, dst)
		}
		l.scatter(data, dst)
		d := len(act) - 1
		for ; d >= 0; d-- {
			if d == axis {
				continue
			}
			idx[d]++
			if idx[d] < act[d] {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			return
		}
	}
}

// refForwardLane transforms one gathered lane src into dst laid out as
// [L(0..nl) | H(0..nh)] where nl = ceil(m/2), nh = floor(m/2); an odd
// trailing element is carried into the last low slot verbatim.
func refForwardLane(s Scheme, src, dst []float64) {
	m := len(src)
	nh := m / 2
	nl := m - nh
	switch s {
	case Haar:
		for i := 0; i < nh; i++ {
			a, b := src[2*i], src[2*i+1]
			dst[i] = (a + b) / 2
			dst[nl+i] = (a - b) / 2
		}
	case CDF53:
		for i := 0; i < nh; i++ {
			left := src[2*i]
			right := left
			if 2*i+2 < m {
				right = src[2*i+2]
			}
			dst[nl+i] = src[2*i+1] - (left+right)/2
		}
		for i := 0; i < nl; i++ {
			var dl, dr float64
			if i > 0 {
				dl = dst[nl+i-1]
			} else if nh > 0 {
				dl = dst[nl]
			}
			if i < nh {
				dr = dst[nl+i]
			} else if nh > 0 {
				dr = dst[nl+nh-1]
			}
			dst[i] = src[2*i] + (dl+dr)/4
		}
		return
	}
	if nl > nh {
		dst[nl-1] = src[m-1]
	}
}

// refInverseLane undoes refForwardLane: src is [L | H], dst is the
// interleaved original lane.
func refInverseLane(s Scheme, src, dst []float64) {
	m := len(src)
	nh := m / 2
	nl := m - nh
	switch s {
	case Haar:
		for i := 0; i < nh; i++ {
			l, h := src[i], src[nl+i]
			dst[2*i] = l + h
			dst[2*i+1] = l - h
		}
	case CDF53:
		for i := 0; i < nl; i++ {
			var dl, dr float64
			if i > 0 {
				dl = src[nl+i-1]
			} else if nh > 0 {
				dl = src[nl]
			}
			if i < nh {
				dr = src[nl+i]
			} else if nh > 0 {
				dr = src[nl+nh-1]
			}
			dst[2*i] = src[i] - (dl+dr)/4
		}
		for i := 0; i < nh; i++ {
			left := dst[2*i]
			right := left
			if 2*i+2 < m {
				right = dst[2*i+2]
			}
			dst[2*i+1] = src[nl+i] + (left+right)/2
		}
		return
	}
	if nl > nh {
		dst[m-1] = src[nl-1]
	}
}

// refVisit calls fn for every element in flat order with the multi-index it
// sits at.
func refVisit(p *Plan, fn func(off int, idx []int)) {
	idx := make([]int, len(p.shape))
	total := 1
	for _, e := range p.shape {
		total *= e
	}
	for off := 0; off < total; off++ {
		fn(off, idx)
		for d := len(p.shape) - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < p.shape[d] {
				break
			}
			idx[d] = 0
		}
	}
}

// refInLowBox reports whether idx lies inside the final low-band box.
func refInLowBox(p *Plan, idx []int) bool {
	for d, i := range idx {
		if i >= p.ext[p.levels][d] {
			return false
		}
	}
	return true
}

// refGather returns the pooled high and low values of data, element by
// element.
func refGather(p *Plan, data []float64) (high, low []float64) {
	refVisit(p, func(off int, idx []int) {
		if refInLowBox(p, idx) {
			low = append(low, data[off])
		} else {
			high = append(high, data[off])
		}
	})
	return high, low
}

// refScatter writes pool back into the low-box elements of data (low set)
// or into all the others, in the order refGather collected them.
func refScatter(p *Plan, data, pool []float64, low bool) {
	k := 0
	refVisit(p, func(off int, idx []int) {
		if refInLowBox(p, idx) == low {
			data[off] = pool[k]
			k++
		}
	})
}

// refBandIndex maps BandOf's answer to a position in Bands().
func refBandIndex(p *Plan) map[[2]int]int {
	index := map[[2]int]int{}
	for i, b := range p.Bands() {
		index[[2]int{b.Level, int(b.ID)}] = i
	}
	return index
}

// refGatherBands splits data into per-band slices with one BandOf and one
// map lookup per element.
func refGatherBands(p *Plan, data []float64) [][]float64 {
	index := refBandIndex(p)
	out := make([][]float64, len(index))
	refVisit(p, func(off int, idx []int) {
		lv, id := p.BandOf(idx)
		i := index[[2]int{lv, int(id)}]
		out[i] = append(out[i], data[off])
	})
	return out
}

// refScatterBands undoes refGatherBands.
func refScatterBands(p *Plan, data []float64, bands [][]float64) {
	index := refBandIndex(p)
	pos := make([]int, len(index))
	refVisit(p, func(off int, idx []int) {
		lv, id := p.BandOf(idx)
		i := index[[2]int{lv, int(id)}]
		data[off] = bands[i][pos[i]]
		pos[i]++
	})
}

// kernelShapes crosses every layout the kernels special-case nothing for:
// 1-D to 5-D, odd extents (on every axis at once too), extents of 1 and 2 in
// every position, a last axis of 2, and boxes that shrink unevenly over the
// levels. A 5-D block holds 32 values; {24, 2, 2} is one run of blocks,
// which the sharded block pass splits between workers.
var kernelShapes = [][]int{
	{2}, {3}, {7}, {33}, {64},
	{1, 6}, {5, 1}, {2, 2}, {7, 5}, {9, 2}, {16, 3},
	{2, 2, 2}, {3, 4, 2}, {5, 7, 2}, {6, 1, 5}, {9, 6, 3}, {11, 4, 2}, {1, 1, 9}, {5, 7, 3}, {24, 2, 2},
	{3, 2, 5, 2}, {4, 3, 1, 6}, {5, 5, 3, 3},
	{3, 2, 2, 3, 2},
}

// specials are the payloads a checkpoint can hold that arithmetic treats
// specially.
var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, -0x1.8p-1030,
	math.MaxFloat64, -math.MaxFloat64, 0x1p-1022,
}

// kernelField fills a field with noise; with special set, about one value in
// five is drawn from specials instead.
func kernelField(seed int64, special bool, shape ...int) *grid.Field {
	f := grid.MustNew(shape...)
	rng := rand.New(rand.NewSource(seed))
	for i := range f.Data() {
		f.Data()[i] = rng.NormFloat64() * 100
		if special && rng.Intn(5) == 0 {
			f.Data()[i] = specials[rng.Intn(len(specials))]
		}
	}
	return f
}

// sameBits fails the test at the first element of got whose bit pattern is
// not want's. Only a NaN may differ from another NaN: when x+y meets two of
// them (the one a checkpoint held and the one Inf−Inf just made, say) the
// hardware keeps the first operand's payload, and which operand the compiler
// puts first in a commutative add is not something source order pins down.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: element %d is %x (%g), want %x (%g)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// checkAgainstReference holds every entry point of the package to the lane
// walk on one field: the transform in place and out of place, its inverse
// likewise, the six band walks, and Analyze and Synthesize, at the given worker
// count with sharding forced on (and for the last two also left to the
// cutoff).
func checkAgainstReference(t *testing.T, f *grid.Field, levels int, scheme Scheme, workers int) {
	t.Helper()
	p, err := NewPlan(f.Shape(), levels, scheme)
	if err != nil {
		t.Fatal(err)
	}
	p.cutoff = 0
	what := func(op string) string {
		return fmt.Sprintf("%v levels=%d %v workers=%d: %s", f.Shape(), levels, scheme, workers, op)
	}

	want := f.Clone()
	refTransform(p, want)
	inPlace := f.Clone()
	if err := p.TransformWorkers(inPlace, workers); err != nil {
		t.Fatal(err)
	}
	sameBits(t, what("TransformWorkers"), inPlace.Data(), want.Data())
	src, coef := f.Clone(), grid.MustNew(f.Shape()...)
	if err := p.TransformTo(coef, src, workers); err != nil {
		t.Fatal(err)
	}
	sameBits(t, what("TransformTo"), coef.Data(), want.Data())
	sameBits(t, what("TransformTo's source"), src.Data(), f.Data())

	high, low := refGather(p, want.Data())
	gotHigh, err := p.GatherHigh(coef, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, what("GatherHigh"), gotHigh, high)
	gotLow, err := p.GatherLow(coef, make([]float64, 1, len(low)+3))
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, what("GatherLow"), gotLow, low)
	bands := refGatherBands(p, want.Data())
	gotBands, err := p.GatherBands(coef)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotBands) != len(bands) {
		t.Fatalf("%s: %d bands, want %d", what("GatherBands"), len(gotBands), len(bands))
	}
	for i := range bands {
		sameBits(t, what("GatherBands "+p.Bands()[i].Name), gotBands[i], bands[i])
	}

	// Scatter into fields that start out different everywhere, so that an
	// element a walk skipped shows.
	mark := func() *grid.Field {
		g := grid.MustNew(f.Shape()...)
		g.Fill(-12345)
		return g
	}
	pooled, refPooled := mark(), mark()
	if err := p.ScatterHigh(pooled, high); err != nil {
		t.Fatal(err)
	}
	refScatter(p, refPooled.Data(), high, false)
	sameBits(t, what("ScatterHigh"), pooled.Data(), refPooled.Data())
	if err := p.ScatterLow(pooled, low); err != nil {
		t.Fatal(err)
	}
	refScatter(p, refPooled.Data(), low, true)
	sameBits(t, what("ScatterLow"), pooled.Data(), refPooled.Data())
	sameBits(t, what("ScatterHigh+ScatterLow"), pooled.Data(), want.Data())
	perBand, refPerBand := mark(), mark()
	if err := p.ScatterBands(perBand, bands); err != nil {
		t.Fatal(err)
	}
	refScatterBands(p, refPerBand.Data(), bands)
	sameBits(t, what("ScatterBands"), perBand.Data(), refPerBand.Data())

	back := want.Clone()
	refInverse(p, back)
	if err := p.InverseWorkers(inPlace, workers); err != nil {
		t.Fatal(err)
	}
	sameBits(t, what("InverseWorkers"), inPlace.Data(), back.Data())
	out := mark()
	if err := p.InverseTo(out, coef, workers); err != nil {
		t.Fatal(err)
	}
	sameBits(t, what("InverseTo"), out.Data(), back.Data())

	for _, plan := range []*Plan{p, p.withCutoff(parallelCutoff)} {
		what := func(op string) string { return what(fmt.Sprintf("%s (cutoff %d)", op, plan.cutoff)) }
		src := f.Clone()
		gotLow, gotHigh := make([]float64, len(low)), make([]float64, len(high))
		if err := plan.Analyze(src, gotLow, gotHigh, workers); err != nil {
			t.Fatal(err)
		}
		sameBits(t, what("Analyze low"), gotLow, low)
		sameBits(t, what("Analyze high"), gotHigh, high)
		sameBits(t, what("Analyze's source"), src.Data(), f.Data())
		synth, refSynth := mark(), mark()
		refScatter(p, refSynth.Data(), low, true)
		refScatter(p, refSynth.Data(), high, false)
		refInverse(p, refSynth)
		if err := plan.Synthesize(synth, gotLow, gotHigh, workers); err != nil {
			t.Fatal(err)
		}
		sameBits(t, what("Synthesize"), synth.Data(), refSynth.Data())
		sameBits(t, what("Synthesize's pools"), slices.Concat(gotLow, gotHigh), slices.Concat(low, high))
	}
}

// withCutoff returns a copy of the plan that shards passes of n elements or
// more.
func (p *Plan) withCutoff(n int) *Plan {
	q := *p
	q.cutoff = n
	return &q
}

// TestKernelsMatchLaneReference is the bit-identity proof: the row kernels
// and the run walker against the lane walk over every shape, level count,
// scheme and worker count, with ordinary and with special payloads. CI runs
// it under -race -count=10, where the shards of a pass write one buffer at
// once.
func TestKernelsMatchLaneReference(t *testing.T) {
	for si, shape := range kernelShapes {
		for levels := 1; levels <= MaxLevels(shape); levels++ {
			for _, scheme := range []Scheme{Haar, CDF53} {
				for _, special := range []bool{false, true} {
					f := kernelField(int64(100*si+levels), special, shape...)
					for _, workers := range []int{1, 2, 3, 8} {
						checkAgainstReference(t, f, levels, scheme, workers)
					}
				}
			}
		}
	}
}

// TestRunsPartitionTheFieldByBand checks the walker's own contract: every
// element is in exactly one block, of the band BandOf gives it.
func TestRunsPartitionTheFieldByBand(t *testing.T) {
	for _, shape := range kernelShapes {
		for levels := 1; levels <= MaxLevels(shape); levels++ {
			p, err := NewPlan(shape, levels, Haar)
			if err != nil {
				t.Fatal(err)
			}
			index := refBandIndex(p)
			for _, pooled := range []bool{true, false} {
				got := make([]int, p.LowCount()+p.HighCount())
				for i := range got {
					got[i] = -1
				}
				p.runs(pooled, func(off, n, band, reps, pitch int) {
					for r := 0; r < reps; r++ {
						for i := off + r*pitch; i < off+r*pitch+n; i++ {
							if got[i] != -1 || n < 1 {
								t.Fatalf("%v levels=%d pooled=%v: block (%d,%d,%d,%d,%d) revisits element %d",
									shape, levels, pooled, off, n, band, reps, pitch, i)
							}
							got[i] = band
						}
					}
				}, 0, 0, p.levels+1, 0, 1, 0)
				refVisit(p, func(off int, idx []int) {
					lv, id := p.BandOf(idx)
					want := index[[2]int{lv, int(id)}]
					if pooled {
						want = pooledHigh
						if id == 0 {
							want = pooledLow
						}
					}
					if got[off] != want {
						t.Fatalf("%v levels=%d pooled=%v: element %v in band %d, want %d", shape, levels, pooled, idx, got[off], want)
					}
				})
			}
		}
	}
}

// FuzzTransformIdentity drives the kernels with fuzzed shapes (up to 4-D),
// level counts, schemes and seeds: they must match the lane reference bit for
// bit, the pooled round trip (Analyze, Synthesize) must equal the layout one
// bit for bit, and inverse∘forward must return the input to within an ulp of
// the largest magnitude per level and axis.
func FuzzTransformIdentity(f *testing.F) {
	f.Add(uint8(7), uint8(0), uint8(0), uint8(0), uint8(1), false, int64(1))
	f.Add(uint8(9), uint8(2), uint8(0), uint8(0), uint8(2), true, int64(2))
	f.Add(uint8(16), uint8(5), uint8(2), uint8(0), uint8(1), false, int64(3))
	f.Add(uint8(3), uint8(2), uint8(5), uint8(2), uint8(3), true, int64(4))
	f.Fuzz(func(t *testing.T, d0, d1, d2, d3, lv uint8, cdf bool, seed int64) {
		shape := []int{int(d0%24) + 1}
		for _, d := range []uint8{d1, d2, d3} {
			if d == 0 {
				break
			}
			shape = append(shape, int(d%12)+1)
		}
		max := MaxLevels(shape)
		if max == 0 {
			t.Skip("nothing to pair")
		}
		levels := int(lv)%max + 1
		scheme := Haar
		if cdf {
			scheme = CDF53
		}
		fld := kernelField(seed, false, shape...)
		checkAgainstReference(t, fld, levels, scheme, int(seed&3)+1)

		p, err := NewPlan(shape, levels, scheme)
		if err != nil {
			t.Fatal(err)
		}
		rt := fld.Clone()
		if p.Transform(rt) != nil || p.Inverse(rt) != nil {
			t.Fatal("round trip failed")
		}
		// The pooled round trip is the layout one, bit for bit.
		low, high := make([]float64, p.LowCount()), make([]float64, p.HighCount())
		pooled := grid.MustNew(shape...)
		if p.Analyze(fld, low, high, 1) != nil || p.Synthesize(pooled, low, high, 1) != nil {
			t.Fatal("pooled round trip failed")
		}
		sameBits(t, fmt.Sprintf("%v levels=%d %v: pooled round trip", shape, levels, scheme), pooled.Data(), rt.Data())
		// One rounding per pass, each at most half an ulp of the intermediate
		// it rounds; CDF53's lifting steps can grow an intermediate to 3× the
		// input's largest magnitude per pass.
		tol := float64(levels*len(shape)) * 0x1p-52 * maxAbs(fld)
		if scheme == CDF53 {
			tol *= 4
		}
		for i, v := range rt.Data() {
			if d := math.Abs(v - fld.Data()[i]); d > tol {
				t.Fatalf("%v levels=%d %v: element %d came back %g from %g (|Δ|=%g > %g)",
					shape, levels, scheme, i, v, fld.Data()[i], d, tol)
			}
		}
	})
}
