package wavelet

import (
	"fmt"
	"slices"

	"lossyckpt/internal/grid"
)

// BandOf returns which sub-band the multi-index idx belongs to: the
// 1-based level and the BandID within that level (0 only for the deepest
// level's low band). The classification follows the Mallat layout used by
// Transform: an index is at level k's band if it lies inside the active
// box of level k−1 but outside the low box of level k along at least one
// axis (the high bits), or inside every level's low box (the final low
// band).
func (p *Plan) BandOf(idx []int) (level int, id BandID) {
	for k := 1; k <= p.levels; k++ {
		cur := p.ext[k]
		var bits BandID
		for d, i := range idx {
			if i >= cur[d] {
				bits |= 1 << uint(d)
			}
		}
		if bits != 0 {
			return k, bits
		}
	}
	return p.levels, 0
}

// The two pooled classes runs reports instead of band indexes.
const (
	pooledHigh = iota
	pooledLow
)

// runs cuts the transformed layout into blocks of one band each: fn gets
// reps runs of n contiguous elements, pitch apart, the first at off. band is
// an index into Bands(), or with pooled set just pooledHigh or pooledLow,
// which lets whole sub-blocks outside the low box go by as one run. Every
// element is in exactly one block, and the blocks of one band come, and run
// inside, in flat order.
//
// Along axis d an index is of class k when it is at or past ext[k][d] but
// below ext[k−1][d] (high at level k along d), of class levels+1 inside the
// final low box. An element's band is the smallest class over its axes, with
// the axes that reach it as the BandID: BandOf, a segment at a time. runs walks
// reps sub-blocks, pitch apart and the first at off, whose axes before d have
// settled on class lvl reached by the axes in bits; callers start it at
// (0, 0, levels+1, 0, 1, 0).
func (p *Plan) runs(pooled bool, fn func(off, n, band, reps, pitch int), d, off, lvl int, bits BandID, reps, pitch int) {
	last := len(p.shape) - 1
	start, band := 0, -1 // the stretch of one band growing along the last axis
	lo := 0
	for k := p.levels + 1; k >= 1; k-- {
		hi := p.ext[k-1][d] // class k is [lo, hi) along this axis
		if hi == lo {
			continue
		}
		l, b := lvl, bits
		if k < l {
			l, b = k, 0
		}
		if k == l && k <= p.levels {
			b |= 1 << uint(d)
		}
		switch {
		case d == last:
			next := pooledLow
			if pooled && l <= p.levels {
				next = pooledHigh
			} else if !pooled { // Bands() order; b is 0 for the low band alone, which closes the list
				next = (l-1)*(1<<uint(d+1)-1) + max(int(b), 1) - 1
			}
			if next != band {
				if band >= 0 {
					fn(off+start, lo-start, band, reps, pitch)
				}
				start, band = lo, next
			}
		case pooled && l <= p.levels:
			fn(off+lo*p.stride[d], (hi-lo)*p.stride[d], pooledHigh, 1, 0)
		case d == last-1: // every row of the stretch splits alike: one block per split
			p.runs(pooled, fn, last, off+lo*p.stride[d], l, b, hi-lo, p.stride[d])
		default:
			for i := lo; i < hi; i++ {
				p.runs(pooled, fn, d+1, off+i*p.stride[d], l, b, 1, 0)
			}
		}
		lo = hi
	}
	if band >= 0 {
		fn(off+start, lo-start, band, reps, pitch)
	}
}

// move copies between the transformed layout in data and the pools, one per
// band as runs numbers them: out of data into the pools, or with scatter set
// back from them. Each pool is advanced past what was copied, and bands whose
// pool is nil are skipped. Within a pool values keep flat row-major order.
func (p *Plan) move(f *grid.Field, pools [][]float64, pooled, scatter bool) error {
	if err := p.matches(f); err != nil {
		return err
	}
	data := f.Data()
	p.runs(pooled, func(off, n, band, reps, pitch int) {
		if pools[band] == nil {
			return
		}
		pool := pools[band][:n*reps]
		pools[band] = pools[band][n*reps:]
		switch {
		case n == 1 && scatter: // a last axis of 2 alternates low and high in the low box
			for r, v := range pool {
				data[off+r*pitch] = v
			}
		case n == 1:
			for r := range pool {
				pool[r] = data[off+r*pitch]
			}
		default:
			for ; reps > 0; reps, off, pool = reps-1, off+pitch, pool[n:] {
				if scatter {
					copy(data[off:off+n], pool)
				} else {
					copy(pool[:n], data[off:])
				}
			}
		}
	}, 0, 0, p.levels+1, 0, 1, 0)
	return nil
}

// GatherHigh copies every high-frequency value of the transformed field f
// into dst in deterministic (flat row-major) order and returns the slice.
// If dst is nil or too small a new slice is allocated. The returned slice
// has length p.HighCount().
func (p *Plan) GatherHigh(f *grid.Field, dst []float64) ([]float64, error) {
	return p.gather(f, dst, pooledHigh, p.HighCount())
}

// GatherLow copies the final low band (row-major order within the low box)
// into dst and returns it; it allocates when dst is too small.
func (p *Plan) GatherLow(f *grid.Field, dst []float64) ([]float64, error) {
	return p.gather(f, dst, pooledLow, p.LowCount())
}

func (p *Plan) gather(f *grid.Field, dst []float64, class, n int) ([]float64, error) {
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	var pools [2][]float64
	pools[class] = dst[:n]
	return dst[:n], p.move(f, pools[:], true, false)
}

// ScatterHigh writes src (length p.HighCount(), same order as GatherHigh)
// back into the high-frequency positions of f.
func (p *Plan) ScatterHigh(f *grid.Field, src []float64) error {
	return p.scatter(f, src, pooledHigh, "ScatterHigh", p.HighCount())
}

// ScatterLow writes src (length p.LowCount(), same order as GatherLow) back
// into the low-band positions of f.
func (p *Plan) ScatterLow(f *grid.Field, src []float64) error {
	return p.scatter(f, src, pooledLow, "ScatterLow", p.LowCount())
}

func (p *Plan) scatter(f *grid.Field, src []float64, class int, name string, n int) error {
	if len(src) != n {
		return fmt.Errorf("wavelet: %s got %d values, want %d", name, len(src), n)
	}
	var pools [2][]float64
	pools[class] = src
	return p.move(f, pools[:], true, true)
}

// Analyze is TransformTo into a layout followed by GatherLow and GatherHigh
// out of it: it writes the forward transform of src, which it only reads,
// into low and high, LowCount and HighCount long. For a one-level Haar plan
// it is the block pass alone, each coefficient written straight to its place
// in the pools; other plans go through the layout in scratch.
func (p *Plan) Analyze(src *grid.Field, low, high []float64, workers int) error {
	return p.pooled(src, low, high, workers, false)
}

// Synthesize takes what ScatterLow, ScatterHigh and InverseTo take and writes
// what they would into dst: the field whose transform is low and high. It
// checks every length before it writes anything.
func (p *Plan) Synthesize(dst *grid.Field, low, high []float64, workers int) error {
	return p.pooled(dst, low, high, workers, true)
}

func (p *Plan) pooled(f *grid.Field, low, high []float64, workers int, inverse bool) error {
	if err := p.matches(f); err != nil {
		return err
	}
	if len(low) != p.LowCount() || len(high) != p.HighCount() {
		return fmt.Errorf("wavelet: pools of %d and %d values, plan needs %d and %d", len(low), len(high), p.LowCount(), p.HighCount())
	}
	if p.scheme == Haar && p.levels == 1 {
		t := p.target(0, low, high, true)
		p.haar(f.Data(), &t, p.shape, workers, inverse)
		return nil
	}
	buf := grid.GetScratch(f.Len())
	defer buf.Put()
	coef, err := grid.FromSlice(buf.S, p.shape...)
	pools := [][]float64{pooledHigh: high, pooledLow: low}
	switch {
	case err != nil:
	case inverse:
		if err = p.move(coef, pools, true, true); err == nil {
			err = p.InverseTo(f, coef, workers)
		}
	default:
		if err = p.TransformTo(coef, f, workers); err == nil {
			err = p.move(coef, pools, true, false)
		}
	}
	return err
}

// GatherBands splits the transformed field's coefficients into per-band
// slices, ordered exactly like Bands() (all high bands level by level,
// then the final low band). Within each band, values appear in flat
// row-major order — the same order GatherHigh uses overall.
func (p *Plan) GatherBands(f *grid.Field) ([][]float64, error) {
	if err := p.matches(f); err != nil {
		return nil, err
	}
	bands := p.Bands()
	out := make([][]float64, len(bands))
	for i, b := range bands {
		out[i] = make([]float64, b.Count)
	}
	return out, p.move(f, slices.Clone(out), false, false)
}

// ScatterBands writes per-band slices (as returned by GatherBands) back
// into the transformed field.
func (p *Plan) ScatterBands(f *grid.Field, bands [][]float64) error {
	expect := p.Bands()
	if len(bands) != len(expect) {
		return fmt.Errorf("wavelet: ScatterBands got %d bands, want %d", len(bands), len(expect))
	}
	for i, b := range expect {
		if len(bands[i]) != b.Count {
			return fmt.Errorf("wavelet: band %s has %d values, want %d", b.Name, len(bands[i]), b.Count)
		}
	}
	return p.move(f, slices.Clone(bands), false, true)
}

// BandEnergies returns the sum of squared coefficients per band, ordered
// like Bands() — the standard diagnostic for how well a transform
// concentrates information (smooth inputs put almost all energy in the
// low band).
func (p *Plan) BandEnergies(f *grid.Field) ([]float64, error) {
	bands, err := p.GatherBands(f)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(bands))
	for i, b := range bands {
		var e float64
		for _, v := range b {
			e += v * v
		}
		out[i] = e
	}
	return out, nil
}
