package wavelet

import (
	"math/bits"
	"runtime"
	"sync"

	"lossyckpt/internal/grid"
)

// A Haar level is one pass over its blocks; a CDF53 level is one lifting pass
// per axis, each reading one buffer and writing another of the same layout. In
// both, every output element is the expression the paper gives (Eqs. 2–3, or
// the lifting steps) of the same inputs in the same order: bit-identical
// whatever the shards and workers (DESIGN.md §5).

// parallelCutoff is the number of elements a level (Haar) or an axis pass
// (CDF53) must touch before it is sharded across goroutines. On a two-CPU
// host (BenchmarkCutoff; EXPERIMENTS.md, "One pass per Haar level") two
// shards ran the Haar block pass on a 128-plane slab at 0.5–0.9× the serial
// speed, on the 1.5 MB field at 1.2–1.5×, on 6 MB at 1.7–2.0× and on the
// 24 MB array at 1.3–1.9×, and CDF53's passes at 6 MB at 1.1–1.7×. The
// cutoff, 4 MB, keeps the slabs and the 1.5 MB field serial: a checkpoint
// already transforms them under its own entry or slab workers, which shards
// of one level would only contend with.
const parallelCutoff = 1 << 19

// level runs decomposition level k from start to end, which may be one
// buffer. Only the level's active box is touched, start only read. A Haar
// level is one block pass; CDF53's axis passes alternate between end and tmp
// so that the last lands in end.
func (p *Plan) level(end, start, tmp []float64, k, workers int, inverse bool) {
	act := p.ext[k]
	var axes [grid.MaxDims]int
	n := 0
	for axis, e := range act {
		if e >= 2 { // nothing to pair along an axis that has shrunk to 1
			axes[n] = axis
			n++
		}
	}
	if (n%2 == 1 || p.scheme == Haar) && &start[0] == &end[0] { // the first pass would write what it reads
		p.copyBox(tmp, start, act)
		start = tmp
	}
	if p.scheme == Haar {
		field, coef := start, end
		if inverse {
			field, coef = end, start
		}
		t := p.target(k, coef, coef, false)
		p.haar(field, &t, act, workers, inverse)
		return
	}
	for j := 0; j < n; j++ {
		axis, out := axes[j], end
		if inverse {
			axis = axes[n-1-j]
		}
		if (n-1-j)%2 == 1 {
			out = tmp
		}
		p.pass(out, start, act, axis, workers, inverse)
		start = out
	}
}

// target says where one Haar level's coefficients lie. Corner c of block i —
// bit d of c set where the coefficient is high along axis d — has the Mallat
// layout offset Σ (i_d + c_d·nl_d)·stride_d, in the plan's strides. A target
// puts the low corner in pool[0] at Σ i_d·low_d, the others in pool[1] at the
// layout offset less nl_f·lead_f + Σ_{d<f} i_d·lead_d, f the corner's first
// high axis. Lead 0 is the layout itself; lead_d = Π_{e>d} nl_e takes away
// the low-box elements before it in flat order, which is the high pool's
// order.
type target struct {
	pool          [2][]float64
	nl, low, lead [grid.MaxDims]int
}

// target returns level k's target: the layout, one buffer given twice, or
// with pooled set the pools of a one-level plan.
func (p *Plan) target(k int, low, high []float64, pooled bool) target {
	t := target{pool: [2][]float64{low, high}}
	copy(t.nl[:], p.ext[k+1])
	for d, acc := len(p.shape)-1, 1; d >= 0; d-- {
		t.low[d] = p.stride[d]
		if pooled {
			t.low[d], t.lead[d] = acc, acc
		}
		acc *= t.nl[d]
	}
	return t
}

// A lane holds one value of each block of a run: s[i·step] for the i-th.
type lane struct {
	s    []float64
	step int
}

func (l *lane) at(i int) float64     { return l.s[i*l.step] }
func (l *lane) set(i int, v float64) { l.s[i*l.step] = v }

// region is the blocks of a Haar level that sit at the odd tail of some axes
// and pair along the other na: the block indexes [lo, lo+ext), in runs along
// axis r. Lane m of a run holds the value delta past each block's first
// element — bit j of m its offset along the j-th axis that pairs — and
// becomes corner c, first its first high axis, at base + offset in the target.
type region struct {
	lo, ext [grid.MaxDims]int
	r, na   int
	lanes   [1 << grid.MaxDims]struct{ delta, first, base, step int }
}

// haar runs one Haar level over the active box act between field, which holds
// the values in the full-stride layout, and t: from field into t, or with
// inverse set back, region by region. Runs go along the last axis that holds
// more than one block. Blocks are numbered along their runs, the runs in order
// of the other block indexes, last axis fastest; distinct blocks touch disjoint
// elements, so ranges of block ordinals shard like lanes, splitting a run
// where the runs are fewer than the workers.
func (p *Plan) haar(field []float64, t *target, act []int, workers int, inverse bool) {
	g, elems := region{r: len(act) - 1}, 1
	for g.r > 0 && act[g.r] <= 2 {
		g.r--
	}
	for _, e := range act {
		elems *= e
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for tails := 0; tails < 1<<len(act); tails++ {
		var axes [grid.MaxDims]int
		total := 1
		g.na = 0
		for d, e := range act {
			g.lo[d], g.ext[d] = 0, e/2
			if tails>>d&1 == 1 {
				g.lo[d], g.ext[d] = e/2, e%2
			} else {
				axes[g.na] = d
				g.na++
			}
			total *= g.ext[d]
		}
		if total == 0 {
			continue
		}
		for m := 0; m < 1<<g.na; m++ {
			c, l := 0, &g.lanes[m]
			l.delta, l.base, l.step = 0, 0, t.low[g.r]
			for j := 0; j < g.na; j++ {
				if d := axes[j]; m>>j&1 == 1 {
					c |= 1 << d
					l.delta += p.stride[d]
					l.base += t.nl[d] * p.stride[d]
				}
			}
			if l.first = bits.TrailingZeros(uint(c)); c != 0 {
				l.base -= t.nl[l.first] * t.lead[l.first]
				l.step = p.stride[g.r]
				if g.r < l.first {
					l.step -= t.lead[g.r]
				}
			}
		}
		if workers < 2 || total < 2 || elems < p.cutoff {
			p.haarRuns(field, t, &g, 0, total, inverse)
			continue
		}
		var wg sync.WaitGroup
		per := (total + workers - 1) / workers
		for lo := 0; lo < total; lo += per {
			wg.Add(1)
			// Copies, not captures: a serial level then allocates nothing.
			go func(t target, g region, lo, hi int) {
				defer wg.Done()
				p.haarRuns(field, &t, &g, lo, hi, inverse)
			}(*t, g, lo, min(lo+per, total))
		}
		wg.Wait()
	}
}

// haarRuns is haar over the blocks of g with ordinals [lo, hi), a run or the
// part of one in the range at a time.
func (p *Plan) haarRuns(field []float64, t *target, g *region, lo, hi int, inverse bool) {
	var (
		buf    [1 << 11]float64
		fl, cl [1 << grid.MaxDims]lane // the field's lanes, the target's
		blk    [grid.MaxDims]int
		lead   [grid.MaxDims + 1]int
	)
	dims, r, in, out := len(p.shape), g.r, &fl, &cl
	if inverse {
		in, out = out, in
	}
	blk[r] = g.lo[r] + lo%g.ext[r]
	for d, o := dims-1, lo/g.ext[r]; d >= 0; d-- {
		if d != r {
			blk[d], o = g.lo[d]+o%g.ext[d], o/g.ext[d]
		}
	}
	for lo < hi {
		at, low := 0, 0
		for d := 0; d < dims; d++ {
			at += blk[d] * p.stride[d]
			low += blk[d] * t.low[d]
			lead[d+1] = lead[d] + blk[d]*t.lead[d]
		}
		for m := 0; m < 1<<g.na; m++ {
			l := &g.lanes[m]
			fl[m], cl[m] = lane{field[2*at+l.delta:], 2 * p.stride[r]}, lane{t.pool[0][low:], l.step}
			if m > 0 {
				cl[m].s = t.pool[1][l.base+at-lead[l.first]:]
			}
		}
		n := min(g.lo[r]+g.ext[r]-blk[r], hi-lo)
		butterflies(in, out, buf[:], g.na, n, inverse)
		lo += n
		blk[r] = g.lo[r]
		for d := dims - 1; d >= 0; d-- { // the next run
			if d == r {
				continue
			}
			if blk[d]++; blk[d] < g.lo[d]+g.ext[d] {
				break
			}
			blk[d] = g.lo[d]
		}
	}
}

// butterflies takes n blocks of na axes of two from the lanes in to the lanes
// out through the paper's butterflies, axis by axis in the order the
// separable passes ran them: forward from the first axis, inverse from the
// last. Blocks of three axes, the interior of a 3-D level, go through in
// registers, at 2.3–2.5× the speed of the rows (EXPERIMENTS.md, "One pass
// per Haar level"). Any other count goes a chunk of blocks at a time in rows
// of buf, the first axis reading in and the last writing out.
func butterflies(in, out *[1 << grid.MaxDims]lane, buf []float64, na, n int, inverse bool) {
	if na == 3 {
		for i := 0; i < n; i++ {
			v0, v1, v2, v3 := in[0].at(i), in[1].at(i), in[2].at(i), in[3].at(i)
			v4, v5, v6, v7 := in[4].at(i), in[5].at(i), in[6].at(i), in[7].at(i)
			if inverse {
				v0, v4, v1, v5, v2, v6, v3, v7 = inv4(v0, v4, v1, v5, v2, v6, v3, v7)
				v0, v2, v1, v3, v4, v6, v5, v7 = inv4(v0, v2, v1, v3, v4, v6, v5, v7)
				v0, v1, v2, v3, v4, v5, v6, v7 = inv4(v0, v1, v2, v3, v4, v5, v6, v7)
			} else {
				v0, v1, v2, v3, v4, v5, v6, v7 = fwd4(v0, v1, v2, v3, v4, v5, v6, v7)
				v0, v2, v1, v3, v4, v6, v5, v7 = fwd4(v0, v2, v1, v3, v4, v6, v5, v7)
				v0, v4, v1, v5, v2, v6, v3, v7 = fwd4(v0, v4, v1, v5, v2, v6, v3, v7)
			}
			out[0].set(i, v0) // in address order when out is the field
			out[4].set(i, v4)
			out[2].set(i, v2)
			out[6].set(i, v6)
			out[1].set(i, v1)
			out[5].set(i, v5)
			out[3].set(i, v3)
			out[7].set(i, v7)
		}
		return
	}
	for k := len(buf) >> na; n > 0; n -= k {
		k = min(k, n)
		for i := 0; na == 0 && i < k; i++ {
			out[0].set(i, in[0].at(i))
		}
		for j := 0; j < na; j++ {
			bit := 1 << j
			if inverse {
				bit = 1 << (na - 1 - j)
			}
			for m := 0; m < 1<<na; m++ {
				if m&bit != 0 {
					continue
				}
				a, b := lane{buf[m*k:], 1}, lane{buf[(m|bit)*k:], 1}
				x, y := a, b
				if j == 0 {
					a, b = in[m], in[m|bit]
				}
				if j == na-1 {
					x, y = out[m], out[m|bit]
				}
				if inverse {
					for i := 0; i < k; i++ {
						u, w := a.at(i), b.at(i)
						x.set(i, u+w)
						y.set(i, u-w)
					}
				} else {
					for i := 0; i < k; i++ {
						u, w := a.at(i), b.at(i)
						x.set(i, (u+w)/2)
						y.set(i, (u-w)/2)
					}
				}
			}
		}
		for m := 0; m < 1<<na && n > k; m++ {
			in[m].s, out[m].s = in[m].s[k*in[m].step:], out[m].s[k*out[m].step:]
		}
	}
}

// fwd4 is the paper's butterfly, L = (a+b)/2 and H = (a−b)/2, on four pairs;
// inv4 undoes it.
func fwd4(a, b, c, d, e, f, g, h float64) (float64, float64, float64, float64, float64, float64, float64, float64) {
	return (a + b) / 2, (a - b) / 2, (c + d) / 2, (c - d) / 2, (e + f) / 2, (e - f) / 2, (g + h) / 2, (g - h) / 2
}

func inv4(a, b, c, d, e, f, g, h float64) (float64, float64, float64, float64, float64, float64, float64, float64) {
	return a + b, a - b, c + d, c - d, e + f, e - f, g + h, g - h
}

// pass runs one forward or inverse step along axis over the active box act,
// sharding the independent lanes across workers when the pass is large enough.
func (p *Plan) pass(dst, src []float64, act []int, axis, workers int, inverse bool) {
	c := p.columns(act, axis)
	n, step, kern := act[axis], p.stride[axis], cdf53Rows
	if inverse {
		kern = cdf53RowsInv
	}
	if axis == len(act)-1 {
		step, kern = c.stride[c.nd-1], cdf53Last
		if inverse {
			kern = cdf53LastInv
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 2 || c.total < 2 || c.total*n < p.cutoff {
		c.each(0, c.total, kern, dst, src, n, step)
		return
	}
	var wg sync.WaitGroup
	per := (c.total + workers - 1) / workers // 1 when workers outnumber the lanes
	for lo := 0; lo < c.total; lo += per {
		wg.Add(1)
		// Arguments, not captures: a serial pass then allocates nothing.
		go func(c columns, kern kernel, step, lo, hi int) {
			defer wg.Done()
			c.each(lo, hi, kern, dst, src, n, step)
		}(c, kern, step, lo, min(lo+per, c.total))
	}
	wg.Wait()
}

// copyBox copies the active box act from src to dst, a contiguous run at a time.
func (p *Plan) copyBox(dst, src []float64, act []int) {
	c := p.columns(act, -1)
	c.each(0, c.total, func(dst, src []float64, off, _, _, count int) {
		copy(dst[off:off+count], src[off:off+count])
	}, dst, src, 0, 0)
}

// columns is the set of lanes of one axis pass: the index tuples of the
// active box with the pass axis left out, last dimension fastest, dimensions
// that run on from each other in memory merged into one. They are numbered in
// that order; distinct ordinals touch disjoint elements, so shards never race.
type columns struct {
	ext, stride [grid.MaxDims]int
	nd, total   int
}

func (p *Plan) columns(act []int, axis int) columns {
	c := columns{total: 1}
	for d, e := range act {
		if d == axis {
			continue
		}
		c.total *= e
		if last := c.nd - 1; last >= 0 && c.stride[last] == e*p.stride[d] {
			c.ext[last], c.stride[last] = c.ext[last]*e, p.stride[d]
			continue
		}
		c.ext[c.nd], c.stride[c.nd] = e, p.stride[d]
		c.nd++
	}
	if c.nd == 0 { // a 1-D field: its one lane
		c.ext[0], c.stride[0], c.nd = 1, 1, 1
	}
	return c
}

// each runs kern over the lanes with ordinals [lo, hi) in chunks: count lanes
// starting at off, off+s, off+2s, … for s the innermost stride — 1 unless the
// pass runs along the last axis.
func (c *columns) each(lo, hi int, kern kernel, dst, src []float64, n, step int) {
	var idx [grid.MaxDims]int
	last := c.nd - 1
	for d, o := last, lo; d >= 0; d-- {
		idx[d] = o % c.ext[d]
		o /= c.ext[d]
	}
	for lo < hi {
		off := 0
		for d := 0; d <= last; d++ {
			off += idx[d] * c.stride[d]
		}
		count := min(c.ext[last]-idx[last], hi-lo)
		kern(dst, src, off, n, step, count)
		lo += count
		idx[last] += count
		for d := last; d > 0 && idx[d] == c.ext[d]; d-- {
			idx[d] = 0
			idx[d-1]++
		}
	}
}

// A kernel transforms one chunk of lanes, each n ≥ 2 elements long, from src
// into dst. Coefficients lie along the lane as [L(0..nl) | H(0..nh)] with
// nl = ceil(n/2), nh = floor(n/2): a forward kernel's output, an inverse's input.
//
// Row kernels (strided axis): the lanes start at off, off+1, …, off+count−1
// and step elements apart, so "element i of every lane" is the contiguous row
// [off+i·step, off+i·step+count). Last-axis kernels: each lane is the
// contiguous [o, o+n) for o = off, off+step, ….
type kernel func(dst, src []float64, off, n, step, count int)

// row returns row i of a chunk (see kernel).
func row(buf []float64, off, i, step, count int) []float64 {
	o := off + i*step
	return buf[o : o+count : o+count]
}

// mirror is CDF53's symmetric extension at the far end: the even sample past
// the last one is the last one again.
func mirror(i, n int) int {
	if i < n {
		return i
	}
	return i - 2
}

// cdf53Rows is the CDF(5,3) lifting kernel on rows: predict the odd rows from
// their even neighbours, then update the even rows from the predicted
// details, with symmetric extension at both ends.
//
//	detail: d[i] = a[2i+1] − (a[2i] + a[2i+2]) / 2
//	smooth: s[i] = a[2i] + (d[i−1] + d[i]) / 4
func cdf53Rows(dst, src []float64, off, n, step, count int) {
	nh := n / 2
	nl := n - nh
	for i := 0; i < nh; i++ {
		left, right := row(src, off, 2*i, step, count), row(src, off, mirror(2*i+2, n), step, count)
		odd, d := row(src, off, 2*i+1, step, count), row(dst, off, nl+i, step, count)
		for j := range d {
			d[j] = odd[j] - (left[j]+right[j])/2
		}
	}
	for i := 0; i < nl; i++ {
		dl, dr := row(dst, off, nl+max(i-1, 0), step, count), row(dst, off, nl+min(i, nh-1), step, count)
		even, s := row(src, off, 2*i, step, count), row(dst, off, i, step, count)
		for j := range s {
			s[j] = even[j] + (dl[j]+dr[j])/4
		}
	}
}

// cdf53RowsInv undoes the update, then the predict, mirroring cdf53Rows.
func cdf53RowsInv(dst, src []float64, off, n, step, count int) {
	nh := n / 2
	nl := n - nh
	for i := 0; i < nl; i++ {
		dl, dr := row(src, off, nl+max(i-1, 0), step, count), row(src, off, nl+min(i, nh-1), step, count)
		s, even := row(src, off, i, step, count), row(dst, off, 2*i, step, count)
		for j := range even {
			even[j] = s[j] - (dl[j]+dr[j])/4
		}
	}
	for i := 0; i < nh; i++ {
		left, right := row(dst, off, 2*i, step, count), row(dst, off, mirror(2*i+2, n), step, count)
		d, odd := row(src, off, nl+i, step, count), row(dst, off, 2*i+1, step, count)
		for j := range odd {
			odd[j] = d[j] + (left[j]+right[j])/2
		}
	}
}

func cdf53Last(dst, src []float64, off, n, step, count int) {
	nh := n / 2
	nl := n - nh
	for ; count > 0; count, off = count-1, off+step {
		a, s, d := src[off:off+n], dst[off:off+nl], dst[off+nl:off+n]
		for i := range d {
			d[i] = a[2*i+1] - (a[2*i]+a[mirror(2*i+2, n)])/2
		}
		for i := range s {
			s[i] = a[2*i] + (d[max(i-1, 0)]+d[min(i, nh-1)])/4
		}
	}
}

func cdf53LastInv(dst, src []float64, off, n, step, count int) {
	nh := n / 2
	nl := n - nh
	for ; count > 0; count, off = count-1, off+step {
		a, s, d := dst[off:off+n], src[off:off+nl], src[off+nl:off+n]
		for i, v := range s {
			a[2*i] = v - (d[max(i-1, 0)]+d[min(i, nh-1)])/4
		}
		for i, v := range d {
			a[2*i+1] = v + (a[2*i]+a[mirror(2*i+2, n)])/2
		}
	}
}
