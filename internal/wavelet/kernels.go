package wavelet

import (
	"runtime"
	"sync"

	"lossyckpt/internal/grid"
)

// An axis pass reads one buffer and writes another of the same layout. Along a
// strided axis the kernels combine whole contiguous rows (every lane of the
// chunk advances together); along the last axis a lane is itself contiguous and
// is de-interleaved in one loop. Every output element is the expression the
// paper gives (Eqs. 2–3, or the lifting steps) of the same inputs in the same
// order: bit-identical whatever the shards and workers (DESIGN.md §5).

// parallelCutoff is the number of elements an axis pass must touch before it
// is sharded across goroutines. Passes mostly move memory: on the two-CPU host
// of EXPERIMENTS.md ("Stage 1 kernels") two shards ran a 128-plane slab at
// 0.6× the serial speed, the 1.5 MB field anywhere from 0.85× to 1.4× over
// five runs, 6 MB at 0.91× and the 24 MB array at 1.45–1.57×. The cutoff, at
// 16 MB, sits where the gain is certain; what a checkpoint transforms under
// its own entry or slab workers stays below it.
const parallelCutoff = 1 << 21

// level runs the axis passes of decomposition level k from start to end,
// which may be one buffer: passes alternate between end and tmp so that the
// last lands in end. Only the level's active box is touched, start only read.
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
	if n%2 == 1 && &start[0] == &end[0] { // the first pass would write what it reads
		p.copyBox(tmp, start, act)
		start = tmp
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

// pass runs one forward or inverse step along axis over the active box act,
// sharding the independent lanes across workers when the pass is large enough.
func (p *Plan) pass(dst, src []float64, act []int, axis, workers int, inverse bool) {
	c := p.columns(act, axis)
	n, step, kerns := act[axis], p.stride[axis], rowKernels[p.scheme]
	if axis == len(act)-1 {
		step, kerns = c.stride[c.nd-1], lastKernels[p.scheme]
	}
	kern := kerns[0]
	if inverse {
		kern = kerns[1]
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

var (
	rowKernels  = [...][2]kernel{Haar: {haarRows, haarRowsInv}, CDF53: {cdf53Rows, cdf53RowsInv}}
	lastKernels = [...][2]kernel{Haar: {haarLast, haarLastInv}, CDF53: {cdf53Last, cdf53LastInv}}
)

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

// haarRows is the paper's kernel on rows: L = (a+b)/2, H = (a−b)/2; an odd
// trailing row is carried into the last low slot verbatim.
func haarRows(dst, src []float64, off, n, step, count int) {
	nh := n / 2
	nl := n - nh
	for i := 0; i < nh; i++ {
		a, b := row(src, off, 2*i, step, count), row(src, off, 2*i+1, step, count)
		l, h := row(dst, off, i, step, count), row(dst, off, nl+i, step, count)
		for j, x := range a {
			y := b[j]
			l[j] = (x + y) / 2
			h[j] = (x - y) / 2
		}
	}
	if nl > nh {
		copy(row(dst, off, nl-1, step, count), row(src, off, n-1, step, count))
	}
}

func haarRowsInv(dst, src []float64, off, n, step, count int) {
	nh := n / 2
	nl := n - nh
	for i := 0; i < nh; i++ {
		l, h := row(src, off, i, step, count), row(src, off, nl+i, step, count)
		a, b := row(dst, off, 2*i, step, count), row(dst, off, 2*i+1, step, count)
		for j, x := range l {
			y := h[j]
			a[j] = x + y
			b[j] = x - y
		}
	}
	if nl > nh {
		copy(row(dst, off, n-1, step, count), row(src, off, nl-1, step, count))
	}
}

func haarLast(dst, src []float64, off, n, step, count int) {
	nh := n / 2
	nl := n - nh
	// Indexed from off rather than through per-lane slices: with a last axis
	// of 2 a lane is one pair, and slicing it would cost more than the pair.
	for ; count > 0; count, off = count-1, off+step {
		for i := 0; i < nh; i++ {
			a, b := src[off+2*i], src[off+2*i+1]
			dst[off+i] = (a + b) / 2
			dst[off+nl+i] = (a - b) / 2
		}
		if nl > nh {
			dst[off+nl-1] = src[off+n-1]
		}
	}
}

func haarLastInv(dst, src []float64, off, n, step, count int) {
	nh := n / 2
	nl := n - nh
	for ; count > 0; count, off = count-1, off+step {
		for i := 0; i < nh; i++ {
			l, h := src[off+i], src[off+nl+i]
			dst[off+2*i] = l + h
			dst[off+2*i+1] = l - h
		}
		if nl > nh {
			dst[off+n-1] = src[off+nl-1]
		}
	}
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
