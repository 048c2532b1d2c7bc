// Package quant implements stage 2 of the lossy checkpoint compressor of
// Sasaki et al. (IPDPS 2015): quantization of the wavelet high-frequency
// coefficients.
//
// Two methods are provided, matching the paper's §III-B:
//
//   - Simple quantization: the value range [min, max] of the high-frequency
//     coefficients is split into n equal-width partitions; every value is
//     replaced by the mean of its partition, so at most n distinct values
//     remain.
//
//   - Proposed quantization: the range is first split into d partitions
//     (d=64 in the paper) and a histogram is taken. Partitions holding at
//     least the average share of values, Ndiv[i] ≥ Ntotal/d, are "spiked"
//     (high-frequency coefficients of smooth data pile up near zero).
//     Simple quantization with n partitions is then applied only to the
//     values inside spiked partitions; all other values pass through
//     losslessly and a bitmap records which values were quantized.
//
// The paper's Fig. 4 shows the n sub-partitions spanning the spiked region;
// we therefore pool the values of all selected partitions and quantize them
// over that pool's own [min, max] range (documented design choice — with a
// single spike, as in the paper's data, the two readings coincide).
//
// Non-finite values (NaN, ±Inf) are never quantized; they pass through via
// the bitmap in both methods so decompression is exact for them.
//
// Cost: a quantization reads its input three times and decides each value
// once. The range pass reads the values and keeps min, max and the finite
// count. The histogram pass (Proposed) reads them again, counts each
// partition and writes the value's partition index, two bytes, beside it. The
// split pass reads values and indexes, looks the index up in the spiked
// table — no second division — and writes, 64 values to a word, the bitmap,
// the passthrough values and the selected values packed dense; the selected
// range is then read off the dense pool. A division number is then one
// allocation-free pass over the dense pool that writes the codes, and
// ChooseDivisions judges its nine candidates for about two: n = 1 is an
// in-order sum, the powers of two up to 128 nest and are read off one pass
// at 128, and only the cap takes a pass of its own. When every value is
// selected the pool is the input and nothing is split; when none is, the
// passthrough is. Every pass is O(len(values)), preserving the paper's O(n)
// overall complexity claim (§III).
package quant

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"lossyckpt/internal/bitpack"
)

// Method selects the quantization algorithm.
type Method int

const (
	// Simple quantizes every finite high-frequency value (paper §III-B1).
	Simple Method = iota
	// Proposed quantizes only values inside spiked histogram partitions
	// (paper §III-B2).
	Proposed
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Simple:
		return "simple"
	case Proposed:
		return "proposed"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ParseMethod converts a string produced by String back into a Method.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "simple":
		return Simple, nil
	case "proposed":
		return Proposed, nil
	default:
		return 0, fmt.Errorf("quant: unknown method %q", s)
	}
}

// MaxDivisions is the largest allowed division number n. Codes are stored
// in one byte (paper §III-C), so n ≤ 255. The paper sweeps n from 1 to 128.
const MaxDivisions = 255

// DefaultSpikeDivisions is the paper's histogram resolution d for spike
// detection (§IV-A: "The parameter d is set to be 64").
const DefaultSpikeDivisions = 64

// MaxSpikeDivisions is the largest allowed d: the container header stores it
// in 16 bits, and a value's partition index is cached in as many.
const MaxSpikeDivisions = math.MaxUint16

// Errors returned by this package.
var ErrConfig = errors.New("quant: invalid configuration")

// Config parameterizes a quantization.
type Config struct {
	// Method selects Simple or Proposed.
	Method Method
	// Divisions is the paper's n: the number of equal-width partitions
	// whose means become the representative values. 1 ≤ n ≤ 255.
	Divisions int
	// SpikeDivisions is the paper's d, used only by Proposed. Zero means
	// DefaultSpikeDivisions.
	SpikeDivisions int
	// LogScale switches from the paper's equal-width partitions to
	// partitions equal in symmetric-log space (extension): partition edges
	// concentrate near zero, where wavelet high-band values pile up, so
	// small coefficients get finer resolution at the same n. This is an
	// encoder-side choice only — decoding reads the average table and is
	// unchanged.
	LogScale bool
}

func (c Config) validate() (Config, error) {
	if c.Method != Simple && c.Method != Proposed {
		return c, fmt.Errorf("%w: method %d", ErrConfig, int(c.Method))
	}
	if c.Divisions < 1 || c.Divisions > MaxDivisions {
		return c, fmt.Errorf("%w: divisions %d (want 1..%d)", ErrConfig, c.Divisions, MaxDivisions)
	}
	if c.SpikeDivisions == 0 {
		c.SpikeDivisions = DefaultSpikeDivisions
	}
	if c.SpikeDivisions < 1 || c.SpikeDivisions > MaxSpikeDivisions {
		return c, fmt.Errorf("%w: spike divisions %d (want 1..%d)", ErrConfig, c.SpikeDivisions, MaxSpikeDivisions)
	}
	return c, nil
}

// Quantization is the output of Quantize: everything needed to encode the
// quantized stream and to reconstruct approximate values.
type Quantization struct {
	// Averages is the representative-value table; Codes index into it.
	// Its length is the configured number of divisions; entries for empty
	// partitions are zero and never referenced by Codes.
	Averages []float64
	// Codes holds one byte per quantized value, in input order (skipping
	// passthrough values).
	Codes []uint8
	// Bitmap has one bit per input value: set when the value was replaced
	// by a code, clear when it passes through losslessly.
	Bitmap *bitpack.Bitmap
	// Passthrough holds the values that were not quantized, in input order;
	// the encoder stores them verbatim. When nothing was quantized the
	// passthrough stream is the input itself and no copy is made: Quantize
	// leaves a view of its input here, PassthroughAll, which never saw one,
	// leaves nil.
	Passthrough []float64
	// NumQuantized is the number of set bits in Bitmap (== len(Codes)).
	NumQuantized int
	// SpikePartitions is the number of histogram partitions selected as
	// spiked (Proposed only; equals SpikeDivisions' selected count).
	SpikePartitions int
}

// Scratch is the working memory of one quantization: partition indexes,
// histogram, bitmap words, the two halves of the split, the codes and the
// result. The Quantization made with it is part of it and views of it, good
// until the Scratch is used or Put again. Every element a result shows is
// written by the call that made it, so nothing depends on what a recycled
// Scratch held.
type Scratch struct {
	bins   []uint16
	counts []int
	spiked []uint8
	words  []uint64
	pool   []float64
	pass   []float64
	codes  []uint8
	avgs   [MaxDivisions]float64
	q      Quantization
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a pooled Scratch.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Put hands the scratch back; the caller must be done with every
// Quantization made with it.
func (sc *Scratch) Put() { scratchPool.Put(sc) }

// sized returns s with length n, reallocated when too small; the contents
// are unspecified.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Quantize analyzes values (the pooled high-frequency coefficients of one
// array) and returns the quantization mapping. The input slice is not
// modified.
func Quantize(values []float64, cfg Config) (*Quantization, error) {
	q, _, err := QuantizeMeasured(values, cfg, nil)
	return q, err
}

// QuantizeMeasured is Quantize that also returns MaxQuantizationError of
// the result, without the scan. It works in sc and the result aliases sc as
// Scratch describes; with a nil sc the result owns its memory.
func QuantizeMeasured(values []float64, cfg Config, sc *Scratch) (*Quantization, float64, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return nil, 0, err
	}
	sel := selectPool(values, cfg.Method, cfg.SpikeDivisions, sc)
	var t tally
	e := sel.evaluate(cfg.Divisions, cfg.LogScale, &t)
	return sel.quantization(cfg.Divisions, &t), e, nil
}

// selection is the part of a quantization that does not depend on the
// division number: which values are quantized (bitmap), the rest (pass), and
// the quantized ones packed dense in input order (vals) with their exact
// [lo, hi] range, so that a pass at some n walks a dense slice instead of
// re-deciding the selection. sc is the memory all of it lives in, and where
// such a pass leaves its codes.
type selection struct {
	lo, hi  float64
	nSel    int
	nSpiked int
	vals    []float64
	pass    []float64
	bitmap  *bitpack.Bitmap
	sc      *Scratch
	lent    bool // sc is the package pool's, not the caller's
}

// selectPool decides every value once. Simple is Proposed over a histogram
// of one partition, which holds every finite value and so is spiked.
func selectPool(values []float64, method Method, d int, sc *Scratch) selection {
	sel := selectAll(values)
	if sel.sc, sel.lent = sc, sc == nil; sel.lent {
		sel.sc = GetScratch()
		sc = sel.sc
	}
	sc.words = sized(sc.words, (len(values)+63)/64)
	if method == Simple {
		d = 1
	}
	if sel.nSel > 0 && (method == Proposed || sel.nSel < len(values)) {
		nSpiked := sel.histogram(values, d)
		if method == Proposed {
			sel.nSpiked = nSpiked
		}
	}
	switch sel.nSel {
	case 0: // nothing finite: the passthrough is the input
		clear(sc.words)
		sel.pass = values
	case len(values): // everything is selected: the pool is the input, with selectAll's range
		for i := range sc.words {
			sc.words[i] = ^uint64(0)
		}
		sel.vals = values
	default:
		sel.split(values)
	}
	sel.bitmap = bitpack.FromWords(len(values), sc.words)
	sc.codes = sized(sc.codes, sel.nSel)
	return sel
}

// selectAll counts the finite values and finds their range. A NaN fails both
// comparisons by itself and an infinity is turned away after passing one, so
// the finiteness test runs only when an extreme is about to move; the count
// comes from the exponent bits, all ones in a non-finite value alone.
func selectAll(values []float64) selection {
	lo, hi := math.Inf(1), math.Inf(-1)
	nonFinite := 0
	for _, v := range values {
		if v < lo && isFinite(v) {
			lo = v
		}
		if v > hi && isFinite(v) {
			hi = v
		}
		nonFinite += int((math.Float64bits(v)>>52&0x7ff + 1) >> 11)
	}
	return selection{lo: lo, hi: hi, nSel: len(values) - nonFinite}
}

// isFinite: v−v is 0 for every finite v and NaN for NaN and ±Inf.
func isFinite(v float64) bool { return v-v == 0 }

// histogram is the spike detection of paper Eq. 4 over the finite values,
// whose range and count s holds on entry: d equal-width partitions of
// [lo, hi], spiked where Ndiv[i] ≥ Ntotal/d. It leaves in sc.bins each
// value's partition (d for a non-finite value) and in sc.spiked, per
// partition, 1 where selected (never the d-th), sets s.nSel to the number of
// values selected and returns the number of spiked partitions. Detection stays
// linear, matching the paper's Fig. 4.
func (s *selection) histogram(values []float64, d int) (nSpiked int) {
	sc := s.sc
	sc.bins, sc.counts, sc.spiked = sized(sc.bins, len(values)), sized(sc.counts, d+1), sized(sc.spiked, d+1)
	bins, counts, spiked := sc.bins, sc.counts, sc.spiked
	clear(counts)
	clear(spiked)
	part := makePartitioner(s.lo, s.hi, d, false)
	for i, v := range values {
		b := d
		if isFinite(v) {
			b = part.index(v)
		}
		bins[i] = uint16(b)
		counts[b]++
	}
	total := s.nSel
	s.nSel = 0
	// Ndiv[i] ≥ Ntotal/d, computed without integer truncation:
	// d*Ndiv[i] ≥ Ntotal.
	for i, c := range counts[:d] {
		if c > 0 && c*d >= total {
			spiked[i] = 1
			nSpiked++
			s.nSel += c
		}
	}
	return nSpiked
}

// split reads each value's fate off its cached partition and writes it where
// it ends up: the value to the dense pool or to the passthrough, and a bit
// to the bitmap, 64 values to a word. The selected range is then that of the
// dense pool.
func (s *selection) split(values []float64) {
	sc, nPass := s.sc, len(values)-s.nSel
	// A slot of slack each: splitWord stores to both cursors and advances one.
	sc.pool, sc.pass = sized(sc.pool, s.nSel+1), sized(sc.pass, nPass+1)
	pc := 0 // values selected so far
	for w := range sc.words {
		lo, hi := w*64, min(w*64+64, len(values))
		sc.words[w] = splitWord(values[lo:hi], sc.bins[lo:hi], sc.spiked, sc.pool[pc:], sc.pass[lo-pc:])
		pc += bits.OnesCount64(sc.words[w])
	}
	s.vals, s.pass = sc.pool[:s.nSel], sc.pass[:nPass]
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range s.vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	s.lo, s.hi = lo, hi
}

// splitWord splits up to 64 values whose partitions are bins: value j goes to
// the front of pool if spiked[bins[j]] is 1 and to the front of pass if 0, in
// order, and bit j of the word returned says which. It is its own function so
// that the loop's cursors and the word stay in registers.
//
//go:noinline
func splitWord(values []float64, bins []uint16, spiked []uint8, pool, pass []float64) (word uint64) {
	pc := 0
	bins = bins[:len(values)]
	for j, v := range values {
		k := uint64(spiked[bins[j]])
		word |= k << (j & 63)
		pool[pc], pass[j-pc] = v, v
		pc += int(k)
	}
	return word
}

// tally is what a pass at n divisions collects per partition: sum (then
// mean), count, minimum and maximum. It lives on the caller's stack.
type tally struct {
	sums, mins, maxs [MaxDivisions]float64
	counts           [MaxDivisions]int
}

// evaluate partitions the pool into n divisions in one allocation-free
// pass: sc.codes[i] is the code of vals[i], t.sums[:n] the means (zero where
// empty). It returns the largest |v − mean| as finish does.
func (s *selection) evaluate(n int, logScale bool, t *tally) float64 {
	s.partition(n, logScale, t)
	return t.finish(n)
}

// partition is the only place a value's code is computed: it writes
// sc.codes and leaves in t each partition's in-order sum, count, minimum
// and maximum.
func (s *selection) partition(n int, logScale bool, t *tally) {
	part := makePartitioner(s.lo, s.hi, n, logScale)
	codes := s.sc.codes
	for i := 0; i < n; i++ {
		t.sums[i], t.counts[i], t.mins[i], t.maxs[i] = 0, 0, math.Inf(1), math.Inf(-1)
	}
	for i, v := range s.vals {
		pi := part.index(part.warp(v))
		codes[i] = uint8(pi)
		t.sums[pi] += v
		t.counts[pi]++
		if v < t.mins[pi] {
			t.mins[pi] = v
		}
		if v > t.maxs[pi] {
			t.maxs[pi] = v
		}
	}
}

// finish turns the sums of t's n partitions into means and returns the
// largest |v − mean|: v − mean is monotone in v, so within a partition it
// peaks at the minimum or the maximum, and with in-order sums the result
// equals MaxQuantizationError of the quantization bit for bit.
func (t *tally) finish(n int) (maxErr float64) {
	for i := 0; i < n; i++ {
		if t.counts[i] == 0 {
			continue
		}
		t.sums[i] /= float64(t.counts[i])
		for _, v := range [2]float64{t.mins[i], t.maxs[i]} {
			if e := math.Abs(v - t.sums[i]); e > maxErr { // a NaN mean counts for nothing, as in the scan
				maxErr = e
			}
		}
	}
	return maxErr
}

// quantization materialises what the last evaluate(n, …, t) found. In a
// Scratch the caller gave, the result is part of it. In a lent one, the result
// takes the buffers it is made of with it and the rest — the partition indexes
// and the dense pool, most of the memory — goes back for the next call.
func (s *selection) quantization(n int, t *tally) *Quantization {
	sc := s.sc
	avgs := sc.avgs[:n:n]
	copy(avgs, t.sums[:n])
	sc.q = Quantization{
		Averages:        avgs,
		Codes:           sc.codes,
		Bitmap:          s.bitmap,
		Passthrough:     s.pass,
		NumQuantized:    s.nSel,
		SpikePartitions: s.nSpiked,
	}
	if !s.lent {
		return &sc.q
	}
	q := sc.q
	q.Averages = slices.Clone(avgs)
	sc.words, sc.pass, sc.codes, sc.q = nil, nil, nil, Quantization{}
	sc.Put()
	return &q
}

// partitioner maps a value in [lo,hi] to one of n partitions — equal-width
// in linear space (the paper's scheme) or in symmetric-log (asinh) space.
type partitioner struct {
	lo, width float64 // warped lower bound and range, scaled by pre (+Inf when lo == hi)
	pre       float64 // 1, or 2⁻¹⁷ where n·(hi − lo) would overflow
	n         int
	fn        float64 // float64(n)
	log       bool
	scale     float64
}

// makePartitioner scales a pool whose n·(hi − lo) overflows by 2⁻¹⁷, so that
// no quotient is ±Inf or NaN, whose conversion to int Go leaves to the
// platform. Such a pool holds a value near the float limit, scaled exactly,
// and what a tiny value loses in scaling is far below that value's rounding:
// every index is the one the same pool scaled into range gets. Other pools
// are scaled by 1, their indexes the paper's quotient as they always were.
func makePartitioner(lo, hi float64, n int, logScale bool) partitioner {
	p := partitioner{pre: 1, n: n, fn: float64(n), log: logScale}
	if logScale {
		p.scale = math.Max(math.Abs(lo), math.Abs(hi)) / 1e4
		if p.scale == 0 || math.IsNaN(p.scale) || math.IsInf(p.scale, 0) {
			p.scale = 1
		}
	}
	p.lo, hi = p.warp(lo), p.warp(hi)
	if !isFinite(p.fn * (hi - p.lo)) {
		p.pre = 0x1p-17 // MaxSpikeDivisions · 2·MaxFloat64 · 2⁻¹⁷ < MaxFloat64
		p.lo, hi = p.lo*p.pre, hi*p.pre
	}
	if p.width = hi - p.lo; p.width == 0 { // every quotient is 0/Inf = 0
		p.width = math.Inf(1)
	}
	return p
}

// warp maps a raw value into partitioning space.
func (p *partitioner) warp(v float64) float64 {
	if !p.log {
		return v
	}
	return math.Asinh(v / p.scale)
}

// index maps a warped value to its partition. It and warp are each small
// enough to inline into the per-value passes; together they are not.
func (p *partitioner) index(w float64) int {
	if q := p.fn * (w*p.pre - p.lo) / p.width; q < p.fn { // q ≥ 0: w ≥ lo
		return int(q)
	}
	return p.n - 1 // v == hi lands here
}

// PassthroughAll returns the quantization that selects nothing: every one
// of the n values is carried verbatim by the passthrough stream and the
// code stream is empty, so the quantization error is exactly zero. It is
// what core.Options.LosslessBands feeds the encoder — the container
// framing is unchanged while the band carries no quantization loss.
func PassthroughAll(n int) *Quantization {
	return &Quantization{
		Averages: []float64{},
		Codes:    []uint8{},
		Bitmap:   bitpack.New(n),
	}
}

// --- Error-bound extension (paper §IV-C future work) --------------------

// MaxQuantizationError returns the largest absolute error the quantization
// introduces over the given values: max |v − Averages[code(v)]| over
// quantized values. Passthrough values contribute zero.
func MaxQuantizationError(values []float64, q *Quantization) (float64, error) {
	if len(values) != q.Bitmap.Len() {
		return 0, fmt.Errorf("quant: %d values, bitmap has %d", len(values), q.Bitmap.Len())
	}
	maxErr := 0.0
	ci := 0
	for w, word := range q.Bitmap.Words() {
		chunk := values[w*64:]
		for ; word != 0; word &= word - 1 {
			e := math.Abs(chunk[bits.TrailingZeros64(word)] - q.Averages[q.Codes[ci]])
			ci++
			if e > maxErr {
				maxErr = e
			}
		}
	}
	return maxErr, nil
}

// ChooseDivisions implements the paper's proposed future capability of
// "controlling the errors by specifying a value": it returns the first of
// n = 1, 2, 4, …, 128, MaxDivisions whose quantization keeps the maximum
// absolute error ≤ bound, with that quantization. The guarantee is the
// error, not minimality: the max error is only approximately monotone in n
// (partition means shift as partitions split). n = 1 is exact for empty,
// all-non-finite and constant pools; a zero bound is met at the cap or not
// at all, so only 1 and the cap are tried. If even the cap exceeds the
// bound it is returned with its quantization and ErrBoundUnreachable.
//
// The walk is not a pass per candidate: n = 1 is an in-order sum, n = 2…128
// are judged off one pass at 128 partitions (nested) and a cheaper one over
// the codes of the n shipped, and the cap, which does not nest, is a pass of
// its own; n, error and quantization are the walk's, bit for bit.
func ChooseDivisions(values []float64, bound float64, method Method, spikeDivisions int) (int, *Quantization, error) {
	n, q, _, err := ChooseDivisionsMeasured(values, bound, method, spikeDivisions, nil)
	return n, q, err
}

// ChooseDivisionsMeasured is ChooseDivisions that also returns the error of
// the quantization it chose; sc is as in QuantizeMeasured.
func ChooseDivisionsMeasured(values []float64, bound float64, method Method, spikeDivisions int, sc *Scratch) (int, *Quantization, float64, error) {
	if bound < 0 || math.IsNaN(bound) {
		return 0, nil, 0, fmt.Errorf("%w: error bound %g", ErrConfig, bound)
	}
	cfg, err := Config{Method: method, Divisions: 1, SpikeDivisions: spikeDivisions}.validate()
	if err != nil {
		return 0, nil, 0, err
	}
	sel := selectPool(values, cfg.Method, cfg.SpikeDivisions, sc)
	var t tally
	nests := bound > 0 && sel.nests()
	n, e := 1, math.Inf(1)
	if !nests || (sel.hi-sel.lo)/4 <= bound { // else n = 1 is over: its error is at least half the range
		e = sel.single(&t)
	}
	if e > bound && nests {
		n, e = sel.nested(bound, &t)
	}
	for e > bound && n < MaxDivisions {
		if n *= 2; n > 128 || bound == 0 { // doubling again would overshoot the cap
			n = MaxDivisions
		}
		e = sel.evaluate(n, false, &t)
	}
	if e > bound {
		err = ErrBoundUnreachable
	}
	return n, sel.quantization(n, &t), e, err
}

// single is evaluate at one division, which partitions nothing: every code
// is 0 and the partition is the pool, its extremes the pool's range.
func (s *selection) single(t *tally) float64 {
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	clear(s.sc.codes)
	t.sums[0], t.counts[0], t.mins[0], t.maxs[0] = sum, len(s.vals), s.lo, s.hi
	return t.finish(1)
}

// nests reports whether nested applies: 128·(hi − lo) is finite, so n·(v − lo)
// is an exact scaling of v − lo and the correctly rounded quotient scales with
// it (one too small to scale exactly indexes 0 at every n), and no sum of the
// pool overflows in any order.
func (s *selection) nests() bool {
	return isFinite(128*(s.hi-s.lo)) && isFinite(2*float64(len(s.vals))*math.Max(-s.lo, s.hi))
}

// nested walks n = 2, 4, …, 128 off one pass at 128 partitions. A value's
// partition at n = 128>>shift is its partition at 128 shifted right by shift,
// so merging runs of the 128 gives a candidate's exact counts and extremes.
// The merged sums add the walk's values in another order, which for c values
// within ±m moves the error by under (2c + 8)·2⁻⁵³·m: a candidate whose merged
// error exceeds the bound by twice that is over it, and any other is decided
// on in-order sums over the shifted codes. It returns the first n within the
// bound, or 128 and its error, leaving the codes and t evaluate(n) would.
func (s *selection) nested(bound float64, t *tally) (n int, e float64) {
	m, c := math.Max(-s.lo, s.hi), float64(len(s.vals)) // m = max(|lo|, |hi|)
	margin := (4*c+16)*0x1p-53*m + 0x1p-1070
	var fine tally
	s.partition(128, false, &fine)
	codes := s.sc.codes
	for shift := 6; ; shift-- {
		n = 128 >> shift
		fine.merge(shift, t)
		if e = t.finish(n); shift == 0 { // 128 itself: its sums are in order
			return n, e
		}
		if e-margin > bound {
			continue
		}
		clear(t.sums[:n])
		for i, v := range s.vals {
			t.sums[codes[i]>>shift] += v
		}
		if e = t.finish(n); e <= bound {
			for i, code := range codes {
				codes[i] = code >> shift
			}
			return n, e
		}
	}
}

// merge leaves in m the partitions of t taken 1<<shift at a time, in order.
func (t *tally) merge(shift int, m *tally) {
	for j := range 128 >> shift {
		m.sums[j], m.counts[j], m.mins[j], m.maxs[j] = 0, 0, math.Inf(1), math.Inf(-1)
		for i := j << shift; i < (j+1)<<shift; i++ {
			m.sums[j] += t.sums[i]
			m.counts[j] += t.counts[i]
			m.mins[j] = min(m.mins[j], t.mins[i])
			m.maxs[j] = max(m.maxs[j], t.maxs[i])
		}
	}
}

// ErrBoundUnreachable reports that no division number within MaxDivisions
// meets the requested error bound.
var ErrBoundUnreachable = errors.New("quant: error bound unreachable within division limit")
