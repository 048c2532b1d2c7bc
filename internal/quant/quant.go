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
// Cost: selecting the pool is two passes over the input (range, spike
// histogram) and one that compacts the selected values; each division
// number tried after that is one allocation-free pass over the compacted
// pool. ChooseDivisions tries at most nine and builds mask, codes and table
// for the winner only. Every pass is O(len(values)), preserving the paper's
// O(n) overall complexity claim (§III).
package quant

import (
	"errors"
	"fmt"
	"math"
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

// Errors returned by this package.
var (
	ErrConfig = errors.New("quant: invalid configuration")
	ErrCodes  = errors.New("quant: corrupt code stream")
)

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
	if c.SpikeDivisions < 1 {
		return c, fmt.Errorf("%w: spike divisions %d", ErrConfig, c.SpikeDivisions)
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
	// Mask has one entry per input value: true when the value was replaced
	// by a code, false when it passes through losslessly.
	Mask []bool
	// NumQuantized is the number of true entries in Mask (== len(Codes)).
	NumQuantized int
	// SpikePartitions is the number of histogram partitions selected as
	// spiked (Proposed only; equals SpikeDivisions' selected count).
	SpikePartitions int
}

// Passthrough appends the values that were not quantized (in input order)
// to dst and returns it. These must be stored verbatim by the encoder.
func (q *Quantization) Passthrough(values []float64, dst []float64) ([]float64, error) {
	if len(values) != len(q.Mask) {
		return nil, fmt.Errorf("quant: passthrough over %d values, mask has %d", len(values), len(q.Mask))
	}
	for i, v := range values {
		if !q.Mask[i] {
			dst = append(dst, v)
		}
	}
	return dst, nil
}

// Quantize analyzes values (the pooled high-frequency coefficients of one
// array) and returns the quantization mapping. The input slice is not
// modified.
func Quantize(values []float64, cfg Config) (*Quantization, error) {
	q, _, err := QuantizeMeasured(values, cfg, nil)
	return q, err
}

// QuantizeMeasured is Quantize that also returns MaxQuantizationError of
// the result, without the scan. scratch, when large enough, holds the
// compacted pool during the call; it must not overlap values.
func QuantizeMeasured(values []float64, cfg Config, scratch []float64) (*Quantization, float64, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return nil, 0, err
	}
	sel := selectPool(values, cfg.Method, cfg.SpikeDivisions, scratch)
	var t tally
	codes := make([]uint8, len(sel.vals))
	e := sel.evaluate(cfg.Divisions, cfg.LogScale, &t, codes)
	return sel.quantization(cfg.Divisions, &t, codes), e, nil
}

// selectPool is the part of a quantization that does not depend on the
// division number: which values are selected, their range, the mask, and
// the selected values compacted in input order, so that a pass at some n
// walks a dense slice instead of re-deciding the selection.
func selectPool(values []float64, method Method, spikeDivisions int, scratch []float64) selection {
	sel := selectAll(values)
	if method == Proposed && sel.nSel > 0 {
		sel = spikeSelect(values, spikeDivisions, sel)
	}
	sel.mask = make([]bool, len(values))
	if sel.nSel == len(values) { // everything is selected: the pool is the input
		sel.vals = values
		for i := range sel.mask {
			sel.mask[i] = true
		}
		return sel
	}
	if cap(scratch) < sel.nSel {
		scratch = make([]float64, 0, sel.nSel)
	}
	sel.vals = scratch[:0]
	for i, v := range values {
		if isFinite(v) && sel.selector(v) {
			sel.mask[i] = true
			sel.vals = append(sel.vals, v)
		}
	}
	return sel
}

// tally is what a pass at n divisions collects per partition: sum (then
// mean), count, minimum and maximum. It lives on the caller's stack.
type tally struct {
	sums, mins, maxs [MaxDivisions]float64
	counts           [MaxDivisions]int
}

// evaluate partitions the pool into n divisions in one allocation-free
// pass, the only place a value's code and a partition's mean are computed:
// codes[i] is the code of vals[i], t.sums[:n] the means (zero where empty).
// It returns the largest |v − mean|: v − mean is monotone in v, so within a
// partition it peaks at the minimum or the maximum, and the result equals
// MaxQuantizationError of the quantization bit for bit.
func (s *selection) evaluate(n int, logScale bool, t *tally, codes []uint8) (maxErr float64) {
	part := makePartitioner(s.lo, s.hi, n, logScale)
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

// quantization materialises what the last evaluate(n, …, t, codes) found.
func (s *selection) quantization(n int, t *tally, codes []uint8) *Quantization {
	return &Quantization{
		Averages:        append(make([]float64, 0, n), t.sums[:n]...),
		Codes:           codes,
		Mask:            s.mask,
		NumQuantized:    len(codes),
		SpikePartitions: s.nSpiked,
	}
}

// selection is the outcome of the pool-selection stage: which values are
// quantized, how many there are, and their exact [lo, hi] range; selectPool
// adds the mask and the compacted values.
type selection struct {
	selector func(float64) bool
	lo, hi   float64
	nSel     int
	nSpiked  int
	vals     []float64
	mask     []bool
}

// selectAll selects every finite value (the Simple method), computing the
// range in the same pass.
func selectAll(values []float64) selection {
	lo, hi := math.Inf(1), math.Inf(-1)
	n := 0
	for _, v := range values {
		if !isFinite(v) {
			continue
		}
		n++
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return selection{selector: func(float64) bool { return true }, lo: lo, hi: hi, nSel: n}
}

// Dequantize reconstructs the value stream from a quantization: quantized
// positions are filled from Averages[Codes], passthrough positions from the
// passthrough slice, both consumed in order. The result has len(mask)
// elements and is appended to dst.
func Dequantize(mask []bool, codes []uint8, averages, passthrough []float64, dst []float64) ([]float64, error) {
	nq := 0
	for _, m := range mask {
		if m {
			nq++
		}
	}
	if nq != len(codes) {
		return nil, fmt.Errorf("%w: mask marks %d quantized values, have %d codes", ErrCodes, nq, len(codes))
	}
	if len(mask)-nq != len(passthrough) {
		return nil, fmt.Errorf("%w: mask leaves %d passthrough values, have %d", ErrCodes, len(mask)-nq, len(passthrough))
	}
	ci, pi := 0, 0
	for _, m := range mask {
		if m {
			c := codes[ci]
			ci++
			if int(c) >= len(averages) {
				return nil, fmt.Errorf("%w: code %d out of range (%d averages)", ErrCodes, c, len(averages))
			}
			dst = append(dst, averages[c])
		} else {
			dst = append(dst, passthrough[pi])
			pi++
		}
	}
	return dst, nil
}

// Apply is a convenience that quantizes and immediately reconstructs,
// returning the lossy version of values. It is what the compressor's error
// analysis uses.
func Apply(values []float64, cfg Config) ([]float64, *Quantization, error) {
	q, err := Quantize(values, cfg)
	if err != nil {
		return nil, nil, err
	}
	pass, err := q.Passthrough(values, nil)
	if err != nil {
		return nil, nil, err
	}
	out, err := Dequantize(q.Mask, q.Codes, q.Averages, pass, make([]float64, 0, len(values)))
	if err != nil {
		return nil, nil, err
	}
	return out, q, nil
}

// partitioner maps a value in [lo,hi] to one of n partitions — equal-width
// in linear space (the paper's scheme) or in symmetric-log (asinh) space.
type partitioner struct {
	lo, width float64 // warped lower bound and range (0 when lo == hi)
	n         int
	fn        float64 // float64(n)
	log       bool
	scale     float64
}

func makePartitioner(lo, hi float64, n int, logScale bool) partitioner {
	p := partitioner{n: n, fn: float64(n), log: logScale}
	if logScale {
		p.scale = math.Max(math.Abs(lo), math.Abs(hi)) / 1e4
		if p.scale == 0 || math.IsNaN(p.scale) || math.IsInf(p.scale, 0) {
			p.scale = 1
		}
	}
	p.lo = p.warp(lo)
	if hi := p.warp(hi); hi != p.lo {
		p.width = hi - p.lo
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
	if p.width == 0 {
		return 0
	}
	i := int(p.fn * (w - p.lo) / p.width)
	if i < 0 {
		i = 0
	}
	if i >= p.n {
		i = p.n - 1 // v == hi lands here
	}
	return i
}

// spikeSelect histograms the finite values into d partitions and selects
// the values that fall into spiked partitions (Ndiv[i] ≥ Ntotal/d, paper
// Eq. 4). The histogram pass also tracks each partition's min/max, so the
// selected pool's range comes out of the same scan instead of a third pass
// over the data. all is selectAll(values) and holds at least one value.
func spikeSelect(values []float64, d int, all selection) selection {
	total := all.nSel
	// Spike detection stays linear, matching the paper's Fig. 4. The
	// per-partition extrema ride along in the same pass.
	part := makePartitioner(all.lo, all.hi, d, false)
	counts := make([]int, d)
	pmin := make([]float64, d)
	pmax := make([]float64, d)
	for i := range pmin {
		pmin[i] = math.Inf(1)
		pmax[i] = math.Inf(-1)
	}
	for _, v := range values {
		if !isFinite(v) {
			continue
		}
		i := part.index(v)
		counts[i]++
		if v < pmin[i] {
			pmin[i] = v
		}
		if v > pmax[i] {
			pmax[i] = v
		}
	}
	spiked := make([]bool, d)
	sel := selection{lo: math.Inf(1), hi: math.Inf(-1)}
	// Ndiv[i] ≥ Ntotal/d, computed without integer truncation:
	// d*Ndiv[i] ≥ Ntotal.
	for i, c := range counts {
		if c > 0 && c*d >= total {
			spiked[i] = true
			sel.nSpiked++
			sel.nSel += c
			if pmin[i] < sel.lo {
				sel.lo = pmin[i]
			}
			if pmax[i] > sel.hi {
				sel.hi = pmax[i]
			}
		}
	}
	sel.selector = func(v float64) bool { return spiked[part.index(v)] }
	return sel
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// PassthroughAll returns the quantization that selects nothing: every one
// of the n values is carried verbatim by the passthrough stream and the
// code stream is empty, so the quantization error is exactly zero. It is
// what core.Options.LosslessBands feeds the encoder — the container
// framing is unchanged while the band carries no quantization loss.
func PassthroughAll(n int) *Quantization {
	return &Quantization{
		Averages: []float64{},
		Codes:    []uint8{},
		Mask:     make([]bool, n),
	}
}

// --- Error-bound extension (paper §IV-C future work) --------------------

// MaxQuantizationError returns the largest absolute error the quantization
// introduces over the given values: max |v − Averages[code(v)]| over
// quantized values. Passthrough values contribute zero.
func MaxQuantizationError(values []float64, q *Quantization) (float64, error) {
	if len(values) != len(q.Mask) {
		return 0, fmt.Errorf("quant: %d values, mask has %d", len(values), len(q.Mask))
	}
	maxErr := 0.0
	ci := 0
	for i, v := range values {
		if !q.Mask[i] {
			continue
		}
		e := math.Abs(v - q.Averages[q.Codes[ci]])
		ci++
		if e > maxErr {
			maxErr = e
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
func ChooseDivisions(values []float64, bound float64, method Method, spikeDivisions int) (int, *Quantization, error) {
	n, q, _, err := ChooseDivisionsMeasured(values, bound, method, spikeDivisions, nil)
	return n, q, err
}

// ChooseDivisionsMeasured is ChooseDivisions that also returns the error of
// the quantization it chose; scratch is as in QuantizeMeasured.
func ChooseDivisionsMeasured(values []float64, bound float64, method Method, spikeDivisions int, scratch []float64) (int, *Quantization, float64, error) {
	if bound < 0 || math.IsNaN(bound) {
		return 0, nil, 0, fmt.Errorf("%w: error bound %g", ErrConfig, bound)
	}
	cfg, err := Config{Method: method, Divisions: 1, SpikeDivisions: spikeDivisions}.validate()
	if err != nil {
		return 0, nil, 0, err
	}
	sel := selectPool(values, cfg.Method, cfg.SpikeDivisions, scratch)
	var t tally
	codes := make([]uint8, len(sel.vals))
	for n := 1; ; n *= 2 {
		if n > 128 || (bound == 0 && n > 1) { // doubling again would overshoot the cap
			n = MaxDivisions
		}
		e := sel.evaluate(n, false, &t, codes)
		if e > bound && n == MaxDivisions {
			err = ErrBoundUnreachable
		}
		if e <= bound || n == MaxDivisions {
			return n, sel.quantization(n, &t, codes), e, err
		}
	}
}

// ErrBoundUnreachable reports that no division number within MaxDivisions
// meets the requested error bound.
var ErrBoundUnreachable = errors.New("quant: error bound unreachable within division limit")
