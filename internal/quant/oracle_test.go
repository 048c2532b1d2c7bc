package quant

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"lossyckpt/internal/bitpack"
)

// The quantizer as it stood before the split pass, kept as the oracle: it
// decides every value by re-deriving its partition, marks a []bool mask and
// scans for the passthrough. It shares the partitioner's arithmetic with the
// quantizer (that is what must not move) and nothing else: not isFinite, not
// the cached partition indexes, not the bitmap words, not the pooled scratch.

// refQuantization is the old Quantization.
type refQuantization struct {
	Averages        []float64
	Codes           []uint8
	Mask            []bool
	NumQuantized    int
	SpikePartitions int
}

// passthrough is the scan the encoder used to make.
func (q *refQuantization) passthrough(values []float64) []float64 {
	out := []float64{}
	for i, v := range values {
		if !q.Mask[i] {
			out = append(out, v)
		}
	}
	return out
}

func refFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// refSelection is which values are quantized and their exact range.
type refSelection struct {
	selector func(float64) bool
	lo, hi   float64
	nSel     int
	nSpiked  int
}

// refSelectAll selects every finite value, computing the range in the pass.
func refSelectAll(values []float64) refSelection {
	lo, hi := math.Inf(1), math.Inf(-1)
	n := 0
	for _, v := range values {
		if !refFinite(v) {
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
	return refSelection{selector: func(float64) bool { return true }, lo: lo, hi: hi, nSel: n}
}

// refSpikeSelect histograms the finite values into d partitions and selects
// those in spiked ones, tracking each partition's extrema in the same pass.
func refSpikeSelect(values []float64, d int, all refSelection) refSelection {
	part := makePartitioner(all.lo, all.hi, d, false)
	counts := make([]int, d)
	pmin := make([]float64, d)
	pmax := make([]float64, d)
	for i := range pmin {
		pmin[i] = math.Inf(1)
		pmax[i] = math.Inf(-1)
	}
	for _, v := range values {
		if !refFinite(v) {
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
	sel := refSelection{lo: math.Inf(1), hi: math.Inf(-1)}
	for i, c := range counts {
		if c > 0 && c*d >= all.nSel {
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

// refQuantize is Quantize as it stood before the pool was compacted: the
// selection passes followed by one fused pass through the selector.
func refQuantize(values []float64, cfg Config) (*refQuantization, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	q := &refQuantization{
		Averages: make([]float64, cfg.Divisions),
		Mask:     make([]bool, len(values)),
		Codes:    []uint8{},
	}
	sel := refSelectAll(values)
	if cfg.Method == Proposed && sel.nSel > 0 {
		sel = refSpikeSelect(values, cfg.SpikeDivisions, sel)
		q.SpikePartitions = sel.nSpiked
	}
	if sel.nSel == 0 {
		return q, nil
	}
	part := makePartitioner(sel.lo, sel.hi, cfg.Divisions, cfg.LogScale)
	sums := make([]float64, cfg.Divisions)
	counts := make([]int, cfg.Divisions)
	for i, v := range values {
		if !refFinite(v) || !sel.selector(v) {
			continue
		}
		pi := part.index(part.warp(v))
		sums[pi] += v
		counts[pi]++
		q.Mask[i] = true
		q.Codes = append(q.Codes, uint8(pi))
	}
	for i := range sums {
		if counts[i] > 0 {
			q.Averages[i] = sums[i] / float64(counts[i])
		}
	}
	q.NumQuantized = len(q.Codes)
	return q, nil
}

// refMaxError is MaxQuantizationError as a scan of the mask.
func refMaxError(values []float64, q *refQuantization) float64 {
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
	return maxErr
}

// refChooseDivisions is ChooseDivisions as it stood before candidates were
// evaluated on the pool: a full quantization and an error scan per
// candidate, the downward "refinement" that always stopped at its first
// try included.
func refChooseDivisions(values []float64, bound float64, method Method, spikeDivisions int) (int, *refQuantization, error) {
	if bound < 0 || math.IsNaN(bound) {
		return 0, nil, fmt.Errorf("%w: error bound %g", ErrConfig, bound)
	}
	try := func(n int) (*refQuantization, float64, error) {
		q, err := refQuantize(values, Config{Method: method, Divisions: n, SpikeDivisions: spikeDivisions})
		if err != nil {
			return nil, 0, err
		}
		return q, refMaxError(values, q), nil
	}
	q1, e1, err := try(1)
	if err != nil {
		return 0, nil, err
	}
	if e1 <= bound {
		return 1, q1, nil
	}
	if bound == 0 {
		qc, ec, err := try(MaxDivisions)
		if err != nil {
			return 0, nil, err
		}
		if ec == 0 {
			return MaxDivisions, qc, nil
		}
		return MaxDivisions, qc, ErrBoundUnreachable
	}
	var best *refQuantization
	for n := 2; n <= MaxDivisions; n *= 2 {
		q, e, err := try(n)
		if err != nil {
			return 0, nil, err
		}
		best = q
		if e <= bound {
			for m := n / 2; m > 0; m-- {
				qm, em, err := try(m)
				if err != nil {
					return 0, nil, err
				}
				if em <= bound {
					best = qm
					continue
				}
				break
			}
			return len(best.Averages), best, nil
		}
		if n == 128 {
			q, e, err := try(MaxDivisions)
			if err != nil {
				return 0, nil, err
			}
			if e <= bound {
				return MaxDivisions, q, nil
			}
			return MaxDivisions, q, ErrBoundUnreachable
		}
	}
	return len(best.Averages), best, nil
}

// sameBits reports whether two float slices hold the same bit patterns (the
// pools hold NaNs and signed zeros).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// diffQuantization names the first field in which got departs from the
// oracle's want over values — averages, codes, bitmap words, passthrough,
// counts, bit for bit — or returns "".
func diffQuantization(values []float64, got *Quantization, want *refQuantization) string {
	switch {
	case !sameBits(got.Averages, want.Averages):
		return fmt.Sprintf("averages %v, want %v", got.Averages, want.Averages)
	case string(got.Codes) != string(want.Codes):
		return "codes differ"
	case got.NumQuantized != want.NumQuantized:
		return fmt.Sprintf("NumQuantized %d, want %d", got.NumQuantized, want.NumQuantized)
	case got.SpikePartitions != want.SpikePartitions:
		return fmt.Sprintf("SpikePartitions %d, want %d", got.SpikePartitions, want.SpikePartitions)
	case got.Bitmap.Len() != len(values):
		return fmt.Sprintf("bitmap of %d bits over %d values", got.Bitmap.Len(), len(values))
	case !sameBits(got.Passthrough, want.passthrough(values)):
		return "passthrough differs"
	}
	mask := bitpack.New(len(values))
	for i, m := range want.Mask {
		mask.Set(i, m)
	}
	for i, w := range mask.Words() {
		if got.Bitmap.Words()[i] != w {
			return fmt.Sprintf("bitmap word %d = %#x, want %#x", i, got.Bitmap.Words()[i], w)
		}
	}
	return ""
}

// Mask unpacks a quantization's bitmap, for the tests that index it.
func (q *Quantization) Mask() []bool {
	out := make([]bool, q.Bitmap.Len())
	for i := range out {
		out[i] = q.Bitmap.Get(i)
	}
	return out
}

// ErrCodes is what Dequantize reports for streams that do not add up.
var ErrCodes = errors.New("quant: corrupt code stream")

// Dequantize reconstructs the value stream from a quantization: quantized
// positions are filled from averages[codes], passthrough positions from the
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

// Apply quantizes and immediately reconstructs, returning the lossy version
// of values.
func Apply(values []float64, cfg Config) ([]float64, *Quantization, error) {
	q, err := Quantize(values, cfg)
	if err != nil {
		return nil, nil, err
	}
	out, err := Dequantize(q.Mask(), q.Codes, q.Averages, q.Passthrough, make([]float64, 0, len(values)))
	if err != nil {
		return nil, nil, err
	}
	return out, q, nil
}

// mustQuantize is Quantize for inputs that cannot fail.
func mustQuantize(t testing.TB, values []float64, cfg Config) *Quantization {
	t.Helper()
	q, err := Quantize(values, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
