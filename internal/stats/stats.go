// Package stats implements the evaluation metrics of Sasaki et al.
// (IPDPS 2015, §IV-A): the compression rate (Eq. 5), the range-normalized
// relative error (Eq. 6) and its average/maximum aggregates, plus the
// random-walk error-growth analysis used to interpret Fig. 10 (§IV-E).
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrInput indicates mismatched or empty inputs.
var ErrInput = errors.New("stats: invalid input")

// CompressionRate returns the paper's cr = cs_comp / cs_orig × 100 (Eq. 5),
// in percent. Lower is better.
func CompressionRate(compressedBytes, originalBytes int) float64 {
	if originalBytes <= 0 {
		return math.NaN()
	}
	return 100 * float64(compressedBytes) / float64(originalBytes)
}

// RelativeErrors computes re_i = |x_i − x̃_i| / (max_j x_j − min_j x_j)
// (Eq. 6) for every element, appending to dst. The normalizing range is
// taken from the original data; if it is zero (constant array), absolute
// errors are returned instead (documented deviation: Eq. 6 is undefined
// there, and a constant array either reconstructs exactly, giving zeros
// either way, or any error is best reported un-normalized).
func RelativeErrors(orig, approx []float64, dst []float64) ([]float64, error) {
	if len(orig) != len(approx) {
		return nil, fmt.Errorf("%w: %d original vs %d approximate values", ErrInput, len(orig), len(approx))
	}
	if len(orig) == 0 {
		return nil, fmt.Errorf("%w: empty", ErrInput)
	}
	rng := Range(orig)
	for i := range orig {
		d := math.Abs(orig[i] - approx[i])
		if math.IsNaN(orig[i]) && math.IsNaN(approx[i]) {
			d = 0
		}
		dst = append(dst, d/rng)
	}
	return dst, nil
}

// Range returns the Eq. 6 normalizing divisor: max − min over the
// original data ignoring NaNs, falling back to 1 when the range is zero
// (constant array) or non-finite — the documented RelativeErrors
// deviation, under which relative errors degrade to absolute ones.
func Range(orig []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range orig {
		if math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	rng := hi - lo
	if rng == 0 || math.IsInf(rng, 0) || math.IsNaN(rng) {
		rng = 1
	}
	return rng
}

// MaxRelError returns max_i re_i (Eq. 6) as a fraction, not percent: the
// quantity a relative error bound (guard.Policy.MaxRel) promises to cap.
// The normalizing range comes from the original data with the same
// constant-array fallback as RelativeErrors. NaN handling follows
// MaxAbsError: a pair of NaNs at one index counts as zero error, a NaN
// paired with a number poisons the result to NaN.
func MaxRelError(orig, approx []float64) (float64, error) {
	maxAbs, err := MaxAbsError(orig, approx)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(maxAbs) {
		return maxAbs, nil
	}
	return maxAbs / Range(orig), nil
}

// MaxAbsError returns max_i |x_i − x̃_i|, the un-normalized companion to
// the paper's relative errors (Eq. 6) — the quantity an absolute
// ErrorBound promises to cap. A pair of NaNs at the same index counts as
// zero error; a NaN paired with a number yields NaN (the comparison is
// meaningless, and hiding it would overstate fidelity).
func MaxAbsError(orig, approx []float64) (float64, error) {
	if len(orig) != len(approx) {
		return 0, fmt.Errorf("%w: %d original vs %d approximate values", ErrInput, len(orig), len(approx))
	}
	if len(orig) == 0 {
		return 0, fmt.Errorf("%w: empty", ErrInput)
	}
	var max float64
	for i := range orig {
		d := math.Abs(orig[i] - approx[i])
		if math.IsNaN(d) {
			if math.IsNaN(orig[i]) && math.IsNaN(approx[i]) {
				continue
			}
			return math.NaN(), nil
		}
		if d > max {
			max = d
		}
	}
	return max, nil
}

// Summary aggregates an error distribution the way the paper reports it.
type Summary struct {
	// AvgPct is the average relative error in percent (the paper's
	// "average relative error": Σ re_i / m × 100).
	AvgPct float64
	// MaxPct is the maximum relative error in percent.
	MaxPct float64
	// RMSEPct is the root-mean-square relative error in percent
	// (additional to the paper; useful for trend plots).
	RMSEPct float64
	// N is the number of elements compared.
	N int
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("avg=%.4g%% max=%.4g%% rmse=%.4g%% (n=%d)", s.AvgPct, s.MaxPct, s.RMSEPct, s.N)
}

// Compare computes the relative-error summary between an original and a
// reconstructed array.
func Compare(orig, approx []float64) (Summary, error) {
	res, err := RelativeErrors(orig, approx, nil)
	if err != nil {
		return Summary{}, err
	}
	var sum, sq, max float64
	for _, e := range res {
		sum += e
		sq += e * e
		if e > max {
			max = e
		}
	}
	n := float64(len(res))
	return Summary{
		AvgPct:  100 * sum / n,
		MaxPct:  100 * max,
		RMSEPct: 100 * math.Sqrt(sq/n),
		N:       len(res),
	}, nil
}

// PSNR returns the peak signal-to-noise ratio in decibels between an
// original and a reconstructed array: 20·log10(range/RMSE). It is the
// metric later lossy scientific-data compressors (SZ, ZFP) standardize on,
// provided here so results can be compared across that literature.
// Identical arrays yield +Inf.
func PSNR(orig, approx []float64) (float64, error) {
	if len(orig) != len(approx) {
		return 0, fmt.Errorf("%w: %d vs %d values", ErrInput, len(orig), len(approx))
	}
	if len(orig) == 0 {
		return 0, fmt.Errorf("%w: empty", ErrInput)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	var sq float64
	for i, v := range orig {
		if !math.IsNaN(v) {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		d := v - approx[i]
		if math.IsNaN(d) {
			if math.IsNaN(v) && math.IsNaN(approx[i]) {
				d = 0
			} else {
				return math.Inf(-1), nil
			}
		}
		sq += d * d
	}
	rng := hi - lo
	if rng <= 0 || math.IsInf(rng, 0) {
		rng = 1
	}
	rmse := math.Sqrt(sq / float64(len(orig)))
	if rmse == 0 {
		return math.Inf(1), nil
	}
	return 20 * math.Log10(rng/rmse), nil
}

// Histogram buckets values into n equal-width bins over [min, max].
type Histogram struct {
	Min, Max float64
	Counts   []int
	Total    int
}

// NewHistogram builds an n-bin histogram of the finite values.
func NewHistogram(values []float64, n int) (*Histogram, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: %d bins", ErrInput, n)
	}
	h := &Histogram{Counts: make([]int, n)}
	h.Min, h.Max = math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if v < h.Min {
			h.Min = v
		}
		if v > h.Max {
			h.Max = v
		}
	}
	for _, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		i := 0
		if h.Max > h.Min {
			i = int(float64(n) * (v - h.Min) / (h.Max - h.Min))
			if i >= n {
				i = n - 1
			}
		}
		h.Counts[i]++
		h.Total++
	}
	return h, nil
}

// SpikeFraction returns the share of values in the fullest bin — a measure
// of how concentrated the distribution is (the paper's premise is that
// wavelet high bands have a strong spike near zero).
func (h *Histogram) SpikeFraction() float64 {
	if h.Total == 0 {
		return 0
	}
	max := 0
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	return float64(max) / float64(h.Total)
}

// RandomWalkFit fits err(t) ≈ c·√(t−t0) by least squares over a time series
// of errors, as in the paper's §IV-E discussion ("the expected errors after
// n steps becomes the order of √n"). Steps are 1-based offsets from the
// restart point. It returns the coefficient c and the coefficient of
// determination R².
func RandomWalkFit(errs []float64) (c, r2 float64, err error) {
	if len(errs) < 2 {
		return 0, 0, fmt.Errorf("%w: need ≥2 points", ErrInput)
	}
	// Least squares for y = c·x with x = √t: c = Σxy / Σx².
	var sxy, sxx, sy, syy float64
	n := float64(len(errs))
	for i, e := range errs {
		x := math.Sqrt(float64(i + 1))
		sxy += x * e
		sxx += x * x
		sy += e
		syy += e * e
	}
	if sxx == 0 {
		return 0, 0, fmt.Errorf("%w: degenerate abscissa", ErrInput)
	}
	c = sxy / sxx
	// R² against the mean model.
	var ssRes float64
	for i, e := range errs {
		x := math.Sqrt(float64(i + 1))
		d := e - c*x
		ssRes += d * d
	}
	ssTot := syy - sy*sy/n
	if ssTot == 0 {
		if ssRes == 0 {
			return c, 1, nil
		}
		return c, 0, nil
	}
	return c, 1 - ssRes/ssTot, nil
}
