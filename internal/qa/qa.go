// Package qa computes Z-checker-style quality assessments of a lossy
// compression: given an original array and its decoded reconstruction
// it reports the error distribution (histogram, max-abs, max-rel,
// average-rel, RMSE, PSNR), the per-band energy split of signal vs.
// error (does the loss live in the high frequencies, where the paper
// puts it?), and the lag-k autocorrelation of the error field (white
// error is benign for restart; correlated error biases the resumed
// simulation). rd.go adds rate-distortion curves across quantization
// divisions, and report.go renders everything as a self-contained
// markdown + JSON report. The package is pure computation — no
// journal, no obs — so it can run identically inside the harness, the
// CLI, and tests.
package qa

import (
	"fmt"
	"math"

	"lossyckpt/internal/stats"
)

// The per-assessment work is bounded by these sizes.
const (
	histBins      = 32      // error-histogram bins
	autocorrLags  = 24      // highest error-field autocorrelation lag reported
	spectrumBands = 8       // octave-style bands the energy spectrum is folded into
	maxSpectrumN  = 1 << 16 // leading samples fed to the FFT (truncated to a power of two)
)

// Band is one frequency band of the energy spectrum: the fraction of
// total energy the original signal and the error field each carry in
// [LoFrac, HiFrac) of the Nyquist range.
type Band struct {
	LoFrac     float64 `json:"lo_frac"`
	HiFrac     float64 `json:"hi_frac"`
	SignalFrac float64 `json:"signal_frac"`
	ErrorFrac  float64 `json:"error_frac"`
}

// Assessment is the Z-checker-style quality report for one variable.
type Assessment struct {
	Var string `json:"var"`
	N   int    `json:"n"`

	// Value range of the original data.
	MinVal float64 `json:"min_val"`
	MaxVal float64 `json:"max_val"`

	// Pointwise error statistics.
	MaxAbs float64 `json:"max_abs"`
	MaxRel float64 `json:"max_rel"` // range-relative, as in the paper
	AvgRel float64 `json:"avg_rel"`
	RMSE   float64 `json:"rmse"`
	PSNR   float64 `json:"psnr_db"`

	// ErrHist is the distribution of the signed pointwise error.
	ErrHist *stats.Histogram `json:"err_hist"`
	// SpikeFraction is the share of errors in the fullest bin.
	SpikeFraction float64 `json:"spike_fraction"`

	// Spectrum is the per-band energy split (nil when the sample is
	// too short for an FFT).
	Spectrum []Band `json:"spectrum,omitempty"`

	// Autocorr[k] is the lag-k autocorrelation of the error field
	// (Autocorr[0] is 1 whenever the error has variance).
	Autocorr []float64 `json:"autocorr,omitempty"`
}

// Assess compares an original array against its lossy reconstruction.
func Assess(name string, orig, approx []float64) (*Assessment, error) {
	if len(orig) == 0 || len(orig) != len(approx) {
		return nil, fmt.Errorf("qa: need equal non-empty arrays, got %d vs %d", len(orig), len(approx))
	}
	a := &Assessment{Var: name, N: len(orig)}

	a.MinVal, a.MaxVal = math.Inf(1), math.Inf(-1)
	errField := make([]float64, len(orig))
	var sq float64
	for i, v := range orig {
		if !math.IsNaN(v) {
			if v < a.MinVal {
				a.MinVal = v
			}
			if v > a.MaxVal {
				a.MaxVal = v
			}
		}
		e := approx[i] - v
		if math.IsNaN(e) && math.IsNaN(v) && math.IsNaN(approx[i]) {
			e = 0
		}
		errField[i] = e
		sq += e * e
	}
	a.RMSE = math.Sqrt(sq / float64(len(orig)))

	var err error
	if a.MaxAbs, err = stats.MaxAbsError(orig, approx); err != nil {
		return nil, err
	}
	if a.MaxRel, err = stats.MaxRelError(orig, approx); err != nil {
		return nil, err
	}
	sum, err := stats.Compare(orig, approx)
	if err != nil {
		return nil, err
	}
	a.AvgRel = sum.AvgPct / 100
	if a.PSNR, err = stats.PSNR(orig, approx); err != nil {
		return nil, err
	}

	if a.ErrHist, err = stats.NewHistogram(errField, histBins); err != nil {
		return nil, err
	}
	a.SpikeFraction = a.ErrHist.SpikeFraction()

	a.Spectrum = bandEnergies(orig, errField, spectrumBands, maxSpectrumN)
	a.Autocorr = autocorrelation(errField, autocorrLags)
	return a, nil
}

// autocorrelation returns the normalized lag-k autocorrelation of x
// for k = 0..maxLag (truncated when the series is short). A zero-
// variance series yields all zeros.
func autocorrelation(x []float64, maxLag int) []float64 {
	n := len(x)
	if n < 2 {
		return nil
	}
	if maxLag >= n {
		maxLag = n - 1
	}
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	var denom float64
	for _, v := range x {
		d := v - mean
		denom += d * d
	}
	// Index k holds lag-k; lag 0 is included so out[0] is 1 for any
	// series with variance (and 0 for a constant one).
	out := make([]float64, maxLag+1)
	if denom == 0 || math.IsNaN(denom) {
		return out
	}
	out[0] = 1
	for k := 1; k <= maxLag; k++ {
		var num float64
		for i := 0; i+k < n; i++ {
			num += (x[i] - mean) * (x[i+k] - mean)
		}
		out[k] = num / denom
	}
	return out
}
