package quant

import (
	"errors"
	"math"
	"testing"
)

// TestChooseDivisionsDegenerate locks the deterministic fast paths: inputs
// where no scan can help must resolve immediately (n = 1) instead of
// walking the doubling ladder to MaxDivisions.
func TestChooseDivisionsDegenerate(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	cases := []struct {
		name   string
		values []float64
		bound  float64
	}{
		{"empty", nil, 0},
		{"empty positive bound", []float64{}, 1e-3},
		{"all NaN", []float64{nan, nan, nan}, 0},
		{"all Inf", []float64{inf, -inf, inf}, 0},
		{"mixed non-finite", []float64{nan, inf, -inf, nan}, 1e-9},
		{"constant", []float64{3.25, 3.25, 3.25, 3.25}, 0},
		{"constant negative", []float64{-7, -7, -7}, 1e-12},
		{"single value", []float64{42}, 0},
		{"constant with non-finite", []float64{5, nan, 5, inf, 5}, 0},
	}
	for _, method := range []Method{Simple, Proposed} {
		for _, tc := range cases {
			n, q, err := ChooseDivisions(tc.values, tc.bound, method, 64)
			if err != nil {
				t.Fatalf("%v/%s: unexpected error: %v", method, tc.name, err)
			}
			if n != 1 {
				t.Errorf("%v/%s: n = %d, want 1", method, tc.name, n)
			}
			e, err := MaxQuantizationError(tc.values, q)
			if err != nil {
				t.Fatalf("%v/%s: MaxQuantizationError: %v", method, tc.name, err)
			}
			if e > tc.bound {
				t.Errorf("%v/%s: error %g exceeds bound %g", method, tc.name, e, tc.bound)
			}
		}
	}
}

// TestChooseDivisionsZeroBound: bound == 0 demands exactness. With at most
// MaxDivisions distinct finite values the quantization can be exact; with
// more it cannot, and the scan must fail fast with ErrBoundUnreachable
// rather than grinding through every division count.
func TestChooseDivisionsZeroBound(t *testing.T) {
	// Few distinct values, far apart so partitioning isolates each: exact.
	exact := []float64{0, 0, 1000, 1000, 2000, 2000, 3000}
	n, q, err := ChooseDivisions(exact, 0, Simple, 64)
	if err != nil {
		t.Fatalf("exact case: %v", err)
	}
	e, err := MaxQuantizationError(exact, q)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("exact case: residual error %g at n=%d", e, n)
	}

	// A dense ramp of 1000 distinct values cannot be reproduced by ≤255
	// partition means: the zero bound is unreachable.
	ramp := make([]float64, 1000)
	for i := range ramp {
		ramp[i] = float64(i) * 1.5
	}
	n, q, err = ChooseDivisions(ramp, 0, Simple, 64)
	if !errors.Is(err, ErrBoundUnreachable) {
		t.Fatalf("ramp: err = %v, want ErrBoundUnreachable", err)
	}
	if n != MaxDivisions || q == nil {
		t.Errorf("ramp: got n=%d q=%v, want best-effort MaxDivisions result", n, q != nil)
	}
}

// TestChooseDivisionsDeterministic: same input, same answer — the edge
// paths must not depend on map iteration or scan order.
func TestChooseDivisionsDeterministic(t *testing.T) {
	values := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, bound := range []float64{0, 1e-6, 0.3, 10} {
		nPrev := -1
		for rep := 0; rep < 3; rep++ {
			n, _, err := ChooseDivisions(values, bound, Proposed, 64)
			if err != nil && !errors.Is(err, ErrBoundUnreachable) {
				t.Fatalf("bound %g: %v", bound, err)
			}
			if nPrev >= 0 && n != nPrev {
				t.Errorf("bound %g: non-deterministic n: %d then %d", bound, nPrev, n)
			}
			nPrev = n
		}
	}
}

// TestChooseDivisionsInvalidBound: negative or NaN bounds stay rejected.
func TestChooseDivisionsInvalidBound(t *testing.T) {
	for _, bound := range []float64{-1, math.NaN()} {
		if _, _, err := ChooseDivisions([]float64{1, 2}, bound, Simple, 64); !errors.Is(err, ErrConfig) {
			t.Errorf("bound %g: err = %v, want ErrConfig", bound, err)
		}
	}
}

// TestPassthroughAll: the all-passthrough quantization is exact and
// structurally valid for the encoder (empty code/average streams).
func TestPassthroughAll(t *testing.T) {
	values := []float64{1.5, math.NaN(), -3, math.Inf(1)}
	q := PassthroughAll(len(values))
	if q.NumQuantized != 0 || len(q.Codes) != 0 || len(q.Averages) != 0 {
		t.Fatalf("PassthroughAll not empty: %+v", q)
	}
	if q.Bitmap.Len() != len(values) || q.Bitmap.Count() != 0 {
		t.Fatalf("bitmap of %d bits, %d set; want %d, none set", q.Bitmap.Len(), q.Bitmap.Count(), len(values))
	}
	e, err := MaxQuantizationError(values, q)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("passthrough error %g, want 0", e)
	}
	if q.Passthrough != nil {
		t.Errorf("passthrough of %d values from a quantization that saw none", len(q.Passthrough))
	}
}
