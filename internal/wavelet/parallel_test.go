package wavelet

import (
	"runtime"
	"testing"
)

// TestTransformWorkersBitIdentical shards multi-row passes across
// goroutines; the lanes are computed identically regardless of sharding, so
// the transformed (and inverted) fields must be bit-exact for every worker
// count. The plan's cutoff is lowered to 2^15 elements so that the sharded
// path runs on shapes a test can afford; kernels_test.go shards the small and
// odd ones.
func TestTransformWorkersBitIdentical(t *testing.T) {
	shapes := [][]int{
		{256, 160},   // 40960 elements, above the lowered cutoff
		{64, 32, 20}, // 3D, above cutoff
		{1 << 16},    // 1D: single lane per axis, exercises serial fallback
		{130, 18},    // below cutoff: serial fallback, still must match
	}
	for _, scheme := range []Scheme{Haar, CDF53} {
		for _, shape := range shapes {
			f := randomField(t, 17, shape...)
			plan, err := NewPlan(shape, 2, scheme)
			if err != nil {
				t.Fatal(err)
			}
			plan.cutoff = 1 << 15
			want := f.Clone()
			if err := plan.TransformWorkers(want, 1); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, runtime.GOMAXPROCS(0), 0} {
				got := f.Clone()
				if err := plan.TransformWorkers(got, workers); err != nil {
					t.Fatalf("%v %v workers=%d: %v", scheme, shape, workers, err)
				}
				if !want.Equal(got) {
					t.Fatalf("%v %v workers=%d: transform not bit-identical to serial", scheme, shape, workers)
				}
				if err := plan.InverseWorkers(got, workers); err != nil {
					t.Fatalf("%v %v workers=%d inverse: %v", scheme, shape, workers, err)
				}
				ref := want.Clone()
				if err := plan.InverseWorkers(ref, 1); err != nil {
					t.Fatal(err)
				}
				if !ref.Equal(got) {
					t.Fatalf("%v %v workers=%d: inverse not bit-identical to serial", scheme, shape, workers)
				}
			}
		}
	}
}
