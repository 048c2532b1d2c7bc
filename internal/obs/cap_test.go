package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestSeriesCardinalityCap: unbounded label values stop registering at
// the cap; overflow becomes a no-op instrument and is counted in
// obs_dropped_series_total. Existing series keep working.
func TestSeriesCardinalityCap(t *testing.T) {
	r := NewRegistry()
	const last = DefaultSeriesCap + 11
	for i := 0; i <= last; i++ {
		r.Gauge("quality_psnr", "var", fmt.Sprint(i)).Set(float64(i))
	}
	// The first DefaultSeriesCap registered and still update.
	for _, v := range []int{0, DefaultSeriesCap - 1} {
		g := r.Gauge("quality_psnr", "var", fmt.Sprint(v))
		g.Set(42)
		if got := g.Value(); got != 42 {
			t.Fatalf("existing series %d broken: %v", v, got)
		}
	}
	// Overflow series are inert, the first of them as the last.
	for _, v := range []int{DefaultSeriesCap, last} {
		over := r.Gauge("quality_psnr", "var", fmt.Sprint(v))
		over.Set(7)
		if got := over.Value(); got != 0 {
			t.Fatalf("overflow series %d recorded a value: %v", v, got)
		}
	}
	// Every refused lookup counts: 12 overflow registrations in the loop
	// plus the two re-lookups above.
	if got := r.Counter(MetricDroppedSeries, "metric", "quality_psnr").Value(); got != 14 {
		t.Fatalf("dropped series counter = %v, want 14", got)
	}
	// Other metric names are unaffected by this name's overflow.
	r.Counter("unrelated_total").Inc()
	if got := r.Counter("unrelated_total").Value(); got != 1 {
		t.Fatalf("unrelated metric affected: %v", got)
	}
}

// TestSeriesCapConcurrent: racing registrations across the cap stay
// bounded and coherent. Run under -race.
func TestSeriesCapConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, each = 8, DefaultSeriesCap/8 + 25 // 200 more than the cap in all
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Gauge("racy", "v", fmt.Sprintf("%d-%d", g, i)).Set(1)
			}
		}(g)
	}
	wg.Wait()
	live := 0
	var dropped float64
	for i := 0; i < workers; i++ {
		for j := 0; j < each; j++ {
			if r.Gauge("racy", "v", fmt.Sprintf("%d-%d", i, j)).Value() == 1 {
				live++
			}
		}
	}
	dropped = r.Counter(MetricDroppedSeries, "metric", "racy").Value()
	if live != DefaultSeriesCap {
		t.Fatalf("live series %d, want the cap %d", live, DefaultSeriesCap)
	}
	if dropped == 0 {
		t.Fatal("no drops counted despite overflow")
	}
}
