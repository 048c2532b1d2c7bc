package obs

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestEventRingWraparound: past capacity the ring keeps the newest
// events, counts drops, and snapshots oldest-first in order.
func TestEventRingWraparound(t *testing.T) {
	r := NewRegistry()
	const total = DefaultEventCap + 100
	for i := 0; i < total; i++ {
		r.Event("tick", "i", i)
	}
	events, dropped := r.Events()
	if len(events) != DefaultEventCap {
		t.Fatalf("retained %d events, want %d", len(events), DefaultEventCap)
	}
	if dropped != 100 {
		t.Fatalf("dropped = %d, want 100", dropped)
	}
	// Oldest retained must be event #100, newest #total-1, strictly ordered.
	for k, ev := range events {
		want := fmt.Sprint(100 + k)
		if len(ev.Attrs) != 2 || ev.Attrs[1] != want {
			t.Fatalf("event %d: attrs %v, want i=%s", k, ev.Attrs, want)
		}
	}
}

// TestEventRingConcurrent: concurrent event emission never loses count
// coherence (retained + dropped == emitted). Run under -race.
func TestEventRingConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines, per = 16, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Event("concurrent", "g", g, "i", i)
			}
		}(g)
	}
	wg.Wait()
	events, dropped := r.Events()
	if got := uint64(len(events)) + dropped; got != goroutines*per {
		t.Fatalf("retained+dropped = %d, want %d", got, goroutines*per)
	}
}

// TestConcurrentSpans: spans ended from many goroutines record one
// completion event and one histogram observation each, with the error
// split intact. Run under -race.
func TestConcurrentSpans(t *testing.T) {
	r := NewRegistry()
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := r.StartSpan("op", "worker", i)
			if i%4 == 0 {
				sp.EndErr(errors.New("boom"))
			} else {
				sp.End()
			}
		}(i)
	}
	wg.Wait()
	if got := r.Counter("op_total").Value(); got != n {
		t.Fatalf("op_total = %v, want %d", got, n)
	}
	if got := r.Counter("op_errors_total").Value(); got != n/4 {
		t.Fatalf("op_errors_total = %v, want %d", got, n/4)
	}
	events, dropped := r.Events()
	if got := uint64(len(events)) + dropped; got != n {
		t.Fatalf("span events = %d, want %d", got, n)
	}
}

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
