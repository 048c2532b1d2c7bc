package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "kind", "x")
	c.Inc()
	c.Add(2.5)
	c.Add(-3) // ignored: counters are monotone
	c.Add(math.NaN())
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
	// Same name+labels → same series, regardless of label order.
	c2 := r.Counter("ops_total", "kind", "x")
	if c2.Value() != 3.5 {
		t.Errorf("re-lookup = %v, want 3.5", c2.Value())
	}

	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Errorf("gauge = %v, want 5", g.Value())
	}
	g.Set(math.Inf(1)) // ignored
	if g.Value() != 5 {
		t.Errorf("gauge after Inf set = %v, want 5", g.Value())
	}
}

func TestLabelOrderCanonicalized(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "a", "1", "b", "2").Inc()
	r.Counter("m", "b", "2", "a", "1").Inc()
	snap := r.Snapshot()
	if len(snap.Metrics) != 1 {
		t.Fatalf("label order created %d series, want 1", len(snap.Metrics))
	}
	if snap.Metrics[0].Value != 2 {
		t.Errorf("value = %v, want 2", snap.Metrics[0].Value)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // ignored
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.005+0.05+0.05+0.5+5; math.Abs(got-want) > 1e-12 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	snap := r.Snapshot()
	buckets := snap.Metrics[0].Buckets
	wantCum := []uint64{1, 3, 4, 5} // le=0.01, 0.1, 1, +Inf
	if len(buckets) != len(wantCum) {
		t.Fatalf("bucket count = %d, want %d", len(buckets), len(wantCum))
	}
	for i, b := range buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(buckets[len(buckets)-1].LE, 1) {
		t.Errorf("last bucket bound = %v, want +Inf", buckets[len(buckets)-1].LE)
	}
}

func TestKindConflictIsNoop(t *testing.T) {
	r := NewRegistry()
	r.Counter("m").Inc()
	g := r.Gauge("m") // kind conflict → zero instrument, not a panic
	g.Set(99)
	if got := r.Counter("m").Value(); got != 1 {
		t.Errorf("conflicting registration corrupted the counter: %v", got)
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(3)
	r.Histogram("z", DurationBuckets).Observe(1)
	snap := r.Snapshot()
	if len(snap.Metrics) != 0 {
		t.Error("nil registry snapshot has metrics")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Errorf("WritePrometheus(nil): %v", err)
	}
	if err := r.WriteSummary(&sb); err != nil {
		t.Errorf("WriteSummary(nil): %v", err)
	}
}

func TestDefaultRegistryInstallRestore(t *testing.T) {
	if Default() != nil {
		t.Skip("another test installed a default registry")
	}
	r := NewRegistry()
	prev := SetDefault(r)
	if prev != nil {
		t.Errorf("previous default = %v, want nil", prev)
	}
	if Default() != r {
		t.Error("Default() did not return the installed registry")
	}
	SetDefault(prev)
	if Default() != nil {
		t.Error("default not restored")
	}
}

// TestConcurrentRecording is the obs half of the ISSUE's race-coverage
// satellite: many goroutines hammer the same histogram and counter while
// others register fresh series and take snapshots, all under -race.
func TestConcurrentRecording(t *testing.T) {
	const goroutines = 16
	const perG = 2000
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := r.Histogram("shared_seconds", DurationBuckets)
			c := r.Counter("shared_total")
			for i := 0; i < perG; i++ {
				h.Observe(float64(i%7) * 0.001)
				c.Inc()
				if i%100 == 0 {
					// Concurrent registration of per-goroutine series.
					r.Counter("per_g_total", "g", string(rune('a'+g))).Inc()
				}
			}
		}(g)
	}
	// Concurrent readers while writers run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			_ = r.WritePrometheus(&sb)
			r.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	if got := r.Counter("shared_total").Value(); got != goroutines*perG {
		t.Errorf("counter = %v, want %d", got, goroutines*perG)
	}
	h := r.Histogram("shared_seconds", DurationBuckets)
	if h.Count() != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", h.Count(), goroutines*perG)
	}
	// Cumulative +Inf bucket must equal the total count.
	snap := r.Snapshot()
	for _, m := range snap.Metrics {
		if m.Name == "shared_seconds" {
			last := m.Buckets[len(m.Buckets)-1]
			if last.Count != goroutines*perG {
				t.Errorf("+Inf bucket = %d, want %d", last.Count, goroutines*perG)
			}
		}
	}
}
