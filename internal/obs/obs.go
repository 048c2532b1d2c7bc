// Package obs is the repository's zero-dependency observability layer:
// counters, gauges and bounded histograms with atomic fast paths. It holds
// numbers only: what happened, operation by operation, is the flight
// recorder's (package journal), which also feeds each operation's duration
// and count series here.
//
// The paper's whole evaluation is a measurement story — per-stage cost
// breakdown (Fig. 9), compression rate (Figs. 6–7) and error against the
// checkpoint interval (Figs. 8, 10) — and Z-checker (Tao et al., IJHPCA
// 2017) argues that lossy compressors need a standing assessment
// framework for exactly these rate/error metrics rather than ad-hoc
// prints. Package obs is that framework for this repo: every pipeline
// stage, store commit, restore fallback and quality measurement records
// into a Registry, which exposes itself as Prometheus text, a JSON
// snapshot, and a human summary table (see expose.go and http.go).
//
// Concurrency: all recording paths are lock-free after the first
// registration of a metric (atomic adds on shared cells); registration
// itself takes a short mutex and is safe from any number of goroutines.
// Every method is nil-safe — a nil *Registry and the zero instrument
// values are no-ops — so instrumented code needs no conditionals and a
// disabled observer costs one branch per record.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds a set of named metrics. The zero value is not usable; call
// NewRegistry. A nil *Registry is a valid no-op observer: every method on it
// (and on the instruments it returns) does nothing.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
	// perName counts distinct label sets per metric name so one
	// unbounded label value (a per-variable gauge fed hostile names)
	// cannot grow the registry past DefaultSeriesCap of them.
	perName map[string]int

	start time.Time
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics: make(map[string]*metric),
		perName: make(map[string]int),
		start:   time.Now(),
	}
}

// defaultReg is the process-wide fallback observer. It defaults to nil
// (no-op); front ends that want whole-process recording without threading
// a Registry through every call site install one with SetDefault.
var defaultReg atomic.Pointer[Registry]

// Default returns the process-wide default registry, or nil when none is
// installed. Instrumented packages fall back to it when no explicit
// observer was configured.
func Default() *Registry { return defaultReg.Load() }

// SetDefault installs r as the process-wide default registry and returns
// the previous one (nil uninstalls). Callers that install a scoped
// default should restore the returned registry when done.
func SetDefault(r *Registry) (prev *Registry) {
	return defaultReg.Swap(r)
}

// metricKind discriminates the metric representations.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// DefaultSeriesCap bounds distinct label sets per metric name: enough for
// every real workload here (per-variable gauges over a few dozen
// variables), small enough that a label fed from unbounded input cannot
// exhaust memory. Existing series are kept; new ones beyond the cap become
// no-ops and are counted in MetricDroppedSeries.
const DefaultSeriesCap = 1024

// MetricDroppedSeries counts series registrations refused by the
// cardinality cap, labeled metric=<name>.
const MetricDroppedSeries = "obs_dropped_series_total"

// metric is one registered time series: a name, its label pairs and the
// atomic cells the instruments mutate. Counters and gauges share the
// float64-bits representation; histograms add bucket counters.
type metric struct {
	name   string
	labels []string // alternating key, value; sorted by key
	kind   metricKind

	bits atomic.Uint64 // counter/gauge value as math.Float64bits

	bounds  []float64 // histogram upper bounds, ascending; +Inf implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// addFloat atomically adds v to a float64-bits cell.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// key builds the canonical map key "name{k1=v1,k2=v2}" from sorted label
// pairs. Labels must come in pairs; a trailing odd key gets an empty
// value rather than panicking in a hot path.
func key(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	n := len(name) + 2
	for _, l := range labels {
		n += len(l) + 2
	}
	b := make([]byte, 0, n)
	b = append(b, name...)
	b = append(b, '{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, labels[i]...)
		b = append(b, '=')
		if i+1 < len(labels) {
			b = append(b, labels[i+1]...)
		}
	}
	b = append(b, '}')
	return string(b)
}

// sortLabels returns the label pairs sorted by key so that differently
// ordered call sites share one time series. The common cases (no labels,
// one pair) return the input unchanged without allocating.
func sortLabels(labels []string) []string {
	if len(labels) <= 2 {
		return labels
	}
	pairs := make([][2]string, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, [2]string{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	out := make([]string, 0, 2*len(pairs))
	for _, p := range pairs {
		out = append(out, p[0], p[1])
	}
	return out
}

// lookup returns the metric registered under name+labels, creating it on
// first use. Creation validates kind agreement: re-registering a name
// with a different kind returns nil (recorded into obs_kind_conflicts so
// the bug is visible without panicking a production path).
func (r *Registry) lookup(name string, labels []string, kind metricKind, bounds []float64) *metric {
	if r == nil {
		return nil
	}
	labels = sortLabels(labels)
	k := key(name, labels)

	r.mu.RLock()
	m := r.metrics[k]
	r.mu.RUnlock()
	if m != nil {
		if m.kind != kind {
			return nil
		}
		return m
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if m = r.metrics[k]; m != nil {
		if m.kind != kind {
			return nil
		}
		return m
	}
	if name != MetricDroppedSeries && r.perName[name] >= DefaultSeriesCap {
		r.dropSeriesLocked(name)
		return nil // instruments on a nil metric are no-ops
	}
	m = &metric{
		name:   name,
		labels: append([]string(nil), labels...),
		kind:   kind,
	}
	if kind == kindHistogram {
		m.bounds = append([]float64(nil), bounds...)
		m.buckets = make([]atomic.Uint64, len(bounds)+1)
	}
	r.metrics[k] = m
	r.perName[name]++
	return m
}

// dropSeriesLocked counts one refused series registration. It creates
// the drop counter inline because r.mu is already held.
func (r *Registry) dropSeriesLocked(name string) {
	k := key(MetricDroppedSeries, []string{"metric", name})
	m := r.metrics[k]
	if m == nil {
		m = &metric{
			name:   MetricDroppedSeries,
			labels: []string{"metric", name},
			kind:   kindCounter,
		}
		r.metrics[k] = m
	}
	addFloat(&m.bits, 1)
}

// --- Counter ----------------------------------------------------------------

// Counter is a monotonically increasing metric. The zero value is a
// no-op.
type Counter struct{ m *metric }

// Counter returns the counter registered under name and the alternating
// key/value label pairs, creating it on first use.
func (r *Registry) Counter(name string, labels ...string) Counter {
	return Counter{m: r.lookup(name, labels, kindCounter, nil)}
}

// Add increases the counter by v; negative and NaN values are ignored
// (counters are monotone).
func (c Counter) Add(v float64) {
	if c.m == nil || !(v > 0) {
		return
	}
	addFloat(&c.m.bits, v)
}

// Inc adds one.
func (c Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c Counter) Value() float64 {
	if c.m == nil {
		return 0
	}
	return math.Float64frombits(c.m.bits.Load())
}

// --- Gauge ------------------------------------------------------------------

// Gauge is a metric that can go up and down. The zero value is a no-op.
type Gauge struct{ m *metric }

// Gauge returns the gauge registered under name+labels, creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...string) Gauge {
	return Gauge{m: r.lookup(name, labels, kindGauge, nil)}
}

// Set stores v. NaN and ±Inf are ignored so a degenerate measurement
// cannot poison the exposition.
func (g Gauge) Set(v float64) {
	if g.m == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	g.m.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by v.
func (g Gauge) Add(v float64) {
	if g.m == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	addFloat(&g.m.bits, v)
}

// Value returns the current value.
func (g Gauge) Value() float64 {
	if g.m == nil {
		return 0
	}
	return math.Float64frombits(g.m.bits.Load())
}

// --- Histogram --------------------------------------------------------------

// Histogram is a bounded-bucket distribution (cumulative buckets in the
// Prometheus sense). The zero value is a no-op.
type Histogram struct{ m *metric }

// DurationBuckets are the default upper bounds (seconds) for operation
// latencies: 100 µs to 30 s, roughly ×3 per step — wide enough for both
// a slab compression and a paper-scale checkpoint.
var DurationBuckets = []float64{
	0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30,
}

// SizeBuckets are the default upper bounds (bytes) for payload sizes:
// 1 KiB to 1 GiB, ×4 per step.
var SizeBuckets = []float64{
	1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
}

// Histogram returns the histogram registered under name+labels, creating
// it on first use with the given ascending upper bounds (the +Inf bucket
// is implicit). Later calls for an existing series ignore bounds.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) Histogram {
	return Histogram{m: r.lookup(name, labels, kindHistogram, bounds)}
}

// Observe records one value. NaN is ignored.
func (h Histogram) Observe(v float64) {
	if h.m == nil || math.IsNaN(v) {
		return
	}
	// Buckets are few (≤ ~12); linear scan beats binary search here.
	i := 0
	for i < len(h.m.bounds) && v > h.m.bounds[i] {
		i++
	}
	h.m.buckets[i].Add(1)
	h.m.count.Add(1)
	addFloat(&h.m.sumBits, v)
}

// ObserveDuration records d in seconds.
func (h Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h Histogram) Count() uint64 {
	if h.m == nil {
		return 0
	}
	return h.m.count.Load()
}

// Sum returns the sum of observed values.
func (h Histogram) Sum() float64 {
	if h.m == nil {
		return 0
	}
	return math.Float64frombits(h.m.sumBits.Load())
}
