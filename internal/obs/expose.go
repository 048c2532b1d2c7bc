package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// MetricSnapshot is one time series frozen at snapshot time.
type MetricSnapshot struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value is the counter/gauge value (absent for histograms).
	Value float64 `json:"value,omitempty"`
	// Count/Sum/Buckets describe histograms. Buckets are cumulative
	// counts per upper bound, Prometheus-style; the final entry is +Inf.
	Count   uint64           `json:"count,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// BucketSnapshot is one cumulative histogram bucket.
type BucketSnapshot struct {
	LE    float64 `json:"le"` // +Inf encoded as JSON string "+Inf" via MarshalJSON
	Count uint64  `json:"count"`
}

// MarshalJSON renders +Inf (not representable in JSON numbers) as a
// string; finite bounds stay numeric.
func (b BucketSnapshot) MarshalJSON() ([]byte, error) {
	le := "\"+Inf\""
	if !math.IsInf(b.LE, 1) {
		le = strconv.FormatFloat(b.LE, 'g', -1, 64)
	}
	return []byte(fmt.Sprintf(`{"le":%s,"count":%d}`, le, b.Count)), nil
}

// Snapshot is a point-in-time copy of the registry, the unit both the
// JSON exposition and the summary table render.
type Snapshot struct {
	Start   time.Time        `json:"start"`
	Taken   time.Time        `json:"taken"`
	Metrics []MetricSnapshot `json:"metrics"`
}

// Snapshot freezes the registry. Metrics are sorted by name then label
// string, so output is deterministic. A nil registry yields an empty
// snapshot.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{Taken: time.Now()}
	if r == nil {
		return snap
	}
	snap.Start = r.start

	r.mu.RLock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.RUnlock()

	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return key("", ms[i].labels) < key("", ms[j].labels)
	})
	for _, m := range ms {
		s := MetricSnapshot{Name: m.name, Kind: m.kind.String()}
		if len(m.labels) > 0 {
			s.Labels = make(map[string]string, len(m.labels)/2)
			for i := 0; i+1 < len(m.labels); i += 2 {
				s.Labels[m.labels[i]] = m.labels[i+1]
			}
		}
		switch m.kind {
		case kindCounter, kindGauge:
			s.Value = math.Float64frombits(m.bits.Load())
		case kindHistogram:
			s.Count = m.count.Load()
			s.Sum = math.Float64frombits(m.sumBits.Load())
			var cum uint64
			for i := range m.buckets {
				cum += m.buckets[i].Load()
				le := math.Inf(1)
				if i < len(m.bounds) {
					le = m.bounds[i]
				}
				s.Buckets = append(s.Buckets, BucketSnapshot{LE: le, Count: cum})
			}
		}
		snap.Metrics = append(snap.Metrics, s)
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// --- Prometheus text exposition ---------------------------------------------

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// formatValue renders a sample value; Prometheus accepts +Inf/-Inf/NaN
// spellings.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promLabels renders `{k="v",...}` from a snapshot's label map plus an
// optional extra pair (used for the histogram `le` label). Keys are
// sorted; an empty set renders as "".
func promLabels(labels map[string]string, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	keys := make([]string, 0, len(labels)+1)
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, k, escapeLabel(labels[k]))
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): one # TYPE line per metric name, histograms
// expanded into cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	seenType := make(map[string]bool)
	for _, m := range snap.Metrics {
		if !seenType[m.Name] {
			seenType[m.Name] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind); err != nil {
				return err
			}
		}
		switch m.Kind {
		case "counter", "gauge":
			if _, err := fmt.Fprintf(w, "%s%s %s\n", m.Name, promLabels(m.Labels, "", ""), formatValue(m.Value)); err != nil {
				return err
			}
		case "histogram":
			for _, b := range m.Buckets {
				le := "+Inf"
				if !math.IsInf(b.LE, 1) {
					le = strconv.FormatFloat(b.LE, 'g', -1, 64)
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.Name, promLabels(m.Labels, "le", le), b.Count); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", m.Name, promLabels(m.Labels, "", ""), formatValue(m.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", m.Name, promLabels(m.Labels, "", ""), m.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- Human summary ----------------------------------------------------------

// WriteSummary renders the registry as an aligned end-of-run table:
// counters and gauges as name/value rows, histograms as count/mean/sum.
// It writes nothing (and returns nil) when the registry is nil or empty,
// so callers can emit it unconditionally.
func (r *Registry) WriteSummary(w io.Writer) error {
	snap := r.Snapshot()
	if len(snap.Metrics) == 0 {
		return nil
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "metric\tvalue\n")
	for _, m := range snap.Metrics {
		id := m.Name + promLabels(m.Labels, "", "")
		switch m.Kind {
		case "counter", "gauge":
			fmt.Fprintf(tw, "%s\t%s\n", id, formatValue(m.Value))
		case "histogram":
			mean := math.NaN()
			if m.Count > 0 {
				mean = m.Sum / float64(m.Count)
			}
			fmt.Fprintf(tw, "%s\tcount=%d sum=%s mean=%s\n", id, m.Count, formatValue(m.Sum), formatValue(mean))
		}
	}
	return tw.Flush()
}
