package ckpt

import (
	"fmt"
	"math"

	"lossyckpt/internal/obs"
	"lossyckpt/internal/stats"
)

// Metric names recorded by the checkpoint manager. The checkpoint and
// restore spans yield _seconds/_total/_errors_total series; quality
// gauges are labeled with the variable name and refreshed on every
// checkpoint.
const (
	MetricCheckpointSpan  = "lossyckpt_ckpt_checkpoint"
	MetricRestoreSpan     = "lossyckpt_ckpt_restore"
	MetricCkptRawBytes    = "lossyckpt_ckpt_raw_bytes_total"
	MetricCkptFileBytes   = "lossyckpt_ckpt_file_bytes_total"
	MetricCkptEntries     = "lossyckpt_ckpt_entries_total"
	MetricStoreFallbacks  = "lossyckpt_ckpt_store_fallbacks_total"
	MetricPartialRestores = "lossyckpt_ckpt_partial_restores_total"
	MetricSkippedVars     = "lossyckpt_ckpt_skipped_variables_total"

	MetricQualityRatePct = "lossyckpt_quality_compression_rate_pct"
	MetricQualityPSNR    = "lossyckpt_quality_psnr_db"
	MetricQualityMaxRel  = "lossyckpt_quality_max_rel_error_pct"
	MetricQualityMaxAbs  = "lossyckpt_quality_max_abs_error"
)

// SetObserver routes manager telemetry to r. nil (the default) falls back
// to the process default registry at record time, itself a no-op unless
// one was installed.
func (m *Manager) SetObserver(r *obs.Registry) { m.obsr = r }

// EnableQualityTelemetry turns on per-variable reconstruction-quality
// gauges (PSNR, max relative and absolute error) for lossy codecs. Each
// checkpoint then decodes every entry it just encoded to measure the
// round-trip error — roughly doubling checkpoint CPU — so it is opt-in;
// compression-rate gauges are always recorded when an observer is set.
func (m *Manager) EnableQualityTelemetry(on bool) { m.quality = on }

// observer resolves the manager's effective registry.
func (m *Manager) observer() *obs.Registry {
	if m.obsr != nil {
		return m.obsr
	}
	return obs.Default()
}

// recordCheckpoint folds one completed checkpoint into the registry:
// aggregate byte/entry counters plus per-variable quality gauges.
func (m *Manager) recordCheckpoint(o *obs.Registry, rep *Report, encoded []*Encoded) {
	o.Counter(MetricCkptRawBytes).Add(float64(rep.RawBytes))
	o.Counter(MetricCkptFileBytes).Add(float64(rep.FileBytes))
	o.Counter(MetricCkptEntries).Add(float64(len(rep.Entries)))

	measure := m.quality && !m.codec.Lossless()
	for i, e := range rep.Entries {
		if e.RawBytes > 0 {
			o.Gauge(MetricQualityRatePct, "var", e.Name).Set(stats.CompressionRate(e.CompressedBytes, e.RawBytes))
		}
		if !measure {
			continue
		}
		// Streaming checkpoints never buffer payloads, so there is nothing
		// to decode for quality measurement.
		if encoded[i] == nil || encoded[i].Payload == nil {
			continue
		}
		f := m.fields[e.Name]
		decoded, err := m.codec.Decode(encoded[i].Payload, f.Shape())
		if err != nil {
			o.Event("ckpt.quality_decode_failed", "var", e.Name, "error", err.Error())
			continue
		}
		orig, approx := f.Data(), decoded.Data()
		// Gauge.Set drops non-finite values, so a perfect reconstruction
		// (+Inf PSNR) keeps the previous reading; record the event so the
		// snapshot still shows it happened.
		if psnr, err := stats.PSNR(orig, approx); err == nil {
			if math.IsInf(psnr, 1) {
				o.Event("ckpt.quality_exact", "var", e.Name)
			}
			o.Gauge(MetricQualityPSNR, "var", e.Name).Set(psnr)
		}
		if sum, err := stats.Compare(orig, approx); err == nil {
			o.Gauge(MetricQualityMaxRel, "var", e.Name).Set(sum.MaxPct)
		}
		if maxAbs, err := stats.MaxAbsError(orig, approx); err == nil {
			o.Gauge(MetricQualityMaxAbs, "var", e.Name).Set(maxAbs)
		}
	}
}

// recordPartialRestore folds one completed partial restore.
func recordPartialRestore(o *obs.Registry, rep *Report, skipped []string) {
	o.Counter(MetricPartialRestores).Inc()
	o.Counter(MetricSkippedVars).Add(float64(len(skipped)))
	o.Event("ckpt.partial_restore",
		"restored", len(rep.Entries), "skipped", len(skipped), "step", fmt.Sprint(rep.Step))
}
