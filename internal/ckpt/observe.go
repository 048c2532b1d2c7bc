// observe.go is the manager's telemetry: every checkpoint and restore is one
// journal.Op — in the flight recorder one wide event carrying the per-entry
// stage waterfall (transform → quantize → entropy; per-chunk under the chunked
// paths), the codec/shuffle/divisions each entry actually used and the guard
// ladder rung it shipped at; on the registry the operation's span series — and
// what the operation does not carry (byte counters, quality gauges) is recorded
// beside it, once, when it closes. The store layer adds its own commit/vote
// child operations under the same operation ID.
package ckpt

import (
	"math"

	"lossyckpt/internal/core"
	"lossyckpt/internal/obs"
	"lossyckpt/internal/obs/journal"
	"lossyckpt/internal/stats"
)

// Metric names recorded by the checkpoint manager, beside the
// lossyckpt_ckpt_checkpoint and lossyckpt_ckpt_restore _seconds/_total/
// _errors_total series the ckpt.checkpoint and ckpt.restore operations yield
// (journal.SpanName); quality gauges are labeled with the variable name and
// refreshed on every checkpoint.
const (
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

// EnableQualityTelemetry turns on per-variable reconstruction-quality
// gauges (PSNR, max relative and absolute error) for lossy codecs. Each
// checkpoint then decodes every entry it just encoded to measure the
// round-trip error — roughly doubling checkpoint CPU — so it is opt-in;
// compression-rate gauges are always recorded when a registry is installed.
func (m *Manager) EnableQualityTelemetry(on bool) { m.quality = on }

// opFor returns the operation a call should fill: the one a wrapping
// store-level call already opened (owned=false), or a fresh root op
// (owned=true — the caller must End it).
func (m *Manager) opFor(name string, attrs ...any) (op *journal.Op, owned bool) {
	if m.curOp != nil {
		return m.curOp, false
	}
	return journal.Begin(name, attrs...), true
}

// stagesOf flattens a timing breakdown into the journal's waterfall
// map, skipping zero-valued phases.
func stagesOf(t core.Timings) map[string]float64 {
	out := map[string]float64{}
	put := func(k string, d float64) {
		if d > 0 {
			out[k] = d
		}
	}
	put("transform", t.Wavelet.Seconds())
	put("quantize", t.Quantize.Seconds())
	put("encode", t.Encode.Seconds())
	put("format", t.Format.Seconds())
	put("temp_write", t.TempWrite.Seconds())
	put("entropy", t.Gzip.Seconds())
	put("total", t.Total.Seconds())
	if len(out) == 0 {
		return nil
	}
	return out
}

// closeCheckpoint is the one close of a checkpoint call. A checkpoint that
// succeeded is folded into its operation — aggregate waterfall, byte totals,
// and one entry per variable with its own stage breakdown, per-chunk timings
// and codec decisions — and into the registry: byte and entry counters, the
// rate gauge and, when enabled, the quality gauges per variable. The
// operation ends here unless a wrapping call owns it. op is nil when neither
// sink is set, and nothing is computed.
func (m *Manager) closeCheckpoint(op *journal.Op, owned bool, rep *Report, encoded []*Encoded, err error) {
	if owned {
		defer op.End(err)
	}
	if op == nil || err != nil {
		return
	}
	o := obs.Default()
	o.Counter(MetricCkptRawBytes).Add(float64(rep.RawBytes))
	o.Counter(MetricCkptFileBytes).Add(float64(rep.FileBytes))
	o.Counter(MetricCkptEntries).Add(float64(len(rep.Entries)))
	op.SetBytes(int64(rep.RawBytes), int64(rep.CompressedBytes))
	agg := rep.AggregateTimings()
	op.Stage("transform", agg.Wavelet)
	op.Stage("quantize", agg.Quantize)
	op.Stage("encode", agg.Encode)
	op.Stage("format", agg.Format)
	op.Stage("entropy", agg.Gzip)
	if m.DeltaEnabled() {
		op.Set("delta", "true", "entries_reused", rep.ReusedEntries,
			"slabs_reused", rep.DeltaSlabsReused, "slabs_compressed", rep.DeltaSlabsCompressed)
	}
	measure := m.quality && !m.codec.Lossless()
	for i, e := range rep.Entries {
		je := journal.Entry{
			Var:      e.Name,
			BytesIn:  e.RawBytes,
			BytesOut: e.CompressedBytes,
			Stages:   stagesOf(e.Timings),
		}
		enc := encoded[i]
		je.Codec = enc.EntropyLabel
		je.Divisions = enc.Divisions
		for _, ct := range enc.ChunkTimings {
			je.Chunks = append(je.Chunks, stagesOf(ct))
		}
		if g := e.Guarantee; g != nil {
			je.Guard = g.Mode.String()
			je.Escalations = g.Escalations
		}
		op.Entry(je)
		if e.RawBytes > 0 {
			o.Gauge(MetricQualityRatePct, "var", e.Name).Set(stats.CompressionRate(e.CompressedBytes, e.RawBytes))
		}
		// Streaming checkpoints never buffer payloads, so there is nothing
		// to decode for quality measurement.
		if measure && enc.Payload != nil {
			m.measureQuality(o, e.Name, enc.Payload)
		}
	}
}

// measureQuality decodes one entry the checkpoint just encoded and sets the
// variable's reconstruction-quality gauges from the round trip.
func (m *Manager) measureQuality(o *obs.Registry, name string, payload []byte) {
	f := m.fields[name]
	decoded, err := m.codec.Decode(payload, f.Shape(), nil)
	if err != nil {
		journal.Note("ckpt.quality_decode_failed", "var", name, "error", err.Error())
		return
	}
	orig, approx := f.Data(), decoded.Data()
	// Gauge.Set drops non-finite values, so a perfect reconstruction
	// (+Inf PSNR) keeps the previous reading; note it so the record still
	// shows it happened.
	if psnr, err := stats.PSNR(orig, approx); err == nil {
		if math.IsInf(psnr, 1) {
			journal.Note("ckpt.quality_exact", "var", name)
		}
		o.Gauge(MetricQualityPSNR, "var", name).Set(psnr)
	}
	if sum, err := stats.Compare(orig, approx); err == nil {
		o.Gauge(MetricQualityMaxRel, "var", name).Set(sum.MaxPct)
	}
	if maxAbs, err := stats.MaxAbsError(orig, approx); err == nil {
		o.Gauge(MetricQualityMaxAbs, "var", name).Set(maxAbs)
	}
}

// closeRestore is the one close of a restore call: a restore that succeeded
// is folded into its operation, a lenient one is counted and noted as a
// partial restore, and the operation ends here unless a wrapping call owns it.
func (m *Manager) closeRestore(op *journal.Op, owned bool, rep *Report, skipped []string, partial bool, err error) {
	if owned {
		defer op.End(err)
	}
	if op == nil || err != nil {
		return
	}
	op.SetStep(rep.Step)
	op.SetBytes(int64(rep.CompressedBytes), int64(rep.RawBytes))
	for _, e := range rep.Entries {
		je := journal.Entry{Var: e.Name, BytesIn: e.CompressedBytes, BytesOut: e.RawBytes}
		if g := e.Guarantee; g != nil {
			je.Guard = g.Mode.String()
		}
		op.Entry(je)
	}
	for _, name := range skipped {
		op.Entry(journal.Entry{Var: name, Guard: "skipped"})
	}
	if partial {
		o := obs.Default()
		o.Counter(MetricPartialRestores).Inc()
		o.Counter(MetricSkippedVars).Add(float64(len(skipped)))
		journal.Note("ckpt.partial_restore", "restored", len(rep.Entries), "skipped", len(skipped), "step", rep.Step)
	}
}
