package core

import (
	"time"

	"lossyckpt/internal/obs"
)

// observe.go folds the pipeline's Timings accounting into the obs layer.
// Per-stage CPU is recorded by every Compress call — including the
// chunk-internal calls a chunked compression fans out — so the
// stage counters aggregate per-worker CPU correctly (each worker's adds
// are atomic). Operation-level series (counts, bytes, wall clock) are
// recorded only by the top-level call, suppressed on chunk-internal ones
// via Options.chunkInternal, so one chunked compression counts once.

// Metric names recorded by this package. Stage-seconds carry a
// stage=<wavelet|quantize|encode|format|temp_write|gzip|other> label;
// operation counters carry kind=<single|chunked|gzip_only>.
const (
	MetricStageSeconds     = "lossyckpt_compress_stage_seconds_total"
	MetricCompressOps      = "lossyckpt_compress_operations_total"
	MetricCompressRawBytes = "lossyckpt_compress_raw_bytes_total"
	MetricCompressOutBytes = "lossyckpt_compress_compressed_bytes_total"
	MetricCompressWall     = "lossyckpt_compress_wall_seconds"
	MetricCompressCPU      = "lossyckpt_compress_cpu_seconds_total"
	MetricCompressChunks   = "lossyckpt_compress_chunks_total"
	MetricDecompressOps    = "lossyckpt_decompress_operations_total"
	MetricDecompressWall   = "lossyckpt_decompress_wall_seconds"
	MetricDecompressBytes  = "lossyckpt_decompress_raw_bytes_total"
	// Chunk-pipeline series, recorded by every chunked compression
	// (compressChunks): time the ordered consumer spends stalled waiting for
	// the next in-order chunk, time spent handing pieces to the destination
	// (≈ 0 for a buffered compression, which only collects them), and a
	// gauge of compressed chunks in flight between the workers and the
	// consumer.
	MetricStreamStallSeconds = "lossyckpt_stream_stall_seconds_total"
	MetricStreamWriteSeconds = "lossyckpt_stream_write_seconds_total"
	MetricStreamInflight     = "lossyckpt_stream_inflight_chunks"
)

// recordStageSeconds folds one Timings breakdown into the per-stage CPU
// counters, including the unattributed "other" remainder.
func recordStageSeconds(t Timings) {
	r := obs.Default()
	if r == nil {
		return
	}
	add := func(stage string, d time.Duration) {
		if d > 0 {
			r.Counter(MetricStageSeconds, "stage", stage).Add(d.Seconds())
		}
	}
	add("wavelet", t.Wavelet)
	add("quantize", t.Quantize)
	add("encode", t.Encode)
	add("format", t.Format)
	add("temp_write", t.TempWrite)
	add("gzip", t.Gzip)
	add("other", t.Other())
}

// recordCompressOp records one completed top-level compression.
func recordCompressOp(kind string, rawBytes, outBytes int, t Timings) {
	r := obs.Default()
	if r == nil {
		return
	}
	r.Counter(MetricCompressOps, "kind", kind).Inc()
	r.Counter(MetricCompressRawBytes).Add(float64(rawBytes))
	r.Counter(MetricCompressOutBytes).Add(float64(outBytes))
	r.Histogram(MetricCompressWall, obs.DurationBuckets).ObserveDuration(t.Total)
	r.Counter(MetricCompressCPU).Add(t.CPUTotal.Seconds())
}

// recordDecompressOp records one completed top-level decompression.
// rawBytes is the reconstructed (uncompressed) size.
func recordDecompressOp(kind string, rawBytes int, wall time.Duration) {
	r := obs.Default()
	if r == nil {
		return
	}
	r.Counter(MetricDecompressOps, "kind", kind).Inc()
	r.Counter(MetricDecompressBytes).Add(float64(rawBytes))
	r.Histogram(MetricDecompressWall, obs.DurationBuckets).ObserveDuration(wall)
}
