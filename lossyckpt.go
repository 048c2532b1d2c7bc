// Package lossyckpt is the public API of this repository: a lossy
// compressor for floating-point checkpoint data implementing Sasaki, Sato,
// Endo and Matsuoka, "Exploration of Lossy Compression for
// Application-Level Checkpoint/Restart" (IPDPS 2015), together with an
// application-level checkpoint/restart manager built around it.
//
// The pipeline compresses N-dimensional float64 mesh arrays in four
// stages: a Haar wavelet transform concentrates the information of smooth
// data into a small low-frequency band; the high-frequency coefficients
// are quantized (either every value, or — the paper's proposed method —
// only the values inside spiked histogram partitions, letting outliers
// pass through losslessly); quantized values are replaced by 1-byte codes
// into a table of partition means; and the formatted output — its doubles
// laid out in byte lanes — runs through a pluggable entropy stage: DEFLATE
// by default, or a pure-Go LZ4-class coder, picked per array by an online
// autotuner when asked (Options.EntropyCodec, NewTuner).
//
// # Compressing a single array
//
//	field, _ := lossyckpt.NewField(1156, 82, 2)
//	// ... fill field.Data() ...
//	res, _ := lossyckpt.Compress(field, lossyckpt.DefaultOptions())
//	restored, _ := lossyckpt.Decompress(res.Data)
//
// # Checkpointing an application
//
//	mgr := lossyckpt.NewManager(lossyckpt.NewLossyCodec(), 0)
//	mgr.Register("temperature", tempField)
//	mgr.Checkpoint(w, stepCount)
//	// after a failure:
//	rep, _ := mgr.Restore(r)
//
// Checkpoint writes one stream; CheckpointTo writes the same stream straight
// into a crash-safe store generation (internal/store). Every save
// writes stream version 2 — a codec's piecewise output in bounded segments
// as it is produced, a payload returned whole as one segment, each entry's
// length and CRC behind it — and Restore reads version 1 streams too.
//
// The subpackages under internal/ hold the individual pipeline stages, the
// application substrates used by the paper-reproduction experiments, and
// the experiment harness; this package re-exports the surface a downstream
// user needs.
package lossyckpt

import (
	"io"

	"lossyckpt/internal/ckpt"
	"lossyckpt/internal/core"
	"lossyckpt/internal/entropy"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/guard"
	"lossyckpt/internal/obs"
	"lossyckpt/internal/quant"
	"lossyckpt/internal/stats"
	"lossyckpt/internal/tune"
	"lossyckpt/internal/wavelet"
)

// Field is a dense N-dimensional float64 array in row-major order — the
// unit of checkpoint data the compressor operates on.
type Field = grid.Field

// NewField allocates a zero-filled field with the given shape.
func NewField(shape ...int) (*Field, error) { return grid.New(shape...) }

// FieldFromSlice wraps an existing backing slice without copying; the
// slice length must equal the product of the shape extents.
func FieldFromSlice(data []float64, shape ...int) (*Field, error) {
	return grid.FromSlice(data, shape...)
}

// Options parameterizes the compressor; start from DefaultOptions.
type Options = core.Options

// Result carries the compressed stream plus size and per-phase timing
// accounting.
type Result = core.Result

// Timings is the per-phase compression cost breakdown.
type Timings = core.Timings

// DefaultOptions returns the paper's headline configuration: single-level
// Haar transform, proposed quantization with n=128 divisions and d=64
// spike-detection partitions, in-memory gzip.
func DefaultOptions() Options { return core.DefaultOptions() }

// Compress runs the full lossy pipeline over a field. The input is not
// modified.
func Compress(f *Field, opts Options) (*Result, error) { return core.Compress(f, opts) }

// Decompress reconstructs the (lossy) field from a stream produced by
// Compress; all pipeline parameters travel inside the stream.
func Decompress(data []byte) (*Field, error) { return core.Decompress(data) }

// RoundTrip compresses and immediately decompresses, returning the lossy
// reconstruction alongside the compression result — the building block of
// error studies.
func RoundTrip(f *Field, opts Options) (*Field, *Result, error) { return core.RoundTrip(f, opts) }

// Quantization method selectors (the paper's §III-B).
const (
	// SimpleQuantization quantizes every high-frequency value.
	SimpleQuantization = quant.Simple
	// ProposedQuantization quantizes only values inside spiked histogram
	// partitions; outliers pass through losslessly.
	ProposedQuantization = quant.Proposed
)

// Wavelet kernel selectors.
const (
	// HaarWavelet is the paper's kernel.
	HaarWavelet = wavelet.Haar
	// CDF53Wavelet is the smoother (5,3) lifting kernel extension.
	CDF53Wavelet = wavelet.CDF53
)

// ErrorSummary aggregates relative errors the way the paper reports them
// (average / maximum / RMS, in percent).
type ErrorSummary = stats.Summary

// CompareFields returns the relative-error summary (paper Eq. 6) between
// an original and a reconstructed field of the same shape.
func CompareFields(orig, approx *Field) (ErrorSummary, error) {
	return stats.Compare(orig.Data(), approx.Data())
}

// CompressionRatePct returns the paper's cr (Eq. 5): compressed size as a
// percentage of the original. Lower is better.
func CompressionRatePct(compressedBytes, originalBytes int) float64 {
	return stats.CompressionRate(compressedBytes, originalBytes)
}

// --- Checkpoint/restart manager -------------------------------------------

// Manager registers an application's named state arrays and writes/reads
// framed checkpoint streams with a pluggable codec.
type Manager = ckpt.Manager

// Codec turns fields into bytes and back; implementations must be safe for
// concurrent use.
type Codec = ckpt.Codec

// Report aggregates one Checkpoint or Restore operation.
type Report = ckpt.Report

// NewManager returns a manager using the given codec; workers bounds how
// many registered arrays a checkpoint or restore works on at once (0 =
// GOMAXPROCS).
func NewManager(codec Codec, workers int) *Manager { return ckpt.NewManager(codec, workers) }

// NewLossyCodec returns the paper's wavelet-based lossy codec with default
// options.
func NewLossyCodec() Codec { return ckpt.NewLossy() }

// NewGzipCodec returns the lossless DEFLATE baseline codec.
func NewGzipCodec() Codec { return ckpt.NewGzip() }

// NewFPCCodec returns the predictive lossless floating-point baseline
// codec (FCM/DFCM, after Burtscher & Ratanaworabhan).
func NewFPCCodec() Codec { return &ckpt.FPC{} }

// NewRawCodec returns the no-compression codec (arrays stored verbatim).
func NewRawCodec() Codec { return ckpt.None{} }

// NewLZ4Codec returns the lossless LZ4+shuffle checkpoint codec: the
// pure-Go LZ4-class coder over byte-shuffled float images, roughly an
// order of magnitude faster than the DEFLATE baseline at a looser
// ratio.
func NewLZ4Codec() Codec { return ckpt.NewLZ4() }

// CodecByName constructs a default-configured codec from its name:
// "none", "gzip", "lz4", "fpc", "lossy" or "guard".
func CodecByName(name string) (Codec, error) { return ckpt.CodecByName(name) }

// --- Entropy stage & autotuner ---------------------------------------------

// EntropyID identifies an entropy-stage codec (Options.EntropyCodec).
type EntropyID = entropy.ID

// Entropy-stage codec selectors.
const (
	// EntropyGzip is the DEFLATE stage the paper uses (the default).
	EntropyGzip = entropy.Gzip
	// EntropyLZ4 is the pure-Go LZ4-class coder: ~10× the DEFLATE
	// throughput at a looser ratio.
	EntropyLZ4 = entropy.LZ4
)

// ParseEntropyID maps a codec name ("gzip", "lz4") to its ID.
func ParseEntropyID(name string) (EntropyID, error) { return entropy.ParseID(name) }

// Tuner picks the entropy-stage configuration (codec, DEFLATE block size)
// per variable online: it probes candidates on a
// bounded sample, caches the decision, and re-probes on use count or
// observed timing drift. Attach one to a Lossy or Guard codec via its
// Tuner field, or apply decisions to Options directly with
// Tuner.Decide(...).Apply(opts).
type Tuner = tune.Tuner

// TunerConfig parameterizes a Tuner; the zero value uses the balanced
// objective with defaults throughout.
type TunerConfig = tune.Config

// TuneObjective is what the tuner optimizes for.
type TuneObjective = tune.Objective

// Tuner objectives.
const (
	// TuneBalanced charges coding time plus projected bytes against a
	// storage bandwidth of 200 MB/s — a constant, assumed and not measured.
	TuneBalanced = tune.Balanced
	// TuneThroughput minimizes coding time alone.
	TuneThroughput = tune.Throughput
	// TuneRatio minimizes compressed size alone.
	TuneRatio = tune.Ratio
)

// NewTuner builds an online entropy autotuner.
func NewTuner(cfg TunerConfig) *Tuner { return tune.New(cfg) }

// --- Quality guard ----------------------------------------------------------

// GuardPolicy declares the reconstruction-quality guarantee the guard
// codec enforces per array: max absolute error, max relative error, a
// PSNR floor, the verification mode, and optional per-variable overrides.
type GuardPolicy = guard.Policy

// GuardAnnotation is the guarantee one checkpoint entry actually shipped
// with, carried inside the entry payload and reported back on restore.
type GuardAnnotation = guard.Annotation

// GuardVerifyMode selects how the guard checks a bound: VerifyAnalytic
// (conservative bound from the quantization tables) or VerifyDecode
// (decode and measure; paranoid).
type GuardVerifyMode = guard.VerifyMode

// Guard verification modes.
const (
	VerifyAnalytic = guard.VerifyAnalytic
	VerifyDecode   = guard.VerifyDecode
)

// NewGuardCodec wraps the lossy pipeline in bounded-error enforcement:
// every array is verified against pol and degrades down an escalation
// ladder — more divisions, the simple method, lossless bands, and
// finally bit-exact gzip — rather than violating it.
func NewGuardCodec(pol GuardPolicy) Codec { return ckpt.NewGuard(pol) }

// --- Large-array and error-bound variants ---------------------------------

// ChunkedResult aggregates a chunked (slab-by-slab) compression.
type ChunkedResult = core.ChunkedResult

// CompressChunked compresses the field in slabs of chunkExtent planes
// along axis 0 on a pool of opts.Workers goroutines (0 = all cores, 1 =
// serial), bounding peak memory for very large arrays; each slab is an
// independent stream inside one framed output, the same bytes for every
// worker count.
func CompressChunked(f *Field, opts Options, chunkExtent int) (*ChunkedResult, error) {
	return core.CompressChunked(f, opts, chunkExtent)
}

// CompressChunkedTo streams the chunked compression straight to w
// instead of buffering the framed stream: slabs compress on a bounded
// worker pool (opts.Workers) while finished frames are written in
// order, so peak memory is O(workers × chunk). The bytes written are
// identical to CompressChunked's for any worker count.
func CompressChunkedTo(w io.Writer, f *Field, opts Options, chunkExtent int) (*ChunkedResult, error) {
	return core.CompressChunkedTo(w, f, opts, chunkExtent)
}

// DecompressAny decodes either a Compress stream or a CompressChunked
// stream, sniffing the framing: the one decoder, as Decompress is.
func DecompressAny(data []byte) (*Field, error) { return core.Decompress(data) }

// PSNR returns the peak signal-to-noise ratio in decibels between an
// original and a reconstructed field — the metric the later SZ/ZFP
// literature standardizes on.
func PSNR(orig, approx *Field) (float64, error) {
	return stats.PSNR(orig.Data(), approx.Data())
}

// MaxAbsError returns max |orig_i − approx_i| between two fields — the
// quantity an absolute error bound (Options.ErrorBound) promises to cap.
func MaxAbsError(orig, approx *Field) (float64, error) {
	return stats.MaxAbsError(orig.Data(), approx.Data())
}

// --- Observability ----------------------------------------------------------

// Observer collects metrics: counters, gauges and histograms, among them
// every operation's duration and count series. What each operation did is
// the flight recorder's (the -journal flag), not the Observer's. Every
// layer — the compression pipeline, checkpoint/restore, the store — records
// on the one installed with SetDefaultObserver.
// A nil *Observer is a valid no-op, so instrumentation costs one branch
// when disabled. Expose the collected state with WritePrometheus (text
// exposition format), WriteJSON (snapshot) or WriteSummary (human table),
// or serve all three plus net/http/pprof with ServeObserver.
type Observer = obs.Registry

// NewObserver returns an empty, ready-to-record observer. Safe for
// concurrent use.
func NewObserver() *Observer { return obs.NewRegistry() }

// SetDefaultObserver installs r as the process-wide observer every layer
// records on, and returns the previous one (restore it when done).
// Passing nil disables recording again.
func SetDefaultObserver(r *Observer) *Observer { return obs.SetDefault(r) }

// ObserverServer is a live HTTP listener exposing an observer; see
// ServeObserver.
type ObserverServer = obs.Server

// ServeObserver starts an HTTP listener on addr (e.g. ":9090" or
// "127.0.0.1:0") serving /metrics (Prometheus text format),
// /metrics.json, /summary and /debug/pprof/. Close the returned server
// when done.
func ServeObserver(addr string, r *Observer) (*ObserverServer, error) { return obs.Serve(addr, r) }

// WriteObserverSummary renders the observer's state as an aligned
// end-of-run table; it writes nothing for a nil or empty observer.
func WriteObserverSummary(w io.Writer, r *Observer) error { return r.WriteSummary(w) }
