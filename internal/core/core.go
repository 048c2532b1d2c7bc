// Package core implements the paper's primary contribution: the
// end-to-end floating-point lossy compressor of Sasaki, Sato, Endo and
// Matsuoka, "Exploration of Lossy Compression for Application-Level
// Checkpoint/Restart" (IPDPS 2015).
//
// Compress runs the four stages of the paper's Fig. 1 over one
// N-dimensional double-precision array:
//
//  1. Wavelet transformation (package wavelet) — Haar, O(n).
//  2. Quantization (package quant) — simple or spike-detecting proposed
//     method over the pooled high-frequency coefficients.
//  3. Encoding (package encode) — 1-byte codes into the average table,
//     with a bitmap separating codes from lossless passthrough values.
//  4. Formatting + gzip (packages container, gzipio) — the serialized
//     archive is DEFLATE-compressed, either in memory or via a temporary
//     file as in the paper's prototype.
//
// Decompress inverts all four stages. Only stage 2 is lossy; the overall
// reconstruction error is the quantization error plus ≤ a few ulps of
// wavelet rounding (see DESIGN.md §5).
//
// Every Compress reports the per-phase timing breakdown that the paper's
// Fig. 9 plots (wavelet / quantization+encoding / temporary-file write /
// gzip / other).
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"lossyckpt/internal/container"
	"lossyckpt/internal/encode"
	"lossyckpt/internal/entropy"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/gzipio"
	"lossyckpt/internal/quant"
	"lossyckpt/internal/wavelet"
)

// ErrOptions indicates invalid compressor options.
var ErrOptions = errors.New("core: invalid options")

// Options parameterizes the compressor. The zero value is NOT valid; start
// from DefaultOptions.
type Options struct {
	// Scheme is the wavelet kernel (default Haar, as in the paper).
	Scheme wavelet.Scheme
	// Levels is the decomposition depth (default 1, as in the paper).
	Levels int
	// Method is the quantization method (paper default: Proposed).
	Method quant.Method
	// Divisions is the paper's n (default 128, the paper's largest sweep
	// point and its Fig. 6 setting).
	Divisions int
	// SpikeDivisions is the paper's d (default 64, §IV-A).
	SpikeDivisions int
	// GzipLevel is the DEFLATE level (default gzip's own default, -6).
	GzipLevel int
	// GzipMode selects in-memory DEFLATE or the paper prototype's
	// temporary-file path (default InMemory).
	GzipMode gzipio.Mode
	// GzipFormat selects the DEFLATE framing: gzip (the paper prototype's
	// command-line tool) or zlib (the paper's proposed improvement).
	// Decompress auto-detects either.
	GzipFormat gzipio.Format
	// GzipBlock, when positive, routes stage 4c through the block-parallel
	// DEFLATE engine (gzipio.CompressParallel): the formatted stream is
	// sharded into GzipBlock-byte blocks compressed concurrently on up to
	// Workers goroutines. The output is byte-stable for a fixed
	// (GzipBlock, GzipLevel, GzipFormat) regardless of worker count, and
	// Decompress consumes it transparently. Zero keeps the serial
	// single-member DEFLATE. Requires GzipMode == InMemory — the paper
	// prototype's temp-file path exists to measure its serial cost and
	// would make a parallel stage meaningless.
	GzipBlock int
	// TmpDir is where TempFile mode puts its temporary ("" = system temp).
	TmpDir string
	// EntropyCodec selects the stage-4c coder (see internal/entropy). The
	// zero value, entropy.Gzip, keeps the paper's DEFLATE stage and — with
	// Shuffle off — produces the exact legacy byte stream, no envelope.
	// Any other selection wraps the payload in the self-describing entropy
	// envelope, which Decompress consumes transparently.
	// entropy.LZ4 trades compression ratio for >4× stage-4 throughput.
	EntropyCodec entropy.ID
	// Shuffle runs the byte-lane transpose pre-pass over the whole formatted
	// container before the entropy coder, at the container's packed float
	// width (container.PackedWidth); requires GzipMode == InMemory. It
	// predates container format 2, whose float sections are lanes already:
	// it still does what it did, but the tuner no longer selects it.
	Shuffle bool
	// PerBandQuant quantizes each wavelet sub-band separately instead of
	// pooling all high-frequency values as the paper does (ablation; see
	// DESIGN.md experiment X8). Each band gets its own average table,
	// which adapts the partition width to that band's value range.
	PerBandQuant bool
	// ZeroThreshold, when positive, zeroes every high-frequency
	// coefficient with |v| ≤ ZeroThreshold before quantization — classic
	// wavelet thresholding (ablation X9). It adds at most ZeroThreshold
	// of absolute error per coefficient but makes the code stream more
	// redundant for the gzip stage.
	ZeroThreshold float64
	// LogQuant switches the quantizer to symmetric-log partitioning
	// (extension; see quant.Config.LogScale): finer partitions near zero,
	// where the high-band values concentrate.
	LogQuant bool
	// Workers bounds the intra-array parallelism of the pipeline: the
	// wavelet transform shards large axis passes over this many goroutines,
	// and a chunked compression uses it as the chunk worker-pool size. 0
	// means GOMAXPROCS; 1 forces the serial path.
	// The compressed output is byte-identical for every worker count.
	Workers int
	// ErrorBound, when positive, overrides Divisions: the pipeline picks
	// the smallest division number whose maximum quantization error stays
	// ≤ ErrorBound (absolute, in coefficient units). This is the paper's
	// §IV-C future work — "control the errors by specifying a value" — as
	// a first-class option. When even the largest division number misses
	// the bound, compression proceeds at the cap and the Result reports
	// BoundUnreachable.
	ErrorBound float64
	// LosslessBands stores every high-frequency coefficient verbatim
	// instead of quantizing it: stage 2 emits an all-passthrough bitmap
	// with an empty code stream (quant.PassthroughAll), so the only
	// reconstruction error left is the wavelet round-trip rounding (a few
	// ulps). The container format is unchanged — only the bitmap differs —
	// which makes this the guard ladder's next-to-last rung: nearly exact
	// without giving up the wavelet+gzip framing. Overrides Method,
	// Divisions, ErrorBound and ZeroThreshold.
	LosslessBands bool

	// chunkInternal marks a per-chunk Compress issued by a chunked
	// compression: stage seconds still record (that is how per-worker CPU
	// aggregates), but operation-level series are left to the top-level
	// chunked call so one user-visible compression counts once.
	chunkInternal bool
}

// DefaultOptions returns the paper's headline configuration: single-level
// Haar, proposed quantization with n=128, d=64, in-memory gzip.
func DefaultOptions() Options {
	return Options{
		Scheme:         wavelet.Haar,
		Levels:         1,
		Method:         quant.Proposed,
		Divisions:      128,
		SpikeDivisions: quant.DefaultSpikeDivisions,
		GzipLevel:      gzipio.Default,
		GzipMode:       gzipio.InMemory,
	}
}

// Timings is the per-phase cost breakdown of one compression, matching the
// components stacked in the paper's Fig. 9.
type Timings struct {
	Wavelet   time.Duration // stage 1
	Quantize  time.Duration // stage 2
	Encode    time.Duration // stage 3 (codes + bitmap assembly)
	Format    time.Duration // stage 4a: container serialization
	TempWrite time.Duration // stage 4b: temporary-file write (TempFile mode)
	Gzip      time.Duration // stage 4c: DEFLATE
	// Total is the wall-clock duration of the operation. For a chunked
	// compression this is the time from the first chunk starting to the
	// framed stream being complete — with concurrent chunks it can be far
	// below the summed per-chunk work.
	Total time.Duration
	// CPUTotal is the summed compute time: equal to Total for a
	// single-array Compress, and the sum of the per-chunk Totals for
	// chunked compression. CPUTotal/Total is the effective parallel
	// speedup of a chunked run.
	CPUTotal time.Duration
}

// Other returns the unattributed remainder (Total minus the named phases),
// the paper's "other overheads" component. For a chunked-parallel run the
// named phases sum per-chunk CPU time and can exceed the wall-clock Total;
// Other clamps to zero in that case.
func (t Timings) Other() time.Duration {
	o := t.Total - t.Wavelet - t.Quantize - t.Encode - t.Format - t.TempWrite - t.Gzip
	if o < 0 {
		return 0
	}
	return o
}

// Result is the output of one Compress call.
type Result struct {
	// Data is the final compressed stream (gzip over the formatted
	// container).
	Data []byte
	// RawBytes is the uncompressed array size (8 bytes per element).
	RawBytes int
	// FormattedBytes is the container size before gzip.
	FormattedBytes int
	// CompressedBytes is len(Data).
	CompressedBytes int
	// NumQuantized is how many high-frequency values were quantized.
	NumQuantized int
	// NumHigh is the total number of high-frequency values.
	NumHigh int
	// SpikePartitions is the number of spiked histogram partitions the
	// proposed quantizer selected (0 for the simple method).
	SpikePartitions int
	// EffectiveDivisions is the division number actually used: Divisions
	// normally, or the bound-chosen value when Options.ErrorBound is set
	// (the maximum across bands in per-band mode).
	EffectiveDivisions int
	// BoundUnreachable reports that Options.ErrorBound could not be met
	// even at the division cap; the stream still holds the best effort.
	BoundUnreachable bool
	// MaxCoeffError is the largest absolute quantization error over the
	// high-frequency coefficients, max |v − mean(partition(v))| across all
	// bands — the coefficient-domain quantity internal/guard amplifies
	// into a reconstruction-error bound. Zero under LosslessBands. It is
	// measured after ZeroThreshold clipping, so a caller deriving a bound
	// on the original coefficients must add Options.ZeroThreshold.
	MaxCoeffError float64
	// Timings is the per-phase breakdown.
	Timings Timings
}

// CompressionRatePct returns the paper's cr (Eq. 5) in percent.
func (r *Result) CompressionRatePct() float64 {
	return 100 * float64(r.CompressedBytes) / float64(r.RawBytes)
}

func (o Options) validate() error {
	if o.Levels < 1 {
		return fmt.Errorf("%w: levels %d", ErrOptions, o.Levels)
	}
	if o.Divisions < 1 || o.Divisions > quant.MaxDivisions {
		return fmt.Errorf("%w: divisions %d", ErrOptions, o.Divisions)
	}
	if o.SpikeDivisions < 1 || o.SpikeDivisions > quant.MaxSpikeDivisions {
		return fmt.Errorf("%w: spike divisions %d (want 1..%d)", ErrOptions, o.SpikeDivisions, quant.MaxSpikeDivisions)
	}
	if o.ZeroThreshold < 0 || o.ZeroThreshold != o.ZeroThreshold {
		return fmt.Errorf("%w: zero threshold %g", ErrOptions, o.ZeroThreshold)
	}
	if o.ErrorBound < 0 || o.ErrorBound != o.ErrorBound {
		return fmt.Errorf("%w: error bound %g", ErrOptions, o.ErrorBound)
	}
	if o.Workers < 0 {
		return fmt.Errorf("%w: workers %d", ErrOptions, o.Workers)
	}
	if o.GzipBlock < 0 {
		return fmt.Errorf("%w: gzip block %d", ErrOptions, o.GzipBlock)
	}
	if o.GzipBlock > 0 && o.GzipMode != gzipio.InMemory {
		return fmt.Errorf("%w: gzip block %d requires in-memory gzip mode", ErrOptions, o.GzipBlock)
	}
	if _, err := entropy.ByID(o.EntropyCodec); err != nil {
		return fmt.Errorf("%w: %v", ErrOptions, err)
	}
	if o.EntropyCodec != entropy.Gzip && o.GzipBlock > 0 {
		return fmt.Errorf("%w: gzip block size applies only to the gzip codec", ErrOptions)
	}
	if (o.EntropyCodec != entropy.Gzip || o.Shuffle) && o.GzipMode != gzipio.InMemory {
		return fmt.Errorf("%w: codec %s/shuffle requires in-memory gzip mode", ErrOptions, o.EntropyCodec)
	}
	return nil
}

// entropyParams maps the options to one entropy-stage configuration.
func (o Options) entropyParams() entropy.Params {
	return entropy.Params{
		Codec:      o.EntropyCodec,
		Shuffle:    o.Shuffle,
		Stride:     container.PackedWidth(),
		GzipLevel:  o.GzipLevel,
		GzipFormat: o.GzipFormat,
		GzipMode:   o.GzipMode,
		GzipBlock:  o.GzipBlock,
		TmpDir:     o.TmpDir,
		Workers:    o.Workers,
	}
}

// legacyEntropy reports whether stage 4c writes the pre-PR-6 raw DEFLATE
// stream (no envelope): the default codec with no pre-pass.
func (o Options) legacyEntropy() bool {
	return o.EntropyCodec == entropy.Gzip && !o.Shuffle
}

// Compress runs the full pipeline over the field: the three steps below in
// a row. The input field is not modified.
func Compress(f *grid.Field, opts Options) (*Result, error) {
	s, err := Transform(f, opts)
	if err != nil {
		return nil, err
	}
	defer s.Release()
	res, err := s.Quantize(opts)
	if err == nil {
		err = s.Encode()
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Stages is one array between the steps of Compress: transformed once,
// quantized under any number of option sets that differ in stage 2 only,
// and the latest of those encoded if it is worth a stream. internal/guard
// decides its ladder on it; Release hands the scratch back.
type Stages struct {
	plan    *wavelet.Plan
	bufs    [3]*grid.Scratch // low band, high pool, the copy ZeroThreshold clips
	nbufs   int
	groups  [][]float64 // high-frequency pools of the latest Quantize: one, or one per band
	quants  []*quant.Quantization
	qbufs   []*quant.Scratch // what each group's quantization lives in, until Release
	res     *Result
	opts    Options
	low     []float64
	high    []float64 // as Transform left it: no Quantize writes it
	clipped []float64
	start   time.Time
	timings Timings // work not yet reported in a Result
}

// floats returns pooled scratch that lives until Release.
func (s *Stages) floats(n int) []float64 {
	b := grid.GetScratch(n)
	s.bufs[s.nbufs] = b
	s.nbufs++
	return b.S
}

// Transform is stage 1, out of place: callers keep their data.
func Transform(f *grid.Field, opts Options) (*Stages, error) {
	s := &Stages{start: time.Now()}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if max := wavelet.MaxLevels(f.Shape()); opts.Levels > max {
		return nil, fmt.Errorf("%w: %d levels exceeds max %d for shape %v", ErrOptions, opts.Levels, max, f.Shape())
	}
	var err error
	if s.plan, err = wavelet.NewPlan(f.Shape(), opts.Levels, opts.Scheme); err != nil {
		return nil, err
	}
	s.low, s.high = s.floats(s.plan.LowCount()), s.floats(s.plan.HighCount())
	if err := s.plan.Analyze(f, s.low, s.high, opts.Workers); err != nil {
		return nil, err
	}
	s.timings.Wavelet = time.Since(s.start)
	return s, nil
}

// Quantize is stage 2 under opts: it quantizes the high-frequency
// coefficients — pooled across all bands (the paper's method) or per
// sub-band — reading the pool Transform filled, or a copy of it where
// ZeroThreshold clips. The Result holds what the quantizer decided and its
// error (MaxCoeffError) but no stream: enough for an analytic verdict.
func (s *Stages) Quantize(opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	defer func() { s.timings.Quantize += time.Since(t0) }()
	clip := opts.ZeroThreshold > 0 && !opts.LosslessBands
	switch {
	case opts.PerBandQuant:
		all, err := s.bands()
		if err != nil {
			return nil, err
		}
		// Bands() lists high bands first, the low band last; drop the low.
		s.groups = all[:len(all)-1]
	case clip:
		if s.clipped == nil {
			s.clipped = s.floats(len(s.high))
		}
		copy(s.clipped, s.high)
		s.groups = [][]float64{s.clipped}
	default:
		s.groups = [][]float64{s.high}
	}
	if clip {
		for _, g := range s.groups {
			for i, v := range g {
				if v <= opts.ZeroThreshold && v >= -opts.ZeroThreshold {
					g[i] = 0
				}
			}
		}
	}
	res := &Result{RawBytes: 8 * (len(s.low) + len(s.high))}
	s.res, s.opts, s.quants = nil, opts, make([]*quant.Quantization, len(s.groups))
	qcfg := quant.Config{
		Method:         opts.Method,
		Divisions:      opts.Divisions,
		SpikeDivisions: opts.SpikeDivisions,
		LogScale:       opts.LogQuant,
	}
	for len(s.qbufs) < len(s.groups) {
		s.qbufs = append(s.qbufs, quant.GetScratch())
	}
	for i, g := range s.groups {
		res.NumHigh += len(g)
		var q *quant.Quantization
		var e float64
		var err error
		switch {
		case opts.LosslessBands:
			q = quant.PassthroughAll(len(g))
		case opts.ErrorBound > 0:
			var n int
			n, q, e, err = quant.ChooseDivisionsMeasured(g, opts.ErrorBound, opts.Method, opts.SpikeDivisions, s.qbufs[i])
			if err == quant.ErrBoundUnreachable {
				res.BoundUnreachable, err = true, nil
			}
			res.EffectiveDivisions = max(res.EffectiveDivisions, n)
		default:
			q, e, err = quant.QuantizeMeasured(g, qcfg, s.qbufs[i])
			res.EffectiveDivisions = opts.Divisions
		}
		if err != nil {
			return nil, err
		}
		res.NumQuantized += q.NumQuantized
		res.SpikePartitions += q.SpikePartitions
		res.MaxCoeffError = max(res.MaxCoeffError, e)
		s.quants[i] = q
	}
	s.res = res
	return res, nil
}

// bands splits the coefficients per sub-band (experiment X8) through the
// Mallat layout, rebuilt in scratch from the pools.
func (s *Stages) bands() ([][]float64, error) {
	buf := grid.GetScratch(len(s.low) + len(s.high))
	defer buf.Put()
	coef, err := grid.FromSlice(buf.S, s.plan.Shape()...)
	if err == nil {
		err = s.plan.ScatterLow(coef, s.low)
	}
	if err == nil {
		err = s.plan.ScatterHigh(coef, s.high)
	}
	if err != nil {
		return nil, err
	}
	return s.plan.GatherBands(coef)
}

// Encode is stages 3–4 for the latest Quantize, filling in the Result that
// call returned. It reports every stage since the last Encode, abandoned
// quantizations included, as one compression. Encoding twice is a no-op.
func (s *Stages) Encode() error {
	res, opts := s.res, s.opts
	if res == nil {
		return fmt.Errorf("core: Encode without a quantization")
	}
	if res.Data != nil {
		return nil
	}
	// Stage 3: encode.
	t0 := time.Now()
	bands := make([]*encode.EncodedBand, len(s.groups))
	for i, g := range s.groups {
		band, err := encode.Encode(g, s.quants[i])
		if err != nil {
			return err
		}
		bands[i] = band
	}
	s.timings.Encode = time.Since(t0)

	// Stage 4a: format.
	t0 = time.Now()
	arch := &container.Archive{
		Params: container.Params{
			Scheme:         opts.Scheme,
			Method:         opts.Method,
			Levels:         opts.Levels,
			Divisions:      opts.Divisions,
			SpikeDivisions: opts.SpikeDivisions,
			PerBand:        opts.PerBandQuant,
		},
		Shape: s.plan.Shape(),
		Low:   s.low,
		Bands: bands,
	}
	buf := formattedBufs.Get().(*[]byte) // dead once the entropy coder has read it
	defer formattedBufs.Put(buf)
	formatted, err := arch.AppendTo((*buf)[:0])
	if err != nil {
		return err
	}
	*buf = formatted
	res.FormattedBytes = len(formatted)
	s.timings.Format = time.Since(t0)

	// Stage 4b/4c: the entropy coder. The default configuration (gzip, no
	// shuffle) goes straight through gzipio and stays byte-identical to
	// pre-PR-6 streams; any other selection is wrapped in the entropy
	// envelope so decode paths stay self-describing.
	if opts.legacyEntropy() {
		var gz gzipio.Result
		if opts.GzipBlock > 0 {
			gz, err = gzipio.CompressParallel(formatted, opts.GzipLevel, opts.GzipFormat, gzipio.ParallelOptions{
				BlockSize: opts.GzipBlock,
				Workers:   opts.Workers,
			})
		} else {
			gz, err = gzipio.CompressFormat(formatted, opts.GzipLevel, opts.GzipMode, opts.TmpDir, opts.GzipFormat)
		}
		if err != nil {
			return err
		}
		s.timings.TempWrite = gz.TempWrite
		s.timings.Gzip = gz.Gzip
		res.Data = gz.Compressed
	} else {
		ent, err := entropy.Compress(formatted, opts.entropyParams())
		if err != nil {
			return err
		}
		s.timings.Gzip = ent.CodeTime
		res.Data = ent.Compressed
	}
	res.CompressedBytes = len(res.Data)
	s.timings.Total = time.Since(s.start)
	s.timings.CPUTotal = s.timings.Total
	res.Timings, s.quants = s.timings, nil
	s.timings, s.start = Timings{}, time.Now()
	recordStageSeconds(res.Timings)
	if !opts.chunkInternal {
		recordCompressOp("single", res.RawBytes, res.CompressedBytes, res.Timings)
		entropy.RecordSelection(opts.entropyParams())
	}
	return nil
}

// Release returns the scratch to the pool and reports the planning that no
// stream paid for (a ladder that abandoned every rung it quantized).
func (s *Stages) Release() {
	recordStageSeconds(s.timings)
	for ; s.nbufs > 0; s.nbufs-- { // last taken first: the pool hands them back in the order the next array asks
		s.bufs[s.nbufs-1].Put()
	}
	for _, b := range s.qbufs {
		b.Put()
	}
	s.qbufs = nil
}

// Decompress inverts the pipeline, reconstructing the (lossy) field from a
// stream produced by Compress or by a chunked compression:
// DecompressAnyParallel on GOMAXPROCS goroutines.
func Decompress(data []byte) (*grid.Field, error) { return DecompressAnyParallel(data, 0) }

// formattedBufs recycles the formatted container: the stage-4a output of
// Stages.Encode and the stage-4 output of decodeTo.
var formattedBufs = sync.Pool{New: func() any { return new([]byte) }}

// decodeTo is the one place a stream becomes coefficients: it inverts the
// pipeline into the field dest supplies for the stream's shape (grid.New for a
// fresh one; an array the application registered, or a chunk's plane range of
// one, on a restore), on up to workers goroutines (0 = GOMAXPROCS, 1 = serial;
// same result for every count). dest is asked once the coefficients have
// decoded cleanly, so refusing the shape, or any failure before that, leaves
// nothing written: the synthesis alone writes the field, and nothing
// after it can fail. That is the whole of the restore path's atomicity — per
// entry for a plain stream, per chunk for a chunked one.
func decodeTo(data []byte, workers int, dest func(shape ...int) (*grid.Field, error)) (*grid.Field, error) {
	// The entropy layer sniffs the envelope and dispatches to the right
	// codec; legacy payloads (raw gzip/zlib, including multi-member
	// GzipBlock streams) fall through to the DEFLATE decoders bit-exactly
	// as before, inflating members on the same worker bound.
	// The formatted bytes live only until the archive is parsed out of them:
	// each decoding goroutine inflates into the buffer the one before it left.
	buf := formattedBufs.Get().(*[]byte)
	defer formattedBufs.Put(buf)
	formatted, err := entropy.DecompressTo(*buf, data, workers)
	if err != nil {
		return nil, err
	}
	*buf = formatted
	arch, err := container.FromBytes(formatted)
	if err != nil {
		return nil, err
	}
	plan, err := wavelet.NewPlan(arch.Shape, arch.Params.Levels, arch.Params.Scheme)
	if err != nil {
		return nil, err
	}
	if len(arch.Low) != plan.LowCount() {
		return nil, fmt.Errorf("%w: low band has %d values, plan needs %d", container.ErrFormat, len(arch.Low), plan.LowCount())
	}
	if arch.Params.PerBand {
		meta := plan.Bands()
		if len(arch.Bands) != len(meta)-1 {
			return nil, fmt.Errorf("%w: %d band sections, plan has %d high bands",
				container.ErrFormat, len(arch.Bands), len(meta)-1)
		}
		groups := make([][]float64, len(meta))
		for i, b := range arch.Bands {
			if b.N != meta[i].Count {
				return nil, fmt.Errorf("%w: band %s has %d values, plan needs %d",
					container.ErrFormat, meta[i].Name, b.N, meta[i].Count)
			}
			decoded, err := b.Decode(nil)
			if err != nil {
				return nil, err
			}
			groups[i] = decoded
		}
		groups[len(meta)-1] = arch.Low
		// Per band, the coefficients are assembled in the layout and inverted from it.
		coefBuf := grid.GetScratch(plan.LowCount() + plan.HighCount())
		defer coefBuf.Put()
		coef, err := grid.FromSlice(coefBuf.S, arch.Shape...)
		if err != nil {
			return nil, err
		}
		if err := plan.ScatterBands(coef, groups); err != nil {
			return nil, err
		}
		f, err := dest(arch.Shape...)
		if err != nil {
			return nil, err
		}
		return f, plan.InverseTo(f, coef, workers)
	}
	if len(arch.Bands) != 1 {
		return nil, fmt.Errorf("%w: pooled archive with %d band sections", container.ErrFormat, len(arch.Bands))
	}
	band := arch.Band()
	if band.N != plan.HighCount() {
		return nil, fmt.Errorf("%w: high band has %d values, plan needs %d", container.ErrFormat, band.N, plan.HighCount())
	}
	highBuf := grid.GetScratch(band.N)
	defer highBuf.Put()
	high, err := band.Decode(highBuf.S[:0])
	if err != nil {
		return nil, err
	}
	f, err := dest(arch.Shape...)
	if err != nil {
		return nil, err
	}
	return f, plan.Synthesize(f, arch.Low, high, workers)
}

// RoundTrip compresses and immediately decompresses the field, returning
// the lossy reconstruction together with the compression result. It is the
// building block of the paper's error evaluations (Figs. 8 and 10).
func RoundTrip(f *grid.Field, opts Options) (*grid.Field, *Result, error) {
	res, err := Compress(f, opts)
	if err != nil {
		return nil, nil, err
	}
	g, err := Decompress(res.Data)
	if err != nil {
		return nil, nil, err
	}
	return g, res, nil
}

// CompressGzipOnly is the paper's lossless baseline (Fig. 6's "gzip" bar):
// the raw array bytes straight through DEFLATE, no lossy stages. It reuses
// the same Result bookkeeping so harness code can treat baselines
// uniformly.
func CompressGzipOnly(f *grid.Field, level int, mode gzipio.Mode, tmpDir string) (*Result, error) {
	start := time.Now()
	res := &Result{RawBytes: f.Bytes()}

	raw := grid.FloatBytes(f.Data()) // read where it lies: DEFLATE only reads it
	res.FormattedBytes = len(raw)

	gz, err := gzipio.Compress(raw, level, mode, tmpDir)
	if err != nil {
		return nil, err
	}
	res.Timings.TempWrite = gz.TempWrite
	res.Timings.Gzip = gz.Gzip
	res.Data = gz.Compressed
	res.CompressedBytes = len(gz.Compressed)
	res.Timings.Total = time.Since(start)
	res.Timings.CPUTotal = res.Timings.Total
	recordStageSeconds(res.Timings)
	recordCompressOp("gzip_only", res.RawBytes, res.CompressedBytes, res.Timings)
	return res, nil
}

// DecompressGzipOnly inverts CompressGzipOnly given the original shape, into
// the caller's field of that shape or, into nil, a new one. It also accepts
// entropy-enveloped payloads so callers that stored a lossless rung through
// a non-default codec still restore. The payload is decoded whole and its
// length held against the shape before anything is allocated by that shape or
// written to into: an error leaves into untouched. A shuffled payload's lanes
// then go straight into the field.
func DecompressGzipOnly(data []byte, into *grid.Field, shape ...int) (*grid.Field, error) {
	var f *grid.Field
	err := entropy.DecompressFloats(data, func(size int) ([]float64, error) {
		n, err := grid.Elems(shape...)
		if err != nil {
			return nil, err
		}
		if size%8 != 0 || size/8 != n {
			return nil, fmt.Errorf("core: gzip payload is %d bytes, shape %v needs %d", size, shape, 8*n)
		}
		if f, err = grid.Dest(into, shape...); err != nil {
			return nil, err
		}
		return f.Data(), nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}
