// Package ckpt provides the application-level checkpoint/restart manager
// the reproduced paper's workflow needs: applications register their named
// state arrays once; Checkpoint compresses every array with a pluggable
// codec (none / gzip / fpc / the paper's lossy compressor) and writes one
// framed checkpoint stream; Restore reads such a stream back and decodes
// it into the registered arrays in place.
//
// Per the paper's §IV-D, per-array compression is embarrassingly parallel;
// every checkpoint and restore keeps up to the manager's worker count of
// registered arrays in flight (pipeline.go) and reports the per-phase
// timing breakdown that the paper's Fig. 9 plots.
package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"lossyckpt/internal/core"
	"lossyckpt/internal/entropy"
	"lossyckpt/internal/fpc"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/guard"
	"lossyckpt/internal/gzipio"
	"lossyckpt/internal/tune"
)

// Errors returned by codecs and the manager.
var (
	ErrCodec = errors.New("ckpt: codec failure")
)

// Encoded is one array's compressed representation plus accounting.
type Encoded struct {
	// Payload is the codec-specific compressed byte stream.
	Payload []byte
	// RawBytes is the uncompressed array size.
	RawBytes int
	// Timings is the per-phase compression breakdown (zero-valued phases
	// for codecs without that phase).
	Timings core.Timings
	// Guarantee is the quality annotation established for the entry (guard
	// codec only; nil otherwise).
	Guarantee *guard.Annotation
	// EntropyLabel is the entropy-stage configuration actually used
	// ("gzip", "lz4+shuffle", …) — for the lossy codec this reflects the
	// tuner's per-variable pick. Empty for codecs without the stage.
	EntropyLabel string
	// Divisions is the quantization division count used (lossy pipeline
	// only; 0 otherwise).
	Divisions int
	// ChunkTimings is the per-chunk phase breakdown under the chunked
	// lossy paths, in chunk order — the waterfall the flight-recorder
	// journal attaches to checkpoint wide events. Nil otherwise.
	ChunkTimings []core.Timings
	// Reused marks a whole-entry delta reuse: the payload was served from
	// the manager's cache because the array was byte-identical to the
	// previous checkpoint (delta mode only).
	Reused bool
	// SlabsReused / SlabsTotal account slab-level delta reuse under the
	// chunked lossy path (delta mode only; zero otherwise).
	SlabsReused int
	SlabsTotal  int
}

// Codec turns fields into bytes and back. Implementations must be safe for
// concurrent use by multiple goroutines (checkpoints encode, and restores
// decode, several arrays at once).
type Codec interface {
	// Name identifies the codec in checkpoint headers and reports.
	Name() string
	// Encode compresses one field.
	Encode(f *grid.Field) (*Encoded, error)
	// Decode reconstructs a field of the given shape from payload bytes: in
	// into, which must have that shape, or — into nil — in a new field. The
	// field returned is then into itself. A codec writes into only once
	// nothing can fail any more, so an error leaves it as it was; the one
	// exception is a chunked lossy payload, whose slabs land one by one
	// (after an error the failed slabs' planes are untouched, the others
	// decoded). A shape into does not have is an error and writes nothing.
	Decode(payload []byte, shape []int, into *grid.Field) (*grid.Field, error)
	// Lossless reports whether Decode(Encode(f)) is bit-exact.
	Lossless() bool
}

// Entry is one array on its way through a codec: what Codec.Encode gets,
// plus what the manager knows about where the bytes go and what came before.
type Entry struct {
	// Name is the variable's registered name: it keys per-variable policy
	// and tuning and labels telemetry. Empty for a bare Encode.
	Name  string
	Field *grid.Field
	// W, when non-nil, is where a codec that produces its payload piece by
	// piece writes it — the exact bytes a buffered encode returns — leaving
	// Encoded.Payload nil. At the head of a stream Checkpoint pipes the
	// writes into its segment framing, so the payload is never buffered
	// whole; behind the head W is a spill the framing drains later. Writes
	// must come from one goroutine at a time. A codec whose format has it
	// build the payload in memory anyway returns it as Payload instead and
	// leaves W alone; never both. A payload returned whole goes out as one
	// segment.
	W io.Writer
	// Slabs, when non-nil, is this variable's slab cache from the previous
	// checkpoint, for a buffered encode (W nil) by a codec that compresses
	// in slabs: clean slabs re-emit their cached frame. Such a codec reports
	// Encoded.SlabsTotal > 0; the payload is what it would be without.
	Slabs *core.SlabCache
}

// EntryEncoder is the one optional Codec extension: a codec that cares
// which variable it encodes, can write its payload out as it is produced,
// or can reuse slab-level work between checkpoints implements it, and the
// manager calls it instead of Encode. EncodeEntry(Entry{Field: f}) is
// Encode(f). Implementations must be safe for concurrent use, like Codec.
type EntryEncoder interface {
	EncodeEntry(e Entry) (*Encoded, error)
}

// --- None ------------------------------------------------------------------

// None stores arrays verbatim — the paper's "checkpoint time without
// compression" baseline.
type None struct{}

// Name implements Codec.
func (None) Name() string { return "none" }

// Lossless implements Codec.
func (None) Lossless() bool { return true }

// Encode implements Codec.
func (c None) Encode(f *grid.Field) (*Encoded, error) { return c.EncodeEntry(Entry{Field: f}) }

// EncodeEntry implements EntryEncoder. A writer reads the float image where
// it lies. A returned Payload is a copy: a replicated commit's straggler may
// still read it after the checkpoint call has returned and the application
// is mutating the array again.
func (None) EncodeEntry(e Entry) (*Encoded, error) {
	enc := &Encoded{RawBytes: e.Field.Bytes()}
	if image := grid.FloatBytes(e.Field.Data()); e.W == nil {
		enc.Payload = bytes.Clone(image)
	} else if _, err := e.W.Write(image); err != nil {
		return nil, err
	}
	return enc, nil
}

// Decode implements Codec. The payload's length is held against the shape
// before the shape sizes anything.
func (None) Decode(payload []byte, shape []int, into *grid.Field) (*grid.Field, error) {
	n, err := grid.Elems(shape...)
	if err != nil {
		return nil, err
	}
	if len(payload)%8 != 0 || len(payload)/8 != n {
		return nil, fmt.Errorf("%w: none codec payload %d bytes, shape %v needs %d", ErrCodec, len(payload), shape, 8*n)
	}
	f, err := grid.Dest(into, shape...)
	if err != nil {
		return nil, err
	}
	grid.PutFloatBytes(f.Data(), payload)
	return f, nil
}

// --- Gzip ------------------------------------------------------------------

// Gzip entropy-codes the raw array bytes losslessly — the paper's
// comparison point (Fig. 6's "gzip" bar) by default, or the LZ4-class
// fast coder with optional byte-shuffle when Entropy/Shuffle are set
// (the stream then carries the self-describing entropy envelope and the
// codec names itself "lz4").
type Gzip struct {
	// Level is a gzipio level (-2…9); use gzipio.Default normally.
	Level int
	// Entropy selects the coder (entropy.Gzip — the zero value — keeps
	// the bare gzip stream; entropy.LZ4 trades ratio for throughput).
	Entropy entropy.ID
	// Shuffle applies the byte-lane transpose pre-pass, using the packed
	// float64 width as the stride (raw array bytes are exactly that).
	Shuffle bool
}

// NewGzip returns a Gzip codec with default settings.
func NewGzip() *Gzip { return &Gzip{Level: gzipio.Default} }

// NewLZ4 returns the codec CodecByName("lz4") constructs: the LZ4-class
// entropy coder with the byte-shuffle pre-pass, the throughput-first
// lossless configuration.
func NewLZ4() *Gzip {
	return &Gzip{Level: gzipio.Default, Entropy: entropy.LZ4, Shuffle: true}
}

// Name implements Codec. The name keys restore-side codec construction
// (CodecByName), so the LZ4 configuration must not call itself "gzip";
// shuffle alone does not change the name — the envelope self-describes
// it.
func (g *Gzip) Name() string {
	if g.Entropy == entropy.LZ4 {
		return "lz4"
	}
	return "gzip"
}

// Lossless implements Codec.
func (*Gzip) Lossless() bool { return true }

// Encode implements Codec.
func (g *Gzip) Encode(f *grid.Field) (*Encoded, error) { return g.EncodeEntry(Entry{Field: f}) }

// EncodeEntry implements EntryEncoder. Every configuration reads the float
// image where it lies. The bare gzip stream goes straight onto a writer, when
// there is one, a few DEFLATE blocks at a time — the bytes a buffered encode
// returns, never held whole; a buffered encode and the enveloped
// configurations build the payload in memory (core.CompressGzipOnly) and
// return it.
func (g *Gzip) EncodeEntry(e Entry) (*Encoded, error) {
	f := e.Field
	p := entropy.Params{Codec: g.Entropy, Shuffle: g.Shuffle, GzipLevel: g.Level}
	if e.W == nil || !p.Bare() {
		res, err := core.CompressGzipOnly(f, p)
		if err != nil {
			return nil, err
		}
		return &Encoded{Payload: res.Data, RawBytes: res.RawBytes, Timings: res.Timings}, nil
	}
	start := time.Now()
	if err := gzipio.CompressTo(e.W, grid.FloatBytes(f.Data()), g.Level, gzipio.FormatGzip); err != nil {
		return nil, err
	}
	el := time.Since(start)
	return &Encoded{RawBytes: f.Bytes(), Timings: core.Timings{Gzip: el, Total: el, CPUTotal: el}}, nil
}

// Decode implements Codec.
func (g *Gzip) Decode(payload []byte, shape []int, into *grid.Field) (*grid.Field, error) {
	return core.DecompressGzipOnly(payload, into, shape...)
}

// --- FPC -------------------------------------------------------------------

// FPC applies the predictive lossless floating-point compressor of package
// fpc (experiment X3's baseline).
type FPC struct{}

// Name implements Codec.
func (*FPC) Name() string { return "fpc" }

// Lossless implements Codec.
func (*FPC) Lossless() bool { return true }

// Encode implements Codec.
func (c *FPC) Encode(f *grid.Field) (*Encoded, error) {
	data, err := fpc.Compress(f.Data(), fpc.DefaultTableBits)
	if err != nil {
		return nil, err
	}
	return &Encoded{Payload: data, RawBytes: f.Bytes()}, nil
}

// Decode implements Codec. The predictor emits values as it goes and can
// fail at any of them, so they are decoded apart and moved into into whole.
func (c *FPC) Decode(payload []byte, shape []int, into *grid.Field) (*grid.Field, error) {
	vals, err := fpc.Decompress(payload)
	if err != nil {
		return nil, err
	}
	f, err := grid.FromSlice(vals, shape...)
	if err != nil || into == nil {
		return f, err
	}
	if into, err = grid.Dest(into, shape...); err != nil {
		return nil, err
	}
	copy(into.Data(), vals)
	return into, nil
}

// --- Lossy -----------------------------------------------------------------

// Lossy is the paper's wavelet-based lossy compressor (package core).
type Lossy struct {
	// Options configures the pipeline; use core.DefaultOptions as a start.
	// Options.Workers bounds the parallelism inside one array: chunked
	// arrays compress their slabs on a worker pool of that size and whole
	// arrays shard large wavelet passes (0 = GOMAXPROCS, 1 = serial). It
	// multiplies with the manager's worker count, which is how many arrays
	// are in flight; both draw on the same GOMAXPROCS threads, and the
	// bytes written depend on neither.
	Options core.Options
	// ChunkExtent, when positive, compresses each array in slabs of that
	// many leading-axis planes (core's chunked engine), bounding peak memory
	// for very large arrays. Zero compresses whole arrays.
	ChunkExtent int
	// Tuner, when set, picks the entropy-stage configuration (codec and
	// gzip block size) per variable from probe measurements and
	// observed stage timings, overriding the corresponding Options
	// fields. The lossy stages are untouched — tuning only ever changes
	// lossless entropy framing.
	Tuner *tune.Tuner
}

// tunedOptions resolves the effective pipeline options for one variable:
// the tuner's entropy setting, when there is a tuner, overlaid on the base
// options.
func tunedOptions(opts core.Options, t *tune.Tuner, name string, f *grid.Field) core.Options {
	if t != nil {
		opts = t.Decide(name, f.Bytes(), tune.Sample(f.Data())).Apply(opts)
	}
	return opts
}

// NewLossy returns a Lossy codec with the paper's default configuration.
func NewLossy() *Lossy { return &Lossy{Options: core.DefaultOptions()} }

// Name implements Codec.
func (*Lossy) Name() string { return "lossy" }

// Lossless implements Codec.
func (*Lossy) Lossless() bool { return false }

// Encode implements Codec.
func (c *Lossy) Encode(f *grid.Field) (*Encoded, error) { return c.EncodeEntry(Entry{Field: f}) }

// EncodeNamed is Encode with the variable name, which keys the tuner's
// per-variable decisions and the entropy-selection telemetry.
func (c *Lossy) EncodeNamed(name string, f *grid.Field) (*Encoded, error) {
	return c.EncodeEntry(Entry{Name: name, Field: f})
}

// EncodeEntry implements EntryEncoder: the one place the lossy codec calls
// the pipeline. With ChunkExtent set and a writer this is the full overlap
// the streaming checkpoint exists for — slabs compress on a bounded worker
// pool while finished frames stream into W (core.CompressChunkedTo), peak
// memory O(workers × chunk) instead of O(array); buffered, the slabs go
// through the entry's slab cache, if it has one. Whole-array mode compresses
// in memory and returns the payload.
func (c *Lossy) EncodeEntry(e Entry) (*Encoded, error) {
	opts := tunedOptions(c.Options, c.Tuner, e.Name, e.Field)
	var enc *Encoded
	switch {
	case c.ChunkExtent > 0:
		var res *core.ChunkedResult
		var err error
		if e.W != nil {
			res, err = core.CompressChunkedTo(e.W, e.Field, opts, c.ChunkExtent)
		} else {
			res, err = core.CompressChunkedDelta(e.Field, opts, c.ChunkExtent, e.Slabs)
		}
		if err != nil {
			return nil, err
		}
		enc = &Encoded{Payload: res.Data, RawBytes: res.RawBytes, Timings: res.Timings, ChunkTimings: res.PerChunk}
		if e.W == nil && e.Slabs != nil {
			enc.SlabsReused, enc.SlabsTotal = res.SlabsReused, res.Chunks
		}
	default:
		res, err := core.Compress(e.Field, opts)
		if err != nil {
			return nil, err
		}
		enc = &Encoded{Payload: res.Data, RawBytes: res.RawBytes, Timings: res.Timings}
	}
	// The resolved pipeline decisions, for the journal's wide events, and
	// the entropy stage's real timing back to the tuner: the online loop.
	enc.EntropyLabel = entropy.Params{Codec: opts.EntropyCodec, Shuffle: opts.Shuffle}.Label()
	enc.Divisions = opts.Divisions
	if c.Tuner != nil {
		c.Tuner.Observe(e.Name, enc.RawBytes, enc.Timings.Gzip.Seconds())
	}
	return enc, nil
}

// Decode implements Codec. The shape argument is validated against the
// shape embedded in the lossy stream; both whole-array and chunked
// payloads are accepted.
func (c *Lossy) Decode(payload []byte, shape []int, into *grid.Field) (*grid.Field, error) {
	return core.DecompressTo(payload, c.Options.Workers, func(got ...int) (*grid.Field, error) {
		if len(got) != len(shape) {
			return nil, fmt.Errorf("%w: lossy stream is %d-D, expected %d-D", ErrCodec, len(got), len(shape))
		}
		if !slices.Equal(got, shape) {
			return nil, fmt.Errorf("%w: lossy stream shape %v, expected %v", ErrCodec, got, shape)
		}
		return grid.Dest(into, got...)
	})
}

// CodecNames lists the names CodecByName accepts, as help strings and its own
// error print them.
const CodecNames = "none, gzip, lz4, fpc, lossy, guard"

// CodecByName constructs a default-configured codec from its Name string.
func CodecByName(name string) (Codec, error) {
	switch name {
	case "none":
		return None{}, nil
	case "gzip":
		return NewGzip(), nil
	case "lz4":
		return NewLZ4(), nil
	case "fpc":
		return &FPC{}, nil
	case "lossy":
		return NewLossy(), nil
	case "guard":
		return NewGuard(guard.Policy{}), nil
	default:
		return nil, fmt.Errorf("%w: unknown codec %q (want one of %s)", ErrCodec, name, CodecNames)
	}
}
