// Package entropy makes the pipeline's final stage pluggable. The paper
// hard-wires gzip (§III-D), the largest single stage of its compression time
// (Fig. 9-10) and of this repository's until gzipio got its own encoder;
// this package fronts that stage with a Codec interface — the gzipio
// DEFLATE engine and a pure-Go LZ4-class coder (lz4.go) — plus an optional
// byte-shuffle pre-pass (shuffle.go), so the autotuner (internal/tune) can
// trade ratio for throughput per variable.
//
// # Envelope
//
// A non-default selection is recorded in a self-describing envelope so
// every decode path stays format-blind:
//
//	offset 0: magic "LKE1" (4 bytes)
//	offset 4: version (1)
//	offset 5: codec ID byte
//	offset 6: flags byte (bit 0: byte-shuffle applied)
//	offset 7: shuffle stride byte
//	offset 8: codec payload
//
// Streams produced before this PR carry no envelope; Decompress sniffs
// the gzip (0x1f 0x8b) and zlib (0x78) magics and maps them to the gzip
// codec, so pre-PR-6 payloads decode bit-exactly. Conversely the default
// configuration (gzip, no shuffle) still writes raw DEFLATE streams with
// no envelope, so default-path output remains byte-identical too.
package entropy

import (
	"fmt"
	"sync"
	"time"

	"lossyckpt/internal/gzipio"
	"lossyckpt/internal/obs"
)

// ID identifies a codec in the envelope's codec-ID byte. The zero value
// is Gzip, the repository-wide default.
type ID byte

const (
	// Gzip is the DEFLATE engine (gzipio), the paper's stage.
	Gzip ID = 0
	// LZ4 is the pure-Go LZ4-class literal/match coder.
	LZ4 ID = 1
)

// String implements fmt.Stringer.
func (id ID) String() string {
	switch id {
	case Gzip:
		return "gzip"
	case LZ4:
		return "lz4"
	default:
		return fmt.Sprintf("codec(%d)", byte(id))
	}
}

// ParseID maps a CLI name to a codec ID.
func ParseID(name string) (ID, error) {
	switch name {
	case "", "gzip":
		return Gzip, nil
	case "lz4":
		return LZ4, nil
	default:
		return Gzip, fmt.Errorf("entropy: unknown codec %q (want gzip or lz4)", name)
	}
}

// Names lists the selectable codec names for CLI help strings.
func Names() []string { return []string{"gzip", "lz4"} }

// Envelope layout.
const (
	envelopeMagic = "LKE1"
	envelopeVer   = 1
	envelopeLen   = 8
	flagShuffled  = 1 << 0
)

// DefaultStride is the shuffle lane width when none is given: the
// container packs float64 values (container.PackedWidth pins this; core
// forwards it so the two cannot drift apart silently).
const DefaultStride = 8

// MetricCodecSelected counts entropy-stage encodes, labeled
// codec=gzip|gzip+shuffle|lz4|lz4+shuffle. Which variable got which is on
// the journal: the ckpt.checkpoint entries and the tune.decision notes.
const MetricCodecSelected = "lossyckpt_entropy_codec_selected_total"

// Params configures one entropy-stage encode.
type Params struct {
	// Codec selects the coder; the zero value is Gzip.
	Codec ID
	// Shuffle applies the byte-lane transpose over the whole input before
	// the coder: for raw arrays (a format 2 container is laned already).
	Shuffle bool
	// Stride is the shuffle lane width; 0 means DefaultStride.
	Stride int
	// GzipLevel, GzipFormat, GzipMode, GzipBlock, TmpDir configure the
	// gzip codec exactly as core.Options does (GzipBlock > 0 shards via
	// gzipio.CompressParallel).
	GzipLevel  int
	GzipFormat gzipio.Format
	GzipMode   gzipio.Mode
	GzipBlock  int
	TmpDir     string
	// Workers bounds parallel gzip workers; 0 means GOMAXPROCS.
	Workers int
}

// Label is the metric/report label for the selection: the codec name,
// "+shuffle"-suffixed when the pre-pass is on.
func (p Params) Label() string {
	if p.Shuffle {
		return p.Codec.String() + "+shuffle"
	}
	return p.Codec.String()
}

func (p Params) stride() int {
	if p.Stride <= 0 {
		return DefaultStride
	}
	if p.Stride > 255 {
		return 255
	}
	return p.Stride
}

// Codec is the pluggable entropy-stage coder. Compress returns the raw
// codec payload (no envelope); Decompress inverts it.
type Codec interface {
	// ID is the envelope codec-ID byte value.
	ID() ID
	// Name is the stable CLI/report name.
	Name() string
	// Compress encodes data using the codec-relevant fields of p.
	Compress(data []byte, p Params) ([]byte, error)
	// Decompress decodes a payload produced by Compress into dst's
	// capacity where it can, growing it where it must. workers bounds
	// parallel decode where the format supports it.
	Decompress(dst, data []byte, workers int) ([]byte, error)
}

// ByID returns the codec registered for id.
func ByID(id ID) (Codec, error) {
	switch id {
	case Gzip:
		return gzipCodec{}, nil
	case LZ4:
		return lz4Codec{}, nil
	default:
		return nil, fmt.Errorf("entropy: unknown codec ID %d", byte(id))
	}
}

// gzipCodec adapts the gzipio engine to the Codec interface.
type gzipCodec struct{}

func (gzipCodec) ID() ID       { return Gzip }
func (gzipCodec) Name() string { return "gzip" }

func (gzipCodec) Compress(data []byte, p Params) ([]byte, error) {
	if p.GzipBlock > 0 {
		res, err := gzipio.CompressParallel(data, p.GzipLevel, p.GzipFormat, gzipio.ParallelOptions{
			BlockSize: p.GzipBlock,
			Workers:   p.Workers,
		})
		if err != nil {
			return nil, err
		}
		return res.Compressed, nil
	}
	res, err := gzipio.CompressFormat(data, p.GzipLevel, p.GzipMode, p.TmpDir, p.GzipFormat)
	if err != nil {
		return nil, err
	}
	return res.Compressed, nil
}

func (gzipCodec) Decompress(dst, data []byte, workers int) ([]byte, error) {
	return gzipio.DecompressTo(dst[:0], data, workers)
}

// lz4Codec adapts the LZ4-class block coder to the Codec interface.
type lz4Codec struct{}

func (lz4Codec) ID() ID       { return LZ4 }
func (lz4Codec) Name() string { return "lz4" }

func (lz4Codec) Compress(data []byte, p Params) ([]byte, error) {
	return lz4Compress(data), nil
}

func (lz4Codec) Decompress(dst, data []byte, workers int) ([]byte, error) {
	return lz4Decompress(dst, data)
}

// Result carries the envelope-wrapped stream and the coding time, the
// figure core's Timings.Gzip (stage-4 seconds) accumulates.
type Result struct {
	Compressed []byte
	CodeTime   time.Duration
}

// Compress runs the entropy stage per p and wraps the payload in the
// self-describing envelope. Callers wanting legacy byte-identity for the
// default configuration (gzip, no shuffle) should call gzipio directly
// instead — core does.
func Compress(data []byte, p Params) (Result, error) {
	c, err := ByID(p.Codec)
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	src := data
	stride := p.stride()
	if p.Shuffle {
		src = ShuffleBytes(data, stride)
	}
	payload, err := c.Compress(src, p)
	if err != nil {
		return Result{}, fmt.Errorf("entropy: %s: %w", c.Name(), err)
	}
	out := make([]byte, envelopeLen, envelopeLen+len(payload))
	copy(out, envelopeMagic)
	out[4] = envelopeVer
	out[5] = byte(p.Codec)
	if p.Shuffle {
		out[6] = flagShuffled
		out[7] = byte(stride)
	}
	out = append(out, payload...)
	return Result{Compressed: out, CodeTime: time.Since(start)}, nil
}

// parseEnvelope splits an enveloped stream; ok is false when data does
// not start with the magic (legacy payload).
func parseEnvelope(data []byte) (id ID, shuffled bool, stride int, payload []byte, ok bool, err error) {
	if len(data) < envelopeLen || string(data[:4]) != envelopeMagic {
		return 0, false, 0, nil, false, nil
	}
	if data[4] != envelopeVer {
		return 0, false, 0, nil, true, fmt.Errorf("entropy: unsupported envelope version %d", data[4])
	}
	id = ID(data[5])
	shuffled = data[6]&flagShuffled != 0
	stride = int(data[7])
	if shuffled && stride < 2 {
		return 0, false, 0, nil, true, fmt.Errorf("entropy: shuffled envelope with stride %d", stride)
	}
	return id, shuffled, stride, data[envelopeLen:], true, nil
}

// Decompress inverts Compress. Streams without the envelope are legacy
// pre-PR-6 payloads: raw gzip or zlib, decoded through the gzip codec
// bit-exactly as before. workers bounds parallel member decode.
func Decompress(data []byte, workers int) ([]byte, error) {
	return DecompressTo(nil, data, workers)
}

// DecompressTo is Decompress into a buffer the caller keeps: the codec
// writes over dst (from its start) and grows it as decoded bytes arrive, so
// a caller decoding payload after payload hands back what it got last time.
// The result may or may not share dst's array.
func DecompressTo(dst, data []byte, workers int) ([]byte, error) {
	id, shuffled, stride, payload, ok, err := parseEnvelope(data)
	if err != nil {
		return nil, err
	}
	if !ok {
		return gzipCodec{}.Decompress(dst, data, workers)
	}
	c, err := ByID(id)
	if err != nil {
		return nil, err
	}
	if !shuffled {
		if dst, err = c.Decompress(dst, payload, workers); err != nil {
			return nil, fmt.Errorf("entropy: %s: %w", c.Name(), err)
		}
		return dst, nil
	}
	// The coder's output is an intermediate here: it goes into a buffer of
	// this package's own and the caller's receives the unshuffled bytes.
	lanes := laneBufs.Get().(*[]byte)
	defer laneBufs.Put(lanes)
	out, err := c.Decompress(*lanes, payload, workers)
	if err != nil {
		return nil, fmt.Errorf("entropy: %s: %w", c.Name(), err)
	}
	*lanes = out
	return unshuffleTo(dst, out, stride), nil
}

// laneBufs recycles the byte lanes a shuffled stream decodes to before
// DecompressTo transposes them back.
var laneBufs = sync.Pool{New: func() any { return new([]byte) }}

// Identify names the entropy coding of a stream without decoding it:
// "gzip"/"zlib" for legacy payloads, the envelope label ("lz4",
// "gzip+shuffle", …) for enveloped ones, "unknown" otherwise. Used by
// the inspect/fsck reporting paths.
func Identify(data []byte) string {
	if id, shuffled, _, _, ok, err := parseEnvelope(data); ok {
		if err != nil {
			return "unknown"
		}
		label := id.String()
		if shuffled {
			label += "+shuffle"
		}
		return label
	}
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		return "gzip"
	}
	if len(data) >= 1 && data[0] == 0x78 {
		return "zlib"
	}
	return "unknown"
}

// RecordSelection bumps the codec-selection counter for one entropy
// encode on the process registry, labeled p.Label().
func RecordSelection(p Params) {
	if reg := obs.Default(); reg != nil {
		reg.Counter(MetricCodecSelected, "codec", p.Label()).Inc()
	}
}
