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

	"lossyckpt/internal/grid"
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

// Codec is the pluggable entropy-stage coder. Compress appends the raw
// codec payload (no envelope) to dst; Decompress inverts it.
type Codec interface {
	// Compress encodes data using the codec-relevant fields of p.
	Compress(dst, data []byte, p Params) ([]byte, error)
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

func (gzipCodec) Compress(dst, data []byte, p Params) ([]byte, error) {
	var res gzipio.Result
	var err error
	if p.GzipBlock > 0 {
		res, err = gzipio.CompressParallel(data, p.GzipLevel, p.GzipFormat, gzipio.ParallelOptions{
			BlockSize: p.GzipBlock,
			Workers:   p.Workers,
		})
	} else {
		res, err = gzipio.CompressFormat(data, p.GzipLevel, p.GzipMode, p.TmpDir, p.GzipFormat)
	}
	if err != nil {
		return nil, err
	}
	return append(dst, res.Compressed...), nil
}

func (gzipCodec) Decompress(dst, data []byte, workers int) ([]byte, error) {
	return gzipio.DecompressTo(dst[:0], data, workers)
}

// lz4Codec adapts the LZ4-class block coder to the Codec interface.
type lz4Codec struct{}

func (lz4Codec) Compress(dst, data []byte, p Params) ([]byte, error) {
	return lz4Compress(dst, data), nil
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
// instead — core does. Shuffled lanes are pooled; the coder appends its
// payload to the envelope header.
func Compress(data []byte, p Params) (Result, error) {
	c, err := ByID(p.Codec)
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	src := data
	stride := p.stride()
	if p.Shuffle {
		lanes := laneBufs.Get().(*[]byte)
		defer laneBufs.Put(lanes)
		*lanes = shuffleTo(*lanes, data, stride, true)
		src = *lanes
	}
	out := make([]byte, envelopeLen)
	copy(out, envelopeMagic)
	out[4] = envelopeVer
	out[5] = byte(p.Codec)
	if p.Shuffle {
		out[6] = flagShuffled
		out[7] = byte(stride)
	}
	if out, err = c.Compress(out, src, p); err != nil {
		return Result{}, fmt.Errorf("entropy: %s: %w", p.Codec, err)
	}
	return Result{Compressed: out, CodeTime: time.Since(start)}, nil
}

// parseEnvelope splits an enveloped stream, stride 0 when it is not
// shuffled; ok is false when data does
// not start with the magic (legacy payload).
func parseEnvelope(data []byte) (id ID, stride int, payload []byte, ok bool, err error) {
	if len(data) < envelopeLen || string(data[:4]) != envelopeMagic {
		return 0, 0, nil, false, nil
	}
	if data[4] != envelopeVer {
		return 0, 0, nil, true, fmt.Errorf("entropy: unsupported envelope version %d", data[4])
	}
	if data[6]&flagShuffled != 0 {
		if stride = int(data[7]); stride < 2 {
			return 0, 0, nil, true, fmt.Errorf("entropy: shuffled envelope with stride %d", stride)
		}
	}
	return ID(data[5]), stride, data[envelopeLen:], true, nil
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
	if len(data) < envelopeLen || string(data[:4]) != envelopeMagic || data[6]&flagShuffled == 0 {
		out, _, err := decode(dst, data, workers)
		return out, err
	}
	// The coder's output is an intermediate here: it goes into a buffer of
	// this package's own and the caller's receives the unshuffled bytes.
	lanes := laneBufs.Get().(*[]byte)
	defer laneBufs.Put(lanes)
	out, stride, err := decode(*lanes, data, workers)
	if err != nil {
		return nil, err
	}
	*lanes = out
	return shuffleTo(dst, out, stride, false), nil
}

// DecompressFloats decodes a stream of a float64 array's byte image into the
// size/8 values dest returns for the decoded size in bytes. dest is asked once
// the stream has decoded whole into a pooled buffer, so it can refuse the size
// and leave its array unwritten. Lanes of the float width go straight in.
func DecompressFloats(data []byte, dest func(size int) ([]float64, error)) error {
	buf := laneBufs.Get().(*[]byte)
	defer laneBufs.Put(buf)
	raw, stride, err := decode(*buf, data, 0)
	if err != nil {
		return err
	}
	*buf = raw
	fs, err := dest(len(raw))
	if err != nil {
		return err
	}
	switch stride {
	case 0:
		grid.PutFloatBytes(fs, raw)
	case 8:
		grid.PutLanes(fs, raw)
	default:
		grid.PutFloatBytes(fs, UnshuffleBytes(raw, stride))
	}
	return nil
}

// decode runs the stream's coder over dst (from its start, growing it) and
// returns what it wrote and the stride of the shuffle still to undo (0: none).
func decode(dst, data []byte, workers int) (out []byte, stride int, err error) {
	id, stride, payload, ok, err := parseEnvelope(data)
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		out, err = gzipCodec{}.Decompress(dst, data, workers)
		return out, 0, err
	}
	c, err := ByID(id)
	if err != nil {
		return nil, 0, err
	}
	if out, err = c.Decompress(dst, payload, workers); err != nil {
		return nil, 0, fmt.Errorf("entropy: %s: %w", id, err)
	}
	return out, stride, nil
}

// laneBufs recycles the byte lanes a shuffled stream is coded from and
// decodes to, and what DecompressFloats decodes before the array gets it.
var laneBufs = sync.Pool{New: func() any { return new([]byte) }}

// Identify names the entropy coding of a stream without decoding it:
// "gzip"/"zlib" for legacy payloads, the envelope label ("lz4",
// "gzip+shuffle", …) for enveloped ones, "unknown" otherwise. Used by
// the inspect/fsck reporting paths.
func Identify(data []byte) string {
	if id, stride, _, ok, err := parseEnvelope(data); ok {
		if err != nil {
			return "unknown"
		}
		label := id.String()
		if stride != 0 {
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
