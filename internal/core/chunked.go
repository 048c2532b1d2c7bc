package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"lossyckpt/internal/entropy"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/obs"
)

// recordChunkedCompress records the operation-level series for one
// completed chunked compression (serial or parallel). The per-chunk stage
// seconds were already folded in by the chunk-internal Compress calls.
func recordChunkedCompress(opts Options, res *ChunkedResult) {
	o := opts.observer()
	if o == nil {
		return
	}
	recordCompressOp(o, "chunked", res.RawBytes, res.StreamBytes, res.Timings)
	o.Counter(MetricCompressChunks).Add(float64(res.Chunks))
	entropy.RecordSelection(o, opts.entropyParams().Label(), opts.VarName)
}

// The paper stresses that compression must be "not only fast but also
// scalable to checkpoint size" (§II-A) and that its O(n) pipeline keeps
// its advantage "with larger checkpoint sizes" (§IV-D). Chunked
// compression operationalizes that: the array is split along axis 0 into
// slabs, each slab runs through the full pipeline independently, and the
// output frames the per-chunk streams. Peak additional memory is one slab
// instead of one array, and chunks decompress independently.
//
// Chunked layout (little-endian):
//
//	uint32 magic "LKCC"
//	uint16 version
//	uint16 ndims, int64 extents…   (full array shape)
//	uint32 chunk count
//	per chunk: uint32 slab extent, uint64 payload length, payload
//
// Each payload is a complete Compress stream (self-describing, CRC'd).

// ErrChunked indicates malformed chunked-stream data.
var ErrChunked = errors.New("core: malformed chunked stream")

const (
	chunkedMagic   = 0x43434B4C // "LKCC"
	chunkedVersion = 1
)

// ChunkedResult aggregates a chunked compression.
type ChunkedResult struct {
	// Data is the framed multi-chunk stream. CompressChunkedTo streams the
	// frames to its writer instead of buffering them, so Data is nil there;
	// StreamBytes carries the size either way.
	Data []byte
	// StreamBytes is the total framed stream length, header and per-chunk
	// frames included — len(Data) for the buffered paths, the byte count
	// written to w for CompressChunkedTo.
	StreamBytes int
	// Chunks is the number of slabs.
	Chunks int
	// RawBytes and CompressedBytes sum over chunks (CompressedBytes
	// excludes the small framing overhead; StreamBytes includes it).
	RawBytes        int
	CompressedBytes int
	// Timings aggregates the per-chunk phase breakdowns. The named phases
	// and CPUTotal sum over chunks; Total is the wall-clock duration of
	// the whole chunked compression. Under CompressChunkedParallel the
	// summed CPUTotal exceeds the wall-clock Total — their ratio is the
	// achieved parallel speedup. (Before the parallel engine existed,
	// Total was the per-chunk sum; that quantity is now CPUTotal.)
	Timings Timings
	// Workers is the worker-pool size the compression actually used
	// (1 for the serial CompressChunked path).
	Workers int
	// MaxCoeffError is the largest per-chunk Result.MaxCoeffError — the
	// worst quantization error across every slab, usable the same way as
	// the single-array field.
	MaxCoeffError float64
	// PerChunk holds each chunk's own phase breakdown in chunk order —
	// the per-chunk waterfall the flight-recorder journal attaches to
	// checkpoint wide events. Identical across the serial, parallel and
	// streaming paths (chunks are folded in deterministic order).
	PerChunk []Timings
	// SlabsReused counts slabs whose compressed frame came from a
	// SlabCache instead of the pipeline (CompressChunkedDelta only; zero
	// elsewhere). Reused slabs contribute bytes and quality stats to the
	// aggregate but no phase CPU.
	SlabsReused int
}

// CompressionRatePct returns cr (Eq. 5) in percent, framing included.
func (r *ChunkedResult) CompressionRatePct() float64 {
	return 100 * float64(r.StreamBytes) / float64(r.RawBytes)
}

// chunkedHeader frames the stream prefix shared by the serial and parallel
// compressors.
func chunkedHeader(shape []int, nChunks int) []byte {
	hdr := make([]byte, 0, 64)
	hdr = append32(hdr, chunkedMagic)
	hdr = append16(hdr, chunkedVersion)
	hdr = append16(hdr, uint16(len(shape)))
	for _, e := range shape {
		hdr = append64(hdr, uint64(e))
	}
	hdr = append32(hdr, uint32(nChunks))
	return hdr
}

// slabAt wraps (without copying) the chunkExtent-bounded slab starting at
// the given leading-axis plane.
func slabAt(f *grid.Field, shape []int, planeElems, start, ext int) (*grid.Field, error) {
	slabShape := append([]int{ext}, shape[1:]...)
	return grid.FromSlice(f.Data()[start*planeElems:(start+ext)*planeElems], slabShape...)
}

// addChunk folds one chunk's accounting into the aggregate: phases and
// CPUTotal sum; the caller sets the wall-clock Total at the end.
func (r *ChunkedResult) addChunk(cres *Result) {
	r.Chunks++
	r.CompressedBytes += cres.CompressedBytes
	r.Timings.Wavelet += cres.Timings.Wavelet
	r.Timings.Quantize += cres.Timings.Quantize
	r.Timings.Encode += cres.Timings.Encode
	r.Timings.Format += cres.Timings.Format
	r.Timings.TempWrite += cres.Timings.TempWrite
	r.Timings.Gzip += cres.Timings.Gzip
	r.Timings.CPUTotal += cres.Timings.Total
	r.PerChunk = append(r.PerChunk, cres.Timings)
	if cres.MaxCoeffError > r.MaxCoeffError {
		r.MaxCoeffError = cres.MaxCoeffError
	}
}

// CompressChunked splits the field into slabs of chunkExtent planes along
// axis 0 and compresses each independently with the same options. The
// trailing slab may be smaller; every slab must satisfy the wavelet level
// constraint, so chunkExtent must be ≥ 2^levels. Chunks are processed one
// at a time on the calling goroutine; CompressChunkedParallel produces a
// byte-identical stream using all cores.
func CompressChunked(f *grid.Field, opts Options, chunkExtent int) (*ChunkedResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if chunkExtent < 1 {
		return nil, fmt.Errorf("%w: chunk extent %d", ErrOptions, chunkExtent)
	}
	wall := time.Now()
	shape := f.Shape()
	planeElems := f.Len() / shape[0]

	res := &ChunkedResult{RawBytes: f.Bytes(), Workers: 1}
	nChunks := (shape[0] + chunkExtent - 1) / chunkExtent
	out := append([]byte(nil), chunkedHeader(shape, nChunks)...)

	// Per-chunk Compress calls keep recording stage seconds (that is how
	// the per-stage CPU counters aggregate), but the operation-level
	// series are recorded once below for the whole chunked compression.
	opts.chunkInternal = true

	for start := 0; start < shape[0]; start += chunkExtent {
		ext := chunkExtent
		if rem := shape[0] - start; rem < ext {
			ext = rem
		}
		slab, err := slabAt(f, shape, planeElems, start, ext)
		if err != nil {
			return nil, err
		}
		cres, err := Compress(slab, opts)
		if err != nil {
			return nil, fmt.Errorf("core: chunk at plane %d: %w", start, err)
		}
		var frame [12]byte
		binary.LittleEndian.PutUint32(frame[0:], uint32(ext))
		binary.LittleEndian.PutUint64(frame[4:], uint64(len(cres.Data)))
		out = append(out, frame[:]...)
		out = append(out, cres.Data...)
		res.addChunk(cres)
	}
	res.Data = out
	res.StreamBytes = len(out)
	res.Timings.Total = time.Since(wall)
	recordChunkedCompress(opts, res)
	return res, nil
}

// chunkFrame is one parsed chunk of a chunked stream: its leading-axis
// extent, starting plane, and compressed payload (aliasing the input).
type chunkFrame struct {
	ext     int
	plane   int
	payload []byte
}

// parseChunked validates the framing of a CompressChunked stream and
// returns the array shape plus every chunk's frame. Payload slices alias
// data. Parsing is cheap (header and length fields only) — payload
// decompression is left to the caller so it can run serially or on a
// worker pool.
func parseChunked(data []byte) (shape []int, frames []chunkFrame, err error) {
	pos := 0
	need := func(n int) ([]byte, error) {
		if pos+n > len(data) {
			return nil, fmt.Errorf("%w: truncated at byte %d", ErrChunked, pos)
		}
		b := data[pos : pos+n]
		pos += n
		return b, nil
	}
	b, err := need(4)
	if err != nil {
		return nil, nil, err
	}
	if binary.LittleEndian.Uint32(b) != chunkedMagic {
		return nil, nil, fmt.Errorf("%w: bad magic", ErrChunked)
	}
	if b, err = need(2); err != nil {
		return nil, nil, err
	}
	if v := binary.LittleEndian.Uint16(b); v != chunkedVersion {
		return nil, nil, fmt.Errorf("%w: version %d", ErrChunked, v)
	}
	if b, err = need(2); err != nil {
		return nil, nil, err
	}
	nd := int(binary.LittleEndian.Uint16(b))
	if nd == 0 || nd > grid.MaxDims {
		return nil, nil, fmt.Errorf("%w: ndims %d", ErrChunked, nd)
	}
	shape = make([]int, nd)
	elems := uint64(1)
	for d := range shape {
		if b, err = need(8); err != nil {
			return nil, nil, err
		}
		e := binary.LittleEndian.Uint64(b)
		if e == 0 || e > 1<<31 {
			return nil, nil, fmt.Errorf("%w: extent %d", ErrChunked, e)
		}
		shape[d] = int(e)
		elems *= e
	}
	// Plausibility cap mirroring container.FromBytes: chunk payloads are
	// gzip-compressed containers, each storing at least a bitmap bit per
	// value, so a genuine stream cannot declare vastly more elements
	// than its size supports (gzip adds up to ~1000× on constant data;
	// allow 2^16 slack before rejecting).
	if elems>>16 > uint64(len(data)) {
		return nil, nil, fmt.Errorf("%w: shape %v declares %d elements for %d input bytes", ErrChunked, shape, elems, len(data))
	}
	if b, err = need(4); err != nil {
		return nil, nil, err
	}
	nChunks := int(binary.LittleEndian.Uint32(b))
	if nChunks < 1 || nChunks > shape[0] {
		return nil, nil, fmt.Errorf("%w: chunk count %d for extent %d", ErrChunked, nChunks, shape[0])
	}

	frames = make([]chunkFrame, 0, nChunks)
	plane := 0
	for c := 0; c < nChunks; c++ {
		if b, err = need(4); err != nil {
			return nil, nil, err
		}
		ext := int(binary.LittleEndian.Uint32(b))
		if b, err = need(8); err != nil {
			return nil, nil, err
		}
		plen := binary.LittleEndian.Uint64(b)
		if plen > uint64(len(data)-pos) {
			return nil, nil, fmt.Errorf("%w: chunk %d payload %d bytes", ErrChunked, c, plen)
		}
		payload, err := need(int(plen))
		if err != nil {
			return nil, nil, err
		}
		if ext < 1 || plane+ext > shape[0] {
			return nil, nil, fmt.Errorf("%w: chunk %d extent %d at plane %d", ErrChunked, c, ext, plane)
		}
		frames = append(frames, chunkFrame{ext: ext, plane: plane, payload: payload})
		plane += ext
	}
	if plane != shape[0] {
		return nil, nil, fmt.Errorf("%w: chunks cover %d of %d planes", ErrChunked, plane, shape[0])
	}
	if pos != len(data) {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes", ErrChunked, len(data)-pos)
	}
	return shape, frames, nil
}

// IdentifyEntropy names the entropy coding of a compressed stream
// without decoding it: for chunked streams the first chunk's framing is
// reported (all chunks of one compression share it), for single streams
// the payload itself. Unrecognized bytes report "unknown".
func IdentifyEntropy(data []byte) string {
	if len(data) >= 4 && binary.LittleEndian.Uint32(data) == chunkedMagic {
		if _, frames, err := parseChunked(data); err == nil && len(frames) > 0 {
			return entropy.Identify(frames[0].payload)
		}
		return "unknown"
	}
	return entropy.Identify(data)
}

// decodeChunkInto decompresses one chunk payload straight into the chunk's
// (disjoint) plane range of f, once its shape is seen to be that range's.
func decodeChunkInto(f *grid.Field, shape []int, planeElems, c int, fr chunkFrame, workers int) error {
	_, err := decodeTo(fr.payload, workers, func(got ...int) (*grid.Field, error) {
		if got[0] != fr.ext || !slices.Equal(got[1:], shape[1:]) {
			return nil, fmt.Errorf("%w: chunk %d shape %v at plane %d", ErrChunked, c, got, fr.plane)
		}
		return slabAt(f, shape, planeElems, fr.plane, fr.ext)
	})
	if err != nil && !errors.Is(err, ErrChunked) {
		err = fmt.Errorf("core: chunk %d: %w", c, err)
	}
	return err
}

// DecompressChunked reconstructs the field from a CompressChunked stream,
// decoding chunks one at a time on the calling goroutine.
func DecompressChunked(data []byte) (*grid.Field, error) {
	start := time.Now()
	shape, frames, err := parseChunked(data)
	if err != nil {
		return nil, err
	}
	f, err := grid.New(shape...)
	if err != nil {
		return nil, err
	}
	planeElems := f.Len() / shape[0]
	for c, fr := range frames {
		if err := decodeChunkInto(f, shape, planeElems, c, fr, 0); err != nil {
			return nil, err
		}
	}
	recordDecompressOp(obs.Default(), "chunked", f.Bytes(), time.Since(start))
	return f, nil
}

// DecompressAny decodes either a plain Compress stream or a chunked
// CompressChunked stream, sniffing the leading magic bytes.
func DecompressAny(data []byte) (*grid.Field, error) {
	if len(data) >= 4 && binary.LittleEndian.Uint32(data) == chunkedMagic {
		return DecompressChunked(data)
	}
	return Decompress(data)
}

func append16(b []byte, v uint16) []byte {
	var t [2]byte
	binary.LittleEndian.PutUint16(t[:], v)
	return append(b, t[:]...)
}

func append32(b []byte, v uint32) []byte {
	var t [4]byte
	binary.LittleEndian.PutUint32(t[:], v)
	return append(b, t[:]...)
}

func append64(b []byte, v uint64) []byte {
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], v)
	return append(b, t[:]...)
}
