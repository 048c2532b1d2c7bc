package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lossyckpt/internal/entropy"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/obs"
)

// chunked.go is the chunked stream: its layout, its parser and the one
// decoder. The paper stresses that compression must be "not only fast but
// also scalable to checkpoint size" (§II-A) and that its O(n) pipeline keeps
// its advantage "with larger checkpoint sizes" (§IV-D). Chunked compression
// operationalizes that: the array is split along axis 0 into slabs, each slab
// runs through the full pipeline independently (chunked_engine.go), and the
// output frames the per-chunk streams. Slabs are independent in both
// directions, so a bounded pool compresses or decodes them side by side, and
// neither the bytes written nor the field reconstructed depend on its size.
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

// chunkedHeader frames the stream prefix.
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

// chunkFrame is one parsed chunk of a chunked stream: its leading-axis
// extent, starting plane, and compressed payload (aliasing the input).
type chunkFrame struct {
	ext     int
	plane   int
	payload []byte
}

// parseChunked validates the framing of a chunked stream and returns the
// array shape plus every chunk's frame. Payload slices alias data. Parsing
// is cheap (header and length fields only); the payloads are decoded on the
// pool.
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

// DecompressAnyParallel is DecompressTo into a new field.
func DecompressAnyParallel(data []byte, workers int) (*grid.Field, error) {
	return DecompressTo(data, workers, grid.New)
}

// DecompressTo is the decoder: it reconstructs the field from a plain Compress
// stream or a chunked one, told apart by the leading magic, on up to workers
// goroutines (0 = GOMAXPROCS, 1 = serial), in the field dest supplies for the
// stream's shape — grid.New for a fresh one, or an array the caller already
// owns, refused by returning an error. The reconstruction is identical for
// every worker count.
//
// What a failed decode leaves in a field the caller owns: a plain stream
// writes it only in the wavelet inverse's last pass, after every step that
// can fail, so an error means untouched. A chunked stream's payloads decode on
// the pool straight into their disjoint plane ranges, each by that same rule:
// after an error the planes of the chunks that failed are untouched and the
// others hold the decoded array. Framing that does not parse, or a shape dest
// refuses, writes nothing.
func DecompressTo(data []byte, workers int, dest func(shape ...int) (*grid.Field, error)) (*grid.Field, error) {
	start := time.Now()
	if len(data) < 4 || binary.LittleEndian.Uint32(data) != chunkedMagic {
		f, err := decodeTo(data, workers, dest)
		if err == nil {
			recordDecompressOp(obs.Default(), "single", f.Bytes(), time.Since(start))
		}
		return f, err
	}
	shape, frames, err := parseChunked(data)
	if err != nil {
		return nil, err
	}
	f, err := dest(shape...)
	if err != nil {
		return nil, err
	}
	planeElems := f.Len() / shape[0]
	pool := workers
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	// Chunks side by side already use the pool; only a pool of one leaves
	// the caller's count to the wavelet inverse inside each chunk.
	inner := workers
	if pool = min(pool, len(frames)); pool > 1 {
		inner = 1
	}
	errs := make([]error, len(frames))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := int(next.Add(1)) - 1; c < len(frames); c = int(next.Add(1)) - 1 {
				errs[c] = decodeChunkInto(f, shape, planeElems, c, frames[c], inner)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	recordDecompressOp(obs.Default(), "chunked", f.Bytes(), time.Since(start))
	return f, nil
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
