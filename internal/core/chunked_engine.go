// chunked_engine.go is the one road an array takes to a chunked stream
// (layout in chunked.go). compressChunks fans the slabs over a bounded worker
// pool and hands the stream to its caller piece by piece, in order, on the
// caller's goroutine; what the exported entry points differ in is only where
// the pieces go and whether a cache comes along:
//
//   - CompressChunkedTo writes each piece to an io.Writer as it is ready, so
//     store I/O overlaps the workers' compute and peak extra memory is
//     O(workers × chunk);
//   - CompressChunkedDelta collects them and joins the stream once, at its
//     exact size, carrying a SlabCache between calls: a slab whose raw bytes
//     are unchanged since the cache was filled re-emits its cached frame and
//     skips the pipeline, so compression CPU scales with the mutated
//     fraction (scientific time-stepping often leaves most of an array
//     untouched between checkpoints);
//   - CompressChunked is that with no cache.
//
// Per-slab compression is deterministic, so a cached frame IS the frame a
// recompression would produce, and frames leave in chunk order: the stream is
// byte-identical for every entry point, worker count and cache state.
package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lossyckpt/internal/entropy"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/obs"
)

// ChunkedResult aggregates a chunked compression.
type ChunkedResult struct {
	// Data is the framed multi-chunk stream. CompressChunkedTo streams the
	// frames to its writer instead of buffering them, so Data is nil there;
	// StreamBytes carries the size either way.
	Data []byte
	// StreamBytes is the total framed stream length, header and per-chunk
	// frames included — len(Data) for the buffered entry points, the byte
	// count written to w for CompressChunkedTo.
	StreamBytes int
	// Chunks is the number of slabs.
	Chunks int
	// RawBytes and CompressedBytes sum over chunks (CompressedBytes
	// excludes the small framing overhead; StreamBytes includes it).
	RawBytes        int
	CompressedBytes int
	// Timings aggregates the per-chunk phase breakdowns. The named phases
	// and CPUTotal sum over chunks; Total is the wall-clock duration from
	// the first chunk starting to the last piece of the stream handed over.
	// With more than one worker the summed CPUTotal exceeds the wall-clock
	// Total — their ratio is the achieved parallel speedup.
	Timings Timings
	// Workers is the worker-pool size the compression actually used
	// (Options.Workers resolved, at most one per chunk).
	Workers int
	// MaxCoeffError is the largest per-chunk Result.MaxCoeffError — the
	// worst quantization error across every slab, usable the same way as
	// the single-array field.
	MaxCoeffError float64
	// PerChunk holds each chunk's own phase breakdown in chunk order —
	// the per-chunk waterfall the flight-recorder journal attaches to
	// checkpoint wide events. Chunks are folded in deterministic order.
	PerChunk []Timings
	// SlabsReused counts slabs whose compressed frame came from a
	// SlabCache instead of the pipeline (zero without one). Reused slabs
	// contribute bytes and quality stats to the aggregate but no phase CPU.
	SlabsReused int
}

// CompressionRatePct returns cr (Eq. 5) in percent, framing included.
func (r *ChunkedResult) CompressionRatePct() float64 {
	return 100 * float64(r.StreamBytes) / float64(r.RawBytes)
}

// addChunk folds one chunk's accounting into the aggregate: phases and
// CPUTotal sum; the engine sets the wall-clock Total at the end.
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

// slabEntry is one slab's cached fingerprint and compressed frame.
type slabEntry struct {
	sum [2]uint64
	// res is the cached per-slab Result with zeroed timings: reusing it
	// contributes bytes and quality stats to the aggregate but no CPU.
	res *Result
}

// SlabCache carries per-slab fingerprints and compressed payloads between
// successive CompressChunkedDelta calls over the same variable. A fingerprint
// is the 128-bit grid.FingerprintKey.Sum of the slab's raw bytes under seeds
// the cache draws whenever it is built, so a changed slab is reused only if
// two independently seeded keyed hashes both collide (≈ 2⁻¹²⁸). A cache is
// valid for one (shape, chunkExtent, options) combination; any change
// invalidates it wholesale and the next call recompresses everything. The
// zero value is ready to use. A SlabCache is not safe for concurrent use: one
// compression at a time.
type SlabCache struct {
	shape       []int
	chunkExtent int
	opts        Options
	key         grid.FingerprintKey
	slabs       []slabEntry
}

// Reset discards all cached state: the next delta compression
// recompresses every slab. Call it when the underlying data jumps to an
// unrelated state (e.g. after a restore).
func (c *SlabCache) Reset() { c.slabs = nil }

// prepare empties the cache unless it was built for this exact compression
// geometry and parameter set. Worker counts do not affect the output bytes,
// so they are not part of the key.
func (c *SlabCache) prepare(shape []int, chunkExtent int, opts Options, nChunks int) {
	opts.Workers, opts.chunkInternal = 0, false
	if len(c.slabs) == nChunks && c.chunkExtent == chunkExtent && c.opts == opts && slices.Equal(c.shape, shape) {
		return
	}
	c.shape, c.chunkExtent, c.opts = slices.Clone(shape), chunkExtent, opts
	c.key, c.slabs = grid.NewFingerprintKey(), make([]slabEntry, nChunks)
}

// chunkSlot is one finished chunk on its way from a worker to the consumer.
type chunkSlot struct {
	res    *Result
	err    error
	ext    int       // planes in the slab
	sum    [2]uint64 // the slab's fingerprint, when a cache wants it
	reused bool      // res came out of the cache
}

// compressChunks splits the field into slabs of chunkExtent planes along
// axis 0 (the trailing slab may be smaller; every slab must satisfy the
// wavelet level constraint, so chunkExtent must be ≥ 2^levels), compresses
// each with the same options on a pool of opts.Workers goroutines (0 =
// GOMAXPROCS, 1 = serial) and calls emit with the pieces of the framed
// stream — the header, then per chunk its 12-byte frame head and its
// payload — strictly in order, on the calling goroutine. The pieces stay
// valid after emit returns.
//
// A token bucket caps the chunks compressed but not yet emitted at
// workers+1 (frames taken from the cache hold none: they were in memory
// before), so behind a slow emit peak extra memory is O(workers × chunk).
// The first error, a chunk's or emit's, is returned and stops the pool:
// nothing past it is emitted and no goroutine outlives the call.
//
// With a cache, a worker fingerprints its slab and takes the cached frame
// when the fingerprint matches; the consumer stores each fresh frame once it
// has taken the chunk's slot — the one goroutine that writes the cache, and
// only entries no worker reads any more — so after an error the cache still
// holds only frames that belong to their fingerprints.
func compressChunks(f *grid.Field, opts Options, chunkExtent int, cache *SlabCache, emit func(p []byte) error) (*ChunkedResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if chunkExtent < 1 {
		return nil, fmt.Errorf("%w: chunk extent %d", ErrOptions, chunkExtent)
	}
	wall := time.Now()
	shape := f.Shape()
	planeElems := f.Len() / shape[0]
	nChunks := (shape[0] + chunkExtent - 1) / chunkExtent
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, nChunks)
	if cache != nil {
		cache.prepare(shape, chunkExtent, opts, nChunks)
	}

	// Chunks side by side already saturate the pool, so per-chunk pipelines
	// run serially. chunkInternal keeps the workers' Compress calls from
	// recording operation-level metrics — their atomic stage-seconds adds
	// are the per-worker CPU aggregation; the whole compression records
	// once below.
	chunkOpts := opts
	chunkOpts.chunkInternal = true
	if workers > 1 {
		chunkOpts.Workers = 1
	}

	// Workers acquire a token before taking a chunk; the consumer releases
	// it once that chunk has been emitted (the worker itself, on a cache
	// hit). done unblocks token-waiting workers when the consumer bails out
	// early.
	slots := make([]chan chunkSlot, nChunks)
	for c := range slots {
		slots[c] = make(chan chunkSlot, 1)
	}
	tokens := make(chan struct{}, workers+1)
	done := make(chan struct{})
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// The token comes first: a worker that held chunk c while the
				// others took every token for chunks behind it would leave the
				// consumer waiting for c and all of them waiting for the consumer.
				select {
				case tokens <- struct{}{}:
				case <-done:
					return
				}
				c := int(next.Add(1)) - 1
				if c >= nChunks {
					return
				}
				start := c * chunkExtent
				s := chunkSlot{ext: min(chunkExtent, shape[0]-start)}
				slab, err := slabAt(f, shape, planeElems, start, s.ext)
				if err == nil && cache != nil {
					s.sum = cache.key.Sum(slab.Data())
					if ent := cache.slabs[c]; ent.res != nil && ent.sum == s.sum {
						// A cached frame is no new memory: its token goes back
						// now, and a run of clean slabs does not wait for the
						// consumer chunk by chunk.
						s.res, s.reused = ent.res, true
						<-tokens
					}
				}
				if err == nil && s.res == nil {
					if s.res, err = Compress(slab, chunkOpts); err != nil {
						err = fmt.Errorf("core: chunk at plane %d: %w", start, err)
					}
				}
				s.err = err
				// The slot is buffered, so the send never blocks and a
				// departed consumer cannot strand the worker.
				slots[c] <- s
			}
		}()
	}
	defer func() {
		close(done)
		wg.Wait()
	}()

	obsr := obs.Default()
	res := &ChunkedResult{RawBytes: f.Bytes(), Workers: workers}
	var stall, writeTime time.Duration
	write := func(p []byte) error {
		t0 := time.Now()
		err := emit(p)
		writeTime += time.Since(t0)
		res.StreamBytes += len(p)
		return err
	}
	if err := write(chunkedHeader(shape, nChunks)); err != nil {
		return nil, fmt.Errorf("core: stream header: %w", err)
	}
	heads := make([]byte, 12*nChunks) // every chunk's frame head, each emitted from its place
	for c := 0; c < nChunks; c++ {
		t0 := time.Now()
		s := <-slots[c]
		stall += time.Since(t0)
		if obsr != nil {
			obsr.Gauge(MetricStreamInflight).Set(float64(len(tokens)))
		}
		if s.err != nil {
			return nil, s.err
		}
		if s.reused {
			res.SlabsReused++
		} else if cache != nil {
			// Cache a timings-free copy: a future reuse contributes the
			// bytes and quality stats but no phony CPU.
			cached := *s.res
			cached.Timings = Timings{}
			cache.slabs[c] = slabEntry{sum: s.sum, res: &cached}
		}
		head := heads[12*c : 12*c+12 : 12*c+12]
		binary.LittleEndian.PutUint32(head[0:], uint32(s.ext))
		binary.LittleEndian.PutUint64(head[4:], uint64(len(s.res.Data)))
		if err := write(head); err != nil {
			return nil, fmt.Errorf("core: stream chunk %d frame: %w", c, err)
		}
		if err := write(s.res.Data); err != nil {
			return nil, fmt.Errorf("core: stream chunk %d payload: %w", c, err)
		}
		res.addChunk(s.res)
		if !s.reused {
			<-tokens
		}
	}
	res.Timings.Total = time.Since(wall)
	if obsr != nil {
		// Per-chunk Compress calls recorded their stage seconds; the
		// operation-level series are recorded here, once.
		obsr.Counter(MetricStreamStallSeconds).Add(stall.Seconds())
		obsr.Counter(MetricStreamWriteSeconds).Add(writeTime.Seconds())
		obsr.Gauge(MetricStreamInflight).Set(0)
		recordCompressOp("chunked", res.RawBytes, res.StreamBytes, res.Timings)
		obsr.Counter(MetricCompressChunks).Add(float64(res.Chunks))
		entropy.RecordSelection(opts.entropyParams(), opts.VarName)
	}
	return res, nil
}

// CompressChunked compresses the field in slabs of chunkExtent planes on a
// pool of opts.Workers goroutines and returns the framed stream in
// ChunkedResult.Data: CompressChunkedDelta with no cache.
func CompressChunked(f *grid.Field, opts Options, chunkExtent int) (*ChunkedResult, error) {
	return CompressChunkedDelta(f, opts, chunkExtent, nil)
}

// CompressChunkedDelta is CompressChunked with slab-level reuse: slabs
// whose raw bytes are unchanged since the cache was filled re-emit their
// cached compressed frame and skip the wavelet/quantize/entropy pipeline
// entirely; SlabsReused reports how many. The cache is updated in place to
// describe this checkpoint; nil compresses every slab.
func CompressChunkedDelta(f *grid.Field, opts Options, chunkExtent int, cache *SlabCache) (*ChunkedResult, error) {
	var parts [][]byte
	res, err := compressChunks(f, opts, chunkExtent, cache, func(p []byte) error {
		parts = append(parts, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Data = slices.Concat(parts...) // one allocation, the stream's size
	return res, nil
}

// CompressChunkedTo is CompressChunked writing the framed stream to w as
// chunks complete instead of buffering it. The returned result carries the
// full accounting with Data nil and StreamBytes set to the bytes written.
//
// On error the stream written so far is abandoned mid-frame; callers that
// need atomicity must write through a staged destination (the store's
// temp-file commit path does exactly that).
func CompressChunkedTo(w io.Writer, f *grid.Field, opts Options, chunkExtent int) (*ChunkedResult, error) {
	return compressChunks(f, opts, chunkExtent, nil, func(p []byte) error {
		_, err := w.Write(p)
		return err
	})
}
