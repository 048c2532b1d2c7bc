// chunked_delta.go is the delta-aware variant of the chunked parallel
// engine. Scientific time-stepping often leaves most of an array
// untouched between checkpoints (halo updates, local physics); the full
// pipeline still pays wavelet+quantize+DEFLATE for every slab. The
// delta path fingerprints each slab's raw bytes (SHA-256) against the
// previous checkpoint and re-emits the cached compressed frame for
// clean slabs, so compression CPU scales with the mutated fraction —
// while the framed output stays byte-identical to
// CompressChunkedParallel for the same field, options and chunk extent
// (per-slab compression is deterministic, so a cached frame IS the
// frame a recompression would produce).
package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lossyckpt/internal/grid"
)

// slabEntry is one slab's cached fingerprint and compressed frame.
type slabEntry struct {
	sum [sha256.Size]byte
	// res is the cached per-slab Result with zeroed timings: reusing it
	// contributes bytes and quality stats to the aggregate but no CPU.
	res *Result
}

// SlabCache carries per-slab fingerprints and compressed payloads
// between successive CompressChunkedDelta calls over the same variable.
// A cache is valid for one (shape, chunkExtent, options) combination;
// any change invalidates it wholesale and the next call recompresses
// everything. The zero value is ready to use. A SlabCache is not safe
// for concurrent use (the delta compressor itself updates it from a
// single goroutine after the parallel fan-out).
type SlabCache struct {
	shape       []int
	chunkExtent int
	opts        Options
	slabs       []slabEntry
	valid       bool
}

// Reset discards all cached state: the next delta compression
// recompresses every slab. Call it when the underlying data jumps to an
// unrelated state (e.g. after a restore).
func (c *SlabCache) Reset() {
	c.slabs = nil
	c.valid = false
}

// cacheKey normalizes the options for cache-validity comparison:
// telemetry sinks and worker counts do not affect the output bytes.
func cacheKey(opts Options) Options {
	opts.Observer = nil
	opts.Workers = 0
	opts.chunkInternal = false
	return opts
}

// matches reports whether the cache was built for this exact
// compression geometry and parameter set.
func (c *SlabCache) matches(shape []int, chunkExtent int, opts Options, nChunks int) bool {
	if !c.valid || c.chunkExtent != chunkExtent || len(c.slabs) != nChunks ||
		len(c.shape) != len(shape) || c.opts != cacheKey(opts) {
		return false
	}
	for i, e := range shape {
		if c.shape[i] != e {
			return false
		}
	}
	return true
}

// CompressChunkedDelta is CompressChunkedParallel with slab-level reuse:
// slabs whose raw bytes are unchanged since the cache was filled re-emit
// their cached compressed frame and skip the wavelet/quantize/entropy
// pipeline entirely. The framed stream is byte-identical to
// CompressChunkedParallel for the same inputs; the result's SlabsReused
// reports how many slabs were served from cache. The cache is updated in
// place to describe this checkpoint.
func CompressChunkedDelta(f *grid.Field, opts Options, chunkExtent int, cache *SlabCache) (*ChunkedResult, error) {
	if cache == nil {
		return CompressChunkedParallel(f, opts, chunkExtent)
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if chunkExtent < 1 {
		return nil, fmt.Errorf("%w: chunk extent %d", ErrOptions, chunkExtent)
	}
	wall := time.Now()
	shape := f.Shape()
	nChunks := (shape[0] + chunkExtent - 1) / chunkExtent
	planeElems := f.Len() / shape[0]
	if !cache.matches(shape, chunkExtent, opts, nChunks) {
		cache.shape = append([]int(nil), shape...)
		cache.chunkExtent = chunkExtent
		cache.opts = cacheKey(opts)
		cache.slabs = make([]slabEntry, nChunks)
		cache.valid = true
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nChunks {
		workers = nChunks
	}
	chunkOpts := opts
	chunkOpts.Workers = 1
	chunkOpts.chunkInternal = true

	results := make([]*Result, nChunks)
	reusedFlags := make([]bool, nChunks)
	sums := make([][sha256.Size]byte, nChunks)
	errs := make([]error, nChunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nChunks {
					return
				}
				start := c * chunkExtent
				ext := chunkExtent
				if rem := shape[0] - start; rem < ext {
					ext = rem
				}
				slab, err := slabAt(f, shape, planeElems, start, ext)
				if err != nil {
					errs[c] = err
					continue
				}
				sums[c] = sha256.Sum256(grid.FloatBytes(slab.Data())) // the slab hashed where it lies
				// Reading cache.slabs concurrently is safe: the cache is
				// only written after the fan-out completes.
				if ent := cache.slabs[c]; ent.res != nil && ent.sum == sums[c] {
					results[c] = ent.res
					reusedFlags[c] = true
					continue
				}
				cres, err := Compress(slab, chunkOpts)
				if err != nil {
					errs[c] = fmt.Errorf("core: chunk at plane %d: %w", start, err)
					continue
				}
				results[c] = cres
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &ChunkedResult{RawBytes: f.Bytes(), Workers: workers}
	total := len(chunkedHeader(shape, nChunks))
	for _, cres := range results {
		total += 12 + len(cres.Data)
	}
	out := make([]byte, 0, total)
	out = append(out, chunkedHeader(shape, nChunks)...)
	for c, cres := range results {
		var frame [12]byte
		ext := chunkExtent
		if rem := shape[0] - c*chunkExtent; rem < ext {
			ext = rem
		}
		binary.LittleEndian.PutUint32(frame[0:], uint32(ext))
		binary.LittleEndian.PutUint64(frame[4:], uint64(len(cres.Data)))
		out = append(out, frame[:]...)
		out = append(out, cres.Data...)
		res.addChunk(cres)
		if reusedFlags[c] {
			res.SlabsReused++
		} else {
			// Cache a timings-free copy: a future reuse contributes the
			// bytes and quality stats but no phony CPU.
			cached := *cres
			cached.Timings = Timings{}
			cache.slabs[c] = slabEntry{sum: sums[c], res: &cached}
		}
	}
	res.Data = out
	res.StreamBytes = len(out)
	res.Timings.Total = time.Since(wall)
	recordChunkedCompress(opts, res)
	return res, nil
}
