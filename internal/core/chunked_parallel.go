package core

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lossyckpt/internal/grid"
	"lossyckpt/internal/obs"
)

// This file is the intra-checkpoint parallel engine. The paper observes
// that compression must be "not only fast but also scalable to checkpoint
// size" (§II-A) and that per-array compression parallelizes trivially
// (§IV-D); chunked compression extends that inside one array. Slabs are
// independent, so a bounded worker pool compresses them concurrently and
// the framer reassembles the per-chunk streams in chunk order — the output
// is byte-identical to the serial CompressChunked stream for every worker
// count.
//
// Memory bound: each worker holds one slab's scratch (working copy,
// gathered bands — all pool-recycled) plus its compressed output, so peak
// additional memory is O(workers × slab) instead of O(array).

// CompressChunkedParallel is CompressChunked with the slabs fanned out
// over a bounded worker pool. opts.Workers sets the pool size (0 =
// GOMAXPROCS, 1 = serial). The framed stream is byte-identical to
// CompressChunked's for the same field, options and chunk extent.
func CompressChunkedParallel(f *grid.Field, opts Options, chunkExtent int) (*ChunkedResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if chunkExtent < 1 {
		return nil, fmt.Errorf("%w: chunk extent %d", ErrOptions, chunkExtent)
	}
	shape := f.Shape()
	nChunks := (shape[0] + chunkExtent - 1) / chunkExtent
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nChunks {
		workers = nChunks
	}
	if workers == 1 {
		return CompressChunked(f, opts, chunkExtent)
	}
	wall := time.Now()
	planeElems := f.Len() / shape[0]

	// Chunk-level parallelism already saturates the pool; per-chunk
	// pipelines run serially so the cores aren't oversubscribed.
	// chunkInternal keeps the workers' Compress calls from recording
	// operation-level metrics — their atomic stage-seconds adds are the
	// per-worker CPU aggregation; the whole compression records once below.
	chunkOpts := opts
	chunkOpts.Workers = 1
	chunkOpts.chunkInternal = true

	results := make([]*Result, nChunks)
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

	// Deterministic reassembly: frames are emitted in chunk order, and the
	// aggregate timings fold in chunk order too, so the result does not
	// depend on pool scheduling.
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
	}
	res.Data = out
	res.StreamBytes = len(out)
	res.Timings.Total = time.Since(wall)
	recordChunkedCompress(opts, res)
	return res, nil
}

// DecompressChunkedParallel reconstructs the field from a chunked stream,
// decoding chunk payloads on a bounded worker pool (workers 0 =
// GOMAXPROCS, 1 = serial). Chunks scatter into disjoint plane ranges of
// the output field, so the reconstruction is identical to
// DecompressChunked for every worker count.
func DecompressChunkedParallel(data []byte, workers int) (*grid.Field, error) {
	start := time.Now()
	shape, frames, err := parseChunked(data)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(frames) {
		workers = len(frames)
	}
	if workers == 1 {
		return DecompressChunked(data)
	}
	f, err := grid.New(shape...)
	if err != nil {
		return nil, err
	}
	planeElems := f.Len() / shape[0]
	errs := make([]error, len(frames))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= len(frames) {
					return
				}
				// Chunk-level parallelism already uses the pool; the
				// per-chunk wavelet inverse stays serial.
				errs[c] = decodeChunkInto(f, shape, planeElems, c, frames[c], 1)
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

// DecompressAnyParallel decodes either a plain Compress stream or a
// chunked stream with bounded parallelism: chunked streams decode chunks
// on the worker pool, plain streams bound the wavelet inverse instead.
func DecompressAnyParallel(data []byte, workers int) (*grid.Field, error) {
	if len(data) >= 4 && binary.LittleEndian.Uint32(data) == chunkedMagic {
		return DecompressChunkedParallel(data, workers)
	}
	start := time.Now()
	f, err := decodeTo(data, workers, grid.New)
	if err == nil {
		recordDecompressOp(obs.Default(), "single", f.Bytes(), time.Since(start))
	}
	return f, err
}
