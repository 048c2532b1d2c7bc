package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lossyckpt/internal/grid"
)

// stream.go is the streaming half of the chunked engine. CompressChunked
// and CompressChunkedParallel buffer the whole framed stream before the
// caller sees a byte, so a checkpoint holds O(payload) extra memory and
// store I/O cannot start until the last chunk finishes. CompressChunkedTo
// instead runs a bounded pipeline: slabs flow from the compression workers
// through per-chunk hand-off slots into a single ordered writer that
// streams frames straight into w. A token bucket caps the compressed
// chunks in flight at workers+1, so peak extra memory is
// O(workers × chunk) and the writer's I/O overlaps the workers' compute.
// The bytes written are identical to CompressChunked's buffered stream for
// every worker count.

// chunkSlot is one compressed chunk handed from a worker to the ordered
// writer.
type chunkSlot struct {
	res *Result
	err error
}

// CompressChunkedTo is CompressChunked writing the framed stream to w as
// chunks complete instead of buffering it. opts.Workers sets the
// compression pool size (0 = GOMAXPROCS); chunks are written strictly in
// order, so the stream is byte-identical to CompressChunked's for the same
// field, options and chunk extent. The returned result carries the full
// accounting with Data nil and StreamBytes set to the bytes written.
//
// On error the stream written so far is abandoned mid-frame; callers that
// need atomicity must write through a staged destination (the store's
// temp-file commit path does exactly that).
func CompressChunkedTo(w io.Writer, f *grid.Field, opts Options, chunkExtent int) (*ChunkedResult, error) {
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
	if workers > nChunks {
		workers = nChunks
	}

	// As in CompressChunkedParallel: chunk-level parallelism saturates the
	// pool, so per-chunk pipelines run serially and operation-level metrics
	// are recorded once for the whole compression.
	chunkOpts := opts
	chunkOpts.chunkInternal = true
	if workers > 1 {
		chunkOpts.Workers = 1
	}

	obsr := opts.observer()
	res := &ChunkedResult{RawBytes: f.Bytes(), Workers: workers}

	// Workers acquire a token before compressing a chunk; the writer
	// releases it once that chunk's bytes are on the wire. That caps
	// compressed-but-unwritten chunks at workers+1, the pipeline's memory
	// bound. done unblocks token-waiting workers when the writer bails out
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
				// writer waiting for c and all of them waiting for the writer.
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
				ext := chunkExtent
				if rem := shape[0] - start; rem < ext {
					ext = rem
				}
				slab, err := slabAt(f, shape, planeElems, start, ext)
				var cres *Result
				if err == nil {
					cres, err = Compress(slab, chunkOpts)
					if err != nil {
						err = fmt.Errorf("core: chunk at plane %d: %w", start, err)
					}
				}
				// The slot is buffered, so the send never blocks and a
				// departed writer cannot strand the worker.
				slots[c] <- chunkSlot{res: cres, err: err}
			}
		}()
	}
	defer func() {
		close(done)
		wg.Wait()
	}()

	var stall, writeTime time.Duration
	write := func(p []byte) error {
		t0 := time.Now()
		_, err := w.Write(p)
		writeTime += time.Since(t0)
		res.StreamBytes += len(p)
		return err
	}
	if err := write(chunkedHeader(shape, nChunks)); err != nil {
		return nil, fmt.Errorf("core: stream header: %w", err)
	}
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
		ext := chunkExtent
		if rem := shape[0] - c*chunkExtent; rem < ext {
			ext = rem
		}
		var frame [12]byte
		binary.LittleEndian.PutUint32(frame[0:], uint32(ext))
		binary.LittleEndian.PutUint64(frame[4:], uint64(len(s.res.Data)))
		if err := write(frame[:]); err != nil {
			return nil, fmt.Errorf("core: stream chunk %d frame: %w", c, err)
		}
		if err := write(s.res.Data); err != nil {
			return nil, fmt.Errorf("core: stream chunk %d payload: %w", c, err)
		}
		res.addChunk(s.res)
		<-tokens
	}
	res.Timings.Total = time.Since(wall)
	if obsr != nil {
		obsr.Counter(MetricStreamStallSeconds).Add(stall.Seconds())
		obsr.Counter(MetricStreamWriteSeconds).Add(writeTime.Seconds())
		obsr.Gauge(MetricStreamInflight).Set(0)
	}
	recordChunkedCompress(opts, res)
	return res, nil
}
