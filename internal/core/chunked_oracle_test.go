package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"time"

	"lossyckpt/internal/grid"
)

// refCompressChunked is the plain serial slab loop — Compress each slab,
// frame it, append — that every chunked entry point once spelled out for
// itself. It stays here as the oracle the one engine is held to: it shares
// nothing with compressChunks but Compress.
func refCompressChunked(t testing.TB, f *grid.Field, opts Options, chunkExtent int) []byte {
	t.Helper()
	shape := f.Shape()
	planeElems := f.Len() / shape[0]
	out := binary.LittleEndian.AppendUint32(nil, 0x43434B4C) // "LKCC"
	out = binary.LittleEndian.AppendUint16(out, 1)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(shape)))
	for _, e := range shape {
		out = binary.LittleEndian.AppendUint64(out, uint64(e))
	}
	out = binary.LittleEndian.AppendUint32(out, uint32((shape[0]+chunkExtent-1)/chunkExtent))
	for start := 0; start < shape[0]; start += chunkExtent {
		ext := min(chunkExtent, shape[0]-start)
		slab, err := grid.FromSlice(f.Data()[start*planeElems:(start+ext)*planeElems], append([]int{ext}, shape[1:]...)...)
		if err != nil {
			t.Fatal(err)
		}
		cres, err := Compress(slab, opts)
		if err != nil {
			t.Fatalf("oracle: slab at plane %d: %v", start, err)
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(ext))
		out = binary.LittleEndian.AppendUint64(out, uint64(len(cres.Data)))
		out = append(out, cres.Data...)
	}
	return out
}

// entryPointWorkers is the pool-size sweep of the byte-identity tests.
var entryPointWorkers = []int{1, 2, 4}

// checkEntryPoints holds every exported chunked entry point, at every pool
// size, to the oracle's bytes for f: buffered, streamed, and delta on a cold
// and on a warm cache.
func checkEntryPoints(t *testing.T, f *grid.Field, opts Options, chunkExtent int) {
	t.Helper()
	want := refCompressChunked(t, f, opts, chunkExtent)
	nChunks := (f.Shape()[0] + chunkExtent - 1) / chunkExtent
	for _, workers := range entryPointWorkers {
		opts.Workers = workers
		buffered, err := CompressChunked(f, opts, chunkExtent)
		if err != nil {
			t.Fatalf("workers=%d: CompressChunked: %v", workers, err)
		}
		if !bytes.Equal(buffered.Data, want) {
			t.Fatalf("workers=%d: CompressChunked differs from the oracle (%d vs %d bytes)", workers, len(buffered.Data), len(want))
		}
		if buffered.StreamBytes != len(want) || buffered.Chunks != nChunks || buffered.Workers != min(workers, nChunks) {
			t.Errorf("workers=%d: CompressChunked accounts %d bytes, %d chunks, %d workers", workers, buffered.StreamBytes, buffered.Chunks, buffered.Workers)
		}

		var buf bytes.Buffer
		streamed, err := CompressChunkedTo(&buf, f, opts, chunkExtent)
		if err != nil {
			t.Fatalf("workers=%d: CompressChunkedTo: %v", workers, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("workers=%d: CompressChunkedTo differs from the oracle (%d vs %d bytes)", workers, buf.Len(), len(want))
		}
		if streamed.Data != nil || streamed.StreamBytes != len(want) || streamed.CompressedBytes != buffered.CompressedBytes {
			t.Errorf("workers=%d: CompressChunkedTo accounts Data=%v, %d stream bytes, %d compressed", workers, streamed.Data != nil, streamed.StreamBytes, streamed.CompressedBytes)
		}

		var cache SlabCache
		for pass, reused := range []int{0, nChunks} {
			delta, err := CompressChunkedDelta(f, opts, chunkExtent, &cache)
			if err != nil {
				t.Fatalf("workers=%d pass %d: CompressChunkedDelta: %v", workers, pass, err)
			}
			if !bytes.Equal(delta.Data, want) {
				t.Fatalf("workers=%d pass %d: CompressChunkedDelta differs from the oracle", workers, pass)
			}
			if delta.SlabsReused != reused {
				t.Errorf("workers=%d pass %d: reused %d slabs, want %d", workers, pass, delta.SlabsReused, reused)
			}
		}
	}
}

// settleGoroutines waits for the goroutine count to come back to what it was
// before a call whose pool must not outlive it.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, %d before the call", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// countingWriter counts the pieces it is handed and fails the write numbered
// failAt (0 = never).
type countingWriter struct {
	writes, failAt int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes == w.failAt {
		return 0, errSink
	}
	return len(p), nil
}

// TestEngineEncodeErrorStopsAtChunk: an array whose trailing slab is too short
// for the level count fails in its last chunk. Every entry point returns that
// error; the stream got the header and the chunks before it and nothing else;
// the pool is gone when the call returns; and the cache holds, for the chunks
// before it, the frames of their fingerprints — the next call, on options the
// slab can take, reuses nothing stale and yields the oracle's bytes.
func TestEngineEncodeErrorStopsAtChunk(t *testing.T) {
	const chunk, last = 4, 7
	f := smooth1D(chunk*last+2, 71) // 7 slabs of 4 and one of 2: no second level in that one
	deep := DefaultOptions()
	deep.Levels = 2
	for _, workers := range entryPointWorkers {
		deep.Workers = workers
		before := runtime.NumGoroutine()

		w := &countingWriter{}
		_, err := CompressChunkedTo(w, f, deep, chunk)
		if !errors.Is(err, ErrOptions) {
			t.Fatalf("workers=%d: CompressChunkedTo = %v, want the slab's ErrOptions", workers, err)
		}
		if want := 1 + 2*last; w.writes != want {
			t.Errorf("workers=%d: %d pieces written, want the header and %d chunks (%d)", workers, w.writes, last, want)
		}
		if res, err := CompressChunked(f, deep, chunk); !errors.Is(err, ErrOptions) || res != nil {
			t.Errorf("workers=%d: CompressChunked = %v, %v", workers, res, err)
		}
		var cache SlabCache
		if res, err := CompressChunkedDelta(f, deep, chunk, &cache); !errors.Is(err, ErrOptions) || res != nil {
			t.Errorf("workers=%d: CompressChunkedDelta = %v, %v", workers, res, err)
		}
		settleGoroutines(t, before)

		if len(cache.slabs) != last+1 || cache.slabs[last].res != nil {
			t.Fatalf("workers=%d: cache has %d slots, failed slab cached: %v", workers, len(cache.slabs), cache.slabs[last].res != nil)
		}
		for c := 0; c < last; c++ {
			slab := grid.MustNew(chunk)
			copy(slab.Data(), f.Data()[c*chunk:(c+1)*chunk])
			want, err := Compress(slab, deep)
			if err != nil {
				t.Fatal(err)
			}
			if got := cache.slabs[c].res; got == nil || !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("workers=%d: cached frame %d is not the slab's", workers, c)
			}
		}
		shallow := DefaultOptions()
		shallow.Workers = workers
		res, err := CompressChunkedDelta(f, shallow, chunk, &cache)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Data, refCompressChunked(t, f, shallow, chunk)) || res.SlabsReused != 0 {
			t.Errorf("workers=%d: after the failed call the cache yields other bytes than the oracle (reused %d)", workers, res.SlabsReused)
		}
	}
}

// TestEngineWriterErrorStopsAtChunk: a writer failing at chunk k's frame head
// or payload gets nothing past that piece, its error comes back, and no
// goroutine is left behind.
func TestEngineWriterErrorStopsAtChunk(t *testing.T) {
	f := smooth3D(64, 16, 2, 72)
	for _, workers := range entryPointWorkers {
		opts := DefaultOptions()
		opts.Workers = workers
		for _, failAt := range []int{1, 2, 3, 8, 9, 32, 33} { // header, chunk 0's head and payload, chunk 3's, the last one's
			before := runtime.NumGoroutine()
			w := &countingWriter{failAt: failAt}
			res, err := CompressChunkedTo(w, f, opts, 4)
			if !errors.Is(err, errSink) || res != nil {
				t.Fatalf("workers=%d fail at %d: %v, %v", workers, failAt, res, err)
			}
			if w.writes != failAt {
				t.Errorf("workers=%d: writer failed piece %d and was handed %d", workers, failAt, w.writes)
			}
			settleGoroutines(t, before)
		}
	}
}

// blockedWriter holds the stream's first piece back, and while it does,
// rewrites every slab the pool may not have started yet.
type blockedWriter struct {
	bytes.Buffer
	blocked func()
}

func (w *blockedWriter) Write(p []byte) (int, error) {
	if w.blocked != nil {
		w.blocked()
		w.blocked = nil
	}
	return w.Buffer.Write(p)
}

// TestEngineInflightBoundedUnderBlockedWriter: while the writer sits on the
// header no chunk has been emitted, so the pool may have taken workers+1
// chunks and not one more. The writer rewrites every slab past those before
// it returns: the stream must carry the rewritten slabs (and -race must see
// no worker reading them meanwhile).
func TestEngineInflightBoundedUnderBlockedWriter(t *testing.T) {
	const planes, chunk = 64, 4
	for _, workers := range []int{1, 2, 4} {
		f := smooth3D(planes, 16, 2, 73)
		opts := DefaultOptions()
		opts.Workers = workers
		planeElems := f.Len() / planes
		w := &blockedWriter{blocked: func() {
			time.Sleep(20 * time.Millisecond) // time for an unbounded pool to run ahead
			for i := (workers + 1) * chunk * planeElems; i < f.Len(); i++ {
				f.Data()[i] += 3
			}
		}}
		if _, err := CompressChunkedTo(w, f, opts, chunk); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Bytes(), refCompressChunked(t, f, opts, chunk)) {
			t.Errorf("workers=%d: a slab past the first %d was compressed before the first piece was written", workers, workers+1)
		}
	}
}
