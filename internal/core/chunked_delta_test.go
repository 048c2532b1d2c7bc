package core

import (
	"bytes"
	"math"
	"testing"
	"time"

	"lossyckpt/internal/grid"
)

// deltaTestField builds a smooth 3-D field the lossy pipeline likes.
func deltaTestField(t *testing.T, nz, ny, nx int) *grid.Field {
	t.Helper()
	f, err := grid.New(nz, ny, nx)
	if err != nil {
		t.Fatal(err)
	}
	d := f.Data()
	for i := range d {
		d[i] = math.Sin(float64(i)/97.0) + 0.25*math.Cos(float64(i)/13.0)
	}
	return f
}

// TestCompressChunkedDeltaByteIdentical: the delta stream must be the
// oracle's for the field as it stands — cold cache, warm cache with clean
// data, and warm cache with 1 slab, 1 % and 100 % of the array mutated — at
// every pool size, reusing exactly the slabs that did not change.
func TestCompressChunkedDeltaByteIdentical(t *testing.T) {
	const planes, extent = 18, 4 // four slabs of 4 and a trailing one of 2
	for _, workers := range entryPointWorkers {
		opts := DefaultOptions()
		opts.Workers = workers
		f := deltaTestField(t, planes, 12, 10)
		planeElems := f.Len() / planes
		nChunks := (planes + extent - 1) / extent
		var cache SlabCache
		step := func(what string, wantReused int) *ChunkedResult {
			t.Helper()
			res, err := CompressChunkedDelta(f, opts, extent, &cache)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, what, err)
			}
			if !bytes.Equal(res.Data, refCompressChunked(t, f, opts, extent)) {
				t.Fatalf("workers=%d %s: delta stream differs from the oracle", workers, what)
			}
			if res.SlabsReused != wantReused || res.Chunks != nChunks {
				t.Fatalf("workers=%d %s: reused %d of %d slabs, want %d of %d", workers, what, res.SlabsReused, res.Chunks, wantReused, nChunks)
			}
			return res
		}
		cold := step("cold", 0)
		// Clean re-checkpoint (0 % dirty): everything reuses, at no pipeline CPU.
		warm := step("warm", nChunks)
		if warm.Timings.Wavelet != 0 || warm.Timings.Gzip != 0 {
			t.Fatalf("fully reused checkpoint reports pipeline CPU: %+v", warm.Timings)
		}
		if warm.MaxCoeffError != cold.MaxCoeffError {
			t.Fatalf("reused MaxCoeffError %v, want %v", warm.MaxCoeffError, cold.MaxCoeffError)
		}
		// One slab (planes 4..7 = chunk 1) dirty: exactly it recompresses.
		for i := 4 * planeElems; i < 5*planeElems; i++ {
			f.Data()[i] += 0.5
		}
		mut := step("one slab dirty", nChunks-1)
		// 1 % of the values, contiguous, inside the trailing short slab.
		for i := f.Len() - f.Len()/100; i < f.Len(); i++ {
			f.Data()[i] -= 0.25
		}
		step("1% dirty", nChunks-1)
		// Every value dirty: nothing reuses.
		for i := range f.Data() {
			f.Data()[i] *= 1.5
		}
		step("100% dirty", 0)

		// The stream stays decodable.
		got, err := DecompressAnyParallel(mut.Data, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !got.SameShape(f) {
			t.Fatal("decoded shape mismatch")
		}
	}
}

// TestSlabCacheInvalidation: changed geometry or options must discard
// the cache rather than serve stale frames.
func TestSlabCacheInvalidation(t *testing.T) {
	opts := DefaultOptions()
	f := deltaTestField(t, 8, 6, 6)
	var cache SlabCache
	if _, err := CompressChunkedDelta(f, opts, 4, &cache); err != nil {
		t.Fatal(err)
	}

	// Different divisions: nothing may be reused.
	opts2 := opts
	opts2.Divisions = 64
	res, err := CompressChunkedDelta(f, opts2, 4, &cache)
	if err != nil {
		t.Fatal(err)
	}
	if res.SlabsReused != 0 {
		t.Fatalf("options change reused %d slabs", res.SlabsReused)
	}
	if !bytes.Equal(res.Data, refCompressChunked(t, f, opts2, 4)) {
		t.Fatal("stream after options change differs")
	}

	// Different extent: ditto.
	res2, err := CompressChunkedDelta(f, opts2, 2, &cache)
	if err != nil {
		t.Fatal(err)
	}
	if res2.SlabsReused != 0 {
		t.Fatalf("extent change reused %d slabs", res2.SlabsReused)
	}

	// Reset forces recompression even with identical inputs.
	cache.Reset()
	res3, err := CompressChunkedDelta(f, opts2, 2, &cache)
	if err != nil {
		t.Fatal(err)
	}
	if res3.SlabsReused != 0 {
		t.Fatalf("reset cache reused %d slabs", res3.SlabsReused)
	}

	// Worker count is normalized out of the cache key: a different pool
	// size still reuses (output is worker-independent by contract).
	opts3 := opts2
	opts3.Workers = 3
	res4, err := CompressChunkedDelta(f, opts3, 2, &cache)
	if err != nil {
		t.Fatal(err)
	}
	if res4.SlabsReused != res4.Chunks {
		t.Fatalf("worker-count change broke reuse: %d of %d", res4.SlabsReused, res4.Chunks)
	}
}

// TestCompressChunkedDeltaNilCache: no cache, no reuse, the same stream.
func TestCompressChunkedDeltaNilCache(t *testing.T) {
	opts := DefaultOptions()
	f := deltaTestField(t, 8, 6, 6)
	res, err := CompressChunkedDelta(f, opts, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, refCompressChunked(t, f, opts, 4)) || res.SlabsReused != 0 {
		t.Fatal("nil-cache delta differs from the oracle")
	}
	if res.Timings.Total <= 0 {
		t.Fatalf("timings not recorded: %v", time.Duration(res.Timings.Total))
	}
}

// TestSlabCacheFingerprint: a change the fingerprint must see however small —
// one ULP at a slab's last element, +0 to −0, one NaN payload for another —
// recompresses exactly that slab, and the stream is the oracle's. Two caches
// over the same array draw their own seeds and each reuses what it holds, save
// after save; a rebuilt cache draws new ones.
func TestSlabCacheFingerprint(t *testing.T) {
	const planes, extent = 18, 4
	opts := DefaultOptions()
	opts.Workers = 2
	f := deltaTestField(t, planes, 12, 10)
	d := f.Data()
	planeElems := f.Len() / planes
	nChunks := (planes + extent - 1) / extent
	slabEnd := func(c int) int { return min((c+1)*extent, planes)*planeElems - 1 }
	d[slabEnd(2)-5] = 0
	d[slabEnd(3)-5] = math.Float64frombits(0x7ff8_0000_0000_0001)

	var a, b SlabCache
	save := func(c *SlabCache, what string, wantReused int) {
		t.Helper()
		res, err := CompressChunkedDelta(f, opts, extent, c)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if res.SlabsReused != wantReused {
			t.Fatalf("%s: reused %d of %d slabs, want %d", what, res.SlabsReused, nChunks, wantReused)
		}
		if !bytes.Equal(res.Data, refCompressChunked(t, f, opts, extent)) {
			t.Fatalf("%s: stream differs from the oracle", what)
		}
	}
	save(&a, "cold a", 0)
	save(&b, "cold b", 0)
	if a.key == b.key {
		t.Fatal("two caches drew the same seeds")
	}
	for _, change := range []struct {
		what string
		at   int
		to   float64
	}{
		{"one ULP at slab 1's last element", slabEnd(1), math.Nextafter(d[slabEnd(1)], math.Inf(1))},
		{"+0 to -0 in slab 2", slabEnd(2) - 5, math.Copysign(0, -1)},
		{"another NaN payload in slab 3", slabEnd(3) - 5, math.Float64frombits(0x7ff8_0000_0000_0002)},
	} {
		if math.Float64bits(d[change.at]) == math.Float64bits(change.to) {
			t.Fatalf("%s: the bits do not change", change.what)
		}
		d[change.at] = change.to
		save(&a, change.what+", cache a", nChunks-1)
		save(&b, change.what+", cache b", nChunks-1)
		save(&a, change.what+", cache a again", nChunks)
		save(&b, change.what+", cache b again", nChunks)
	}
	key := a.key
	a.Reset()
	save(&a, "after Reset", 0)
	if a.key == key {
		t.Fatal("a rebuilt cache kept its seeds")
	}
}
