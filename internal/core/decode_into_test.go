package core

import (
	"errors"
	"sync"
	"testing"

	"lossyckpt/internal/entropy"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/gzipio"
)

// marker fills a caller's field before a decode, so that what the decode
// wrote — and what it left alone — can be read off afterwards.
const marker = -12345.5

// ownedField returns a dest callback that hands out one marker-filled field
// of whatever shape the stream has, and the pointer it is kept at.
func ownedField() (dest func(shape ...int) (*grid.Field, error), owned **grid.Field) {
	owned = new(*grid.Field)
	return func(shape ...int) (*grid.Field, error) {
		f, err := grid.New(shape...)
		if err == nil {
			f.Fill(marker)
			*owned = f
		}
		return f, err
	}, owned
}

func countWritten(vals []float64) (n int) {
	for _, v := range vals {
		if v != marker {
			n++
		}
	}
	return n
}

// TestDecompressToCallersField: decoding into a field the caller supplies
// gives the field a decode into a fresh one gives, for plain, per-band and
// chunked streams on every worker count, and a shape the caller refuses is an
// error that writes nothing.
func TestDecompressToCallersField(t *testing.T) {
	f := smooth3D(48, 16, 4, 7)
	perBand := DefaultOptions()
	perBand.PerBandQuant = true
	lz4 := DefaultOptions()
	lz4.EntropyCodec, lz4.Shuffle = entropy.LZ4, true
	streams := map[string][]byte{}
	for name, opts := range map[string]Options{"plain": DefaultOptions(), "per-band": perBand, "lz4+shuffle": lz4} {
		res, err := Compress(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		streams[name] = res.Data
		chunked, err := CompressChunked(f, opts, 16)
		if err != nil {
			t.Fatal(err)
		}
		streams[name+"/chunked"] = chunked.Data
	}
	refused := errors.New("not this shape")
	for name, data := range streams {
		want, err := DecompressAnyParallel(data, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, workers := range parallelWorkerSweep() {
			dest, owned := ownedField()
			got, err := DecompressTo(data, workers, dest)
			if err != nil || got != *owned || !got.Equal(want) {
				t.Errorf("%s workers=%d: decode into the caller's field: %v (its field: %v, equal: %v)", name, workers, err, got == *owned, got != nil && got.Equal(want))
			}
		}
		var asked []int
		got, err := DecompressTo(data, 2, func(shape ...int) (*grid.Field, error) {
			asked = shape
			return nil, refused
		})
		if !errors.Is(err, refused) || got != nil || len(asked) != 3 {
			t.Errorf("%s: a refused shape %v returned %v, %v", name, asked, got, err)
		}
	}
}

// TestDecodeKeepsNoViewOfFormattedBytes: the archive container.FromBytes
// hands decodeTo views the inflated buffer (its codes), and that buffer goes
// back to the pool when decodeTo returns. Nothing decoded may still lean on
// it: a field decoded before the pool's buffers are overwritten, and before
// other streams are decoded through them on other goroutines, reads the same
// afterwards. Under the race detector a view that outlived its decode is a
// read beside the next decode's inflate.
func TestDecodeKeepsNoViewOfFormattedBytes(t *testing.T) {
	var streams [][]byte
	var want []*grid.Field
	for seed := int64(1); seed <= 4; seed++ {
		f := smooth3D(32+8*int(seed), 16, 4, seed)
		res, err := Compress(f, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		chunked, err := CompressChunked(f, DefaultOptions(), 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, data := range [][]byte{res.Data, chunked.Data} {
			back, err := DecompressAnyParallel(data, 1)
			if err != nil {
				t.Fatal(err)
			}
			streams, want = append(streams, data), append(want, back.Clone())
		}
	}

	first, err := DecompressAnyParallel(streams[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	var held []*[]byte
	for i := 0; i < 8; i++ { // this P's buffer and whatever else the pool holds
		buf := formattedBufs.Get().(*[]byte)
		whole := (*buf)[:cap(*buf)]
		for j := range whole {
			whole[j] = 0xA5
		}
		held = append(held, buf)
	}
	for _, buf := range held {
		formattedBufs.Put(buf)
	}
	if !first.Equal(want[0]) {
		t.Fatal("overwriting the pooled formatted buffers changed a field already decoded")
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (g + i) % len(streams)
				got, err := DecompressAnyParallel(streams[k], 2)
				if err != nil || !got.Equal(want[k]) {
					t.Errorf("goroutine %d, stream %d: decoded beside other decodes: err %v, equal %v", g, k, err, err == nil && got.Equal(want[k]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if !first.Equal(want[0]) {
		t.Error("decoding other streams through the pool changed a field already decoded")
	}
}

// TestDecompressToFailureWritesWholeChunksOnly sweeps truncations and bit
// flips over a plain and a chunked stream decoded into a caller's field. A
// plain stream that fails has written nothing. A chunked stream that fails has
// written each chunk's planes entirely — the values the intact stream decodes
// to — or not at all.
func TestDecompressToFailureWritesWholeChunksOnly(t *testing.T) {
	for _, chunk := range []int{0, 16} {
		data := compressedSample(t, chunk)
		ref, err := DecompressAnyParallel(data, 1)
		if err != nil {
			t.Fatal(err)
		}
		frames := []chunkFrame{{ext: ref.Extent(0)}}
		if chunk > 0 {
			if _, frames, err = parseChunked(data); err != nil {
				t.Fatal(err)
			}
		}
		planeElems := ref.Len() / ref.Extent(0)
		failures, partial := 0, 0
		check := func(what string, mut []byte) {
			dest, owned := ownedField()
			if _, err := DecompressTo(mut, 3, dest); err == nil || *owned == nil {
				return // decoded after all, or failed before asking for a field
			}
			failures++
			got := (*owned).Data()
			for c, fr := range frames {
				lo, hi := fr.plane*planeElems, (fr.plane+fr.ext)*planeElems
				switch n := countWritten(got[lo:hi]); {
				case n == 0:
				case chunk == 0:
					t.Fatalf("%s: a plain stream failed with %d values written", what, n)
				default:
					partial++
					for i := lo; i < hi; i++ {
						if got[i] != ref.Data()[i] {
							t.Fatalf("%s: chunk %d written in part or wrongly (element %d)", what, c, i)
						}
					}
				}
			}
		}
		step := len(data)/256 + 1
		for at := 0; at < len(data); at += step {
			check("cut", data[:at])
			mut := append([]byte(nil), data...)
			mut[at] ^= 0x10
			check("flip", mut)
		}
		if chunk > 0 && (failures == 0 || partial == 0) {
			t.Errorf("chunked sweep saw %d failures past the framing, %d of them beside chunks that decoded: it lost its cases", failures, partial)
		}
	}
}

// TestDecompressGzipOnlyInto: the lossless rung lands in the caller's field,
// refuses one of another shape or a payload of another length without
// touching it, and a field it allocates itself shares nothing with the
// buffers it recycles — for a bare gzip payload and for an lz4+shuffle one,
// whose lanes go straight into the field.
func TestDecompressGzipOnlyInto(t *testing.T) {
	f := smooth3D(32, 16, 2, 5)
	other := smooth3D(32, 16, 2, 6)
	gz, err := CompressGzipOnly(f, gzipio.Default, gzipio.InMemory, "")
	if err != nil {
		t.Fatal(err)
	}
	gzOther, err := CompressGzipOnly(other, gzipio.Default, gzipio.InMemory, "")
	if err != nil {
		t.Fatal(err)
	}
	lz4 := func(f *grid.Field) []byte {
		res, err := entropy.Compress(grid.FloatBytes(f.Data()), entropy.Params{Codec: entropy.LZ4, Shuffle: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Compressed
	}
	for _, c := range []struct {
		label          string
		payload, other []byte
	}{
		{"gzip", gz.Data, gzOther.Data},
		{"lz4+shuffle", lz4(f), lz4(other)},
	} {
		into := grid.MustNew(32, 16, 2)
		got, err := DecompressGzipOnly(c.payload, into, 32, 16, 2)
		if err != nil || got != into || !into.Equal(f) {
			t.Fatalf("%s: into the caller's field: %v (its field: %v)", c.label, err, got == into)
		}
		for _, tc := range []struct {
			what  string
			into  *grid.Field
			shape []int
		}{
			{"a field of another shape", grid.MustNew(16, 32, 2), []int{32, 16, 2}},
			{"a shape the payload does not fill", grid.MustNew(32, 16, 3), []int{32, 16, 3}},
		} {
			tc.into.Fill(marker)
			if _, err := DecompressGzipOnly(c.payload, tc.into, tc.shape...); err == nil {
				t.Errorf("%s: %s: accepted", c.label, tc.what)
			}
			if n := countWritten(tc.into.Data()); n != 0 {
				t.Errorf("%s: %s: refused with %d values written", c.label, tc.what, n)
			}
		}

		fresh, err := DecompressGzipOnly(c.payload, nil, 32, 16, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Later decodes of another array draw the buffers this one recycled.
		for i := 0; i < 16; i++ {
			if _, err := DecompressGzipOnly(c.other, nil, 32, 16, 2); err != nil {
				t.Fatal(err)
			}
		}
		if !fresh.Equal(f) {
			t.Errorf("%s: a field DecompressGzipOnly allocated changed when its recycled buffers were reused", c.label)
		}
	}
}
