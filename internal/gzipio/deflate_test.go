package gzipio_test

// The encoder in deflate.go replaced compress/flate's writer; the standard
// library stays as the oracle. Whatever the encoder emits, compress/gzip and
// compress/zlib must read back as the input, and so must the package's own
// inflater and, where it is installed, gunzip.

import (
	"bytes"
	"compress/gzip"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"

	"lossyckpt/internal/climate"
	"lossyckpt/internal/container"
	"lossyckpt/internal/core"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/guard"
	"lossyckpt/internal/gzipio"
)

var levels = []int{-2, 0, 1, 6, 9}

// framings are the four ways the package writes a DEFLATE stream. The
// parallel ones cut the input into blocks small enough that every input
// longer than a few bytes has several.
var framings = []struct {
	name     string
	format   gzipio.Format
	compress func(data []byte, level int) (gzipio.Result, error)
}{
	{"gzip", gzipio.FormatGzip, func(d []byte, l int) (gzipio.Result, error) {
		return gzipio.CompressFormat(d, l, gzipio.InMemory, "", gzipio.FormatGzip)
	}},
	{"zlib", gzipio.FormatZlib, func(d []byte, l int) (gzipio.Result, error) {
		return gzipio.CompressFormat(d, l, gzipio.InMemory, "", gzipio.FormatZlib)
	}},
	{"gzip-members", gzipio.FormatGzip, func(d []byte, l int) (gzipio.Result, error) {
		return gzipio.CompressParallel(d, l, gzipio.FormatGzip, gzipio.ParallelOptions{BlockSize: 40_000, Workers: 3})
	}},
	{"zlib-sync-flush", gzipio.FormatZlib, func(d []byte, l int) (gzipio.Result, error) {
		return gzipio.CompressParallel(d, l, gzipio.FormatZlib, gzipio.ParallelOptions{BlockSize: 40_000, Workers: 3})
	}},
}

// stdlibInflate reads one gzip stream of any number of members, or one zlib stream.
func stdlibInflate(data []byte, format gzipio.Format) ([]byte, error) {
	var zr io.ReadCloser
	var err error
	if format == gzipio.FormatGzip {
		zr, err = gzip.NewReader(bytes.NewReader(data))
	} else {
		zr, err = zlib.NewReader(bytes.NewReader(data))
	}
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	return out, zr.Close()
}

// climateFields is the climate model's five arrays after a few steps, at
// the paper's extent or a reduced one.
func climateFields(t testing.TB, nx int) []grid.Named {
	t.Helper()
	cfg := climate.DefaultConfig()
	cfg.Nx = nx
	m, err := climate.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.StepN(3)
	return m.Fields()
}

// formatted is what stages 1-3 hand stage 4 for f: core.Compress's stream, inflated.
func formatted(t testing.TB, f *grid.Field, opts core.Options) []byte {
	t.Helper()
	res, err := core.Compress(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := gzipio.Decompress(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func floatImage(f *grid.Field) []byte {
	out := make([]byte, 8*f.Len())
	for i, v := range f.Data() {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// inputs are the differential test's: the edges of the stored block's length
// field, one symbol, no structure at all, matches at the farthest distance
// and of the longest length the format has, and what this repository feeds
// the encoder.
func inputs(t testing.TB) map[string][]byte {
	rng := rand.New(rand.NewSource(16))
	random := make([]byte, 70_000)
	rng.Read(random)
	far := append(append([]byte(nil), random[:32768]...), random[:300]...) // distance 32768 exactly
	long := append(append([]byte(nil), random[:258]...), random[:258]...)  // one match of 258
	long = append(long, random[1000:1010]...)
	in := map[string][]byte{
		"empty": {}, "one-byte": {0x5a}, "65535": random[:65535], "65536": random[:65536],
		"zeros": make([]byte, 100_000), "random": random, "distance-32768": far, "length-258": long,
	}
	for _, nf := range climateFields(t, 96) {
		in["formatted-"+nf.Name] = formatted(t, nf.Field, core.DefaultOptions())
		if nf.Name == "temperature" {
			in["float-image"] = floatImage(nf.Field)
		}
	}
	return in
}

func TestDeflateDifferential(t *testing.T) {
	gunzip, _ := exec.LookPath("gunzip")
	if gunzip == "" {
		t.Log("no gunzip binary: the stock tool's verdict is skipped")
	}
	dir := t.TempDir()
	for name, data := range inputs(t) {
		for _, level := range levels {
			for _, fr := range framings {
				id := fmt.Sprintf("%s/level=%d/%s", name, level, fr.name)
				res, err := fr.compress(data, level)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				if got, err := stdlibInflate(res.Compressed, fr.format); err != nil || !bytes.Equal(got, data) {
					t.Fatalf("%s: the standard library reads %d bytes, err %v; want the %d put in", id, len(got), err, len(data))
				}
				if got, err := gzipio.DecompressAuto(res.Compressed); err != nil || !bytes.Equal(got, data) {
					t.Fatalf("%s: the inflater reads %d bytes, err %v; want the %d put in", id, len(got), err, len(data))
				}
				if level == 0 && len(res.Compressed) > len(data)+len(data)/1000+64 {
					t.Errorf("%s: level 0 stores, yet %d bytes became %d", id, len(data), len(res.Compressed))
				}
				if gunzip != "" && fr.format == gzipio.FormatGzip {
					path := filepath.Join(dir, "t.gz")
					if err := os.WriteFile(path, res.Compressed, 0o644); err != nil {
						t.Fatal(err)
					}
					if out, err := exec.Command(gunzip, "-t", path).CombinedOutput(); err != nil {
						t.Fatalf("%s: gunzip -t: %v: %s", id, err, out)
					}
				}
			}
		}
	}
}

func TestDeflateRejectsBadLevelAndFormat(t *testing.T) {
	data := []byte("stage four")
	for _, level := range []int{-3, 10, 100} {
		for _, fr := range framings {
			if _, err := fr.compress(data, level); err == nil {
				t.Errorf("%s took level %d", fr.name, level)
			}
		}
		if err := gzipio.CompressTo(io.Discard, data, level, gzipio.FormatGzip); err == nil {
			t.Errorf("CompressTo took level %d", level)
		}
	}
	bad := gzipio.Format(7)
	if _, err := gzipio.CompressFormat(data, gzipio.Default, gzipio.InMemory, "", bad); err == nil {
		t.Error("CompressFormat took an unknown format")
	}
	if _, err := gzipio.CompressParallel(data, gzipio.Default, bad, gzipio.ParallelOptions{}); err == nil {
		t.Error("CompressParallel took an unknown format")
	}
	if err := gzipio.CompressTo(io.Discard, data, gzipio.Default, bad); err == nil {
		t.Error("CompressTo took an unknown format")
	}
}

// TestDeflateDependsOnInputAlone: the encoder's state is recycled, and none
// of it — hash table, chains, match list, the block before's code lengths, the
// probing decision — may reach the next stream. A, B, A at mixed levels and
// framings gives the same bytes as the first time, on one goroutine and on
// several at once (run under -race -count=10).
func TestDeflateDependsOnInputAlone(t *testing.T) {
	in := inputs(t)
	type job struct {
		name          string
		level, framed int
	}
	var jobs []job
	for _, name := range []string{"formatted-pressure", "float-image", "zeros", "formatted-wind_u", "random", "length-258"} {
		for k, level := range []int{6, 9, -2, 1} {
			jobs = append(jobs, job{name, level, (k + len(name)) % len(framings)})
		}
	}
	run := func(j job) []byte {
		res, err := framings[j.framed].compress(in[j.name], j.level)
		if err != nil {
			t.Error(err)
		}
		return res.Compressed
	}
	want := make([][]byte, len(jobs))
	for i, j := range jobs {
		want[i] = run(j)
	}
	check := func(order []int) {
		for _, i := range order {
			if got := run(jobs[i]); !bytes.Equal(got, want[i]) {
				t.Errorf("%+v: %d bytes now, %d the first time", jobs[i], len(got), len(want[i]))
			}
		}
	}
	aba := func(seed int64) []int {
		order := rand.New(rand.NewSource(seed)).Perm(len(jobs))
		return append(order, order...)
	}
	check(aba(1))
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(aba(10 + g))
		}()
	}
	wg.Wait()
}

// TestCompressToWritesCompressFormat: the streaming entry writes the bytes
// the buffered one returns, in pieces, and passes a writer's error up.
func TestCompressToWritesCompressFormat(t *testing.T) {
	data := inputs(t)["float-image"]
	data = bytes.Repeat(data, 8) // enough for several pieces
	for _, format := range []gzipio.Format{gzipio.FormatGzip, gzipio.FormatZlib} {
		want, err := gzipio.CompressFormat(data, gzipio.Default, gzipio.InMemory, "", format)
		if err != nil {
			t.Fatal(err)
		}
		var w pieces
		if err := gzipio.CompressTo(&w, data, gzipio.Default, format); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.buf.Bytes(), want.Compressed) {
			t.Errorf("%v: CompressTo wrote %d bytes, CompressFormat returns %d", format, w.buf.Len(), len(want.Compressed))
		}
		if w.writes < 4 || w.largest > len(want.Compressed)/4 {
			t.Errorf("%v: %d bytes went out in %d writes, the largest %d: not streamed", format, w.buf.Len(), w.writes, w.largest)
		}
		w = pieces{failAfter: 2}
		if err := gzipio.CompressTo(&w, data, gzipio.Default, format); !errors.Is(err, errSink) {
			t.Errorf("%v: a failing writer gave %v", format, err)
		}
	}
}

var errSink = errors.New("sink full")

// pieces records how the bytes came and fails from the failAfter-th write on.
type pieces struct {
	buf                        bytes.Buffer
	writes, largest, failAfter int
}

func (p *pieces) Write(b []byte) (int, error) {
	if p.writes++; p.failAfter > 0 && p.writes >= p.failAfter {
		return 0, errSink
	}
	p.largest = max(p.largest, len(b))
	return p.buf.Write(b)
}

// TestDeflateSizePins: the encoder was let in because on the streams this
// repository writes it stays beside compress/flate at level 6. Those streams
// are container format 2 now — float sections in byte lanes — and on them its
// tokenizer, whose match probe keeps the modulo-8 phase of interleaved
// doubles, gives the standard library 1.1-1.9 % on the five formatted climate
// streams and up to 0.8 % on the lossless-bands streams of the guard's
// PSNR >= 80 ladder (every high-band coefficient verbatim); each figure is
// logged and every stream held to 2 %. Dropping the phase mask bought
// 0.5-0.9 % of the bytes back for 12 % of the save's time when this was
// measured, so it stays. The one-byte quantization codes alone, which code
// shorter without matches, come out strictly smaller.
func TestDeflateSizePins(t *testing.T) {
	stdlib := func(data []byte) int {
		var buf bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&buf, 6)
		zw.Write(data)
		zw.Close()
		return buf.Len()
	}
	ours := func(data []byte) int {
		res, err := gzipio.CompressFormat(data, gzipio.Default, gzipio.InMemory, "", gzipio.FormatGzip)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Compressed)
	}
	bands := core.DefaultOptions()
	bands.LosslessBands = true
	shipped := map[string]int{} // streams a save really writes, by kind
	for _, nf := range climateFields(t, climate.DefaultNx) {
		lossy := formatted(t, nf.Field, core.DefaultOptions())
		out, err := guard.Encode(nf.Name, nf.Field, core.DefaultOptions(), guard.Policy{PSNRFloor: 80})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name    string
			data    []byte
			shipped bool
		}{
			{"formatted", lossy, true},
			{"lossless-bands", formatted(t, nf.Field, bands), out.Annotation.Mode == guard.LosslessBands},
		} {
			got, want := ours(c.data), stdlib(c.data)
			t.Logf("%s/%s: %d bytes in, %d out, compress/flate level 6 %d (%.4f), shipped %v", nf.Name, c.name, len(c.data), got, want, float64(got)/float64(want), c.shipped)
			if float64(got) > 1.02*float64(want) {
				t.Errorf("%s/%s: %d bytes, over 1.02 x compress/flate's %d", nf.Name, c.name, got, want)
			}
			if c.shipped {
				shipped[c.name]++
			}
		}
		arch, err := container.FromBytes(lossy)
		if err != nil {
			t.Fatal(err)
		}
		codes := arch.Band().Codes
		if got, want := ours(codes), stdlib(codes); got >= want {
			t.Errorf("%s: %d quantization codes became %d bytes, compress/flate's %d or more", nf.Name, len(codes), got, want)
		}
	}
	if shipped["lossless-bands"] == 0 {
		t.Error("the ladder ended on lossless bands for no field: that rung's streams are held for nothing")
	}
}

// FuzzDeflateRoundTrip: any input at any level in any framing reads back,
// by the standard library and by the inflater, as what went in.
func FuzzDeflateRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(3), uint8(0))
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaabcabcabcabc"), uint8(4), uint8(1))
	f.Add(bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 1, 2, 3, 4, 5, 0x10, 0xf0, 0x3f}, 700), uint8(3), uint8(2))
	f.Add(bytes.Repeat([]byte("wavelet coefficients "), 4000), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, l, fr uint8) {
		level, framing := levels[int(l)%len(levels)], framings[int(fr)%len(framings)]
		res, err := framing.compress(data, level)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := stdlibInflate(res.Compressed, framing.format); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("level %d %s: the standard library reads %d bytes, err %v; want %d", level, framing.name, len(got), err, len(data))
		}
		if got, err := gzipio.DecompressAuto(res.Compressed); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("level %d %s: the inflater reads %d bytes, err %v; want %d", level, framing.name, len(got), err, len(data))
		}
	})
}
