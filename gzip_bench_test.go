// Benchmarks for the block-parallel DEFLATE engine and the streaming
// checkpoint pipeline (ISSUE PR 5): serial CompressFormat vs pigz-style
// CompressParallel over worker and block-size sweeps, both decoders, and
// a checkpoint holding the payload whole vs streaming it on the 24 MB
// nicam16x array —
// and, since PRs 15 and 16, the slice-to-slice inflater and encoder beside
// the compress/gzip reader and writer they replaced. `make bench-gzip`
// distills these into BENCH_gzip.json.
package lossyckpt

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"testing"

	"lossyckpt/internal/ckpt"
	"lossyckpt/internal/container"
	"lossyckpt/internal/core"
	"lossyckpt/internal/faultsim"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/gzipio"
)

// floatImage serializes a field to its little-endian byte image — the
// exact input stage 4c sees.
func floatImage(f *grid.Field) []byte {
	out := make([]byte, 8*len(f.Data()))
	for i, v := range f.Data() {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// BenchmarkParallelGzip compares the serial DEFLATE stage against the
// block-parallel engine on the NICAM array's byte image: a workers sweep
// at the default 1 MiB block, a block-size sweep at the full worker
// count, and both decode paths. On a single-CPU host the acceptance bar
// is ≤5% overhead vs serial; the speedup claim needs GOMAXPROCS ≥ 2.
func BenchmarkParallelGzip(b *testing.B) {
	data := floatImage(syntheticClimate(b, 1156, 82, 2)) // ~1.5 MB

	b.Run("serial", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := gzipio.CompressFormat(data, gzipio.Default, gzipio.InMemory, "", gzipio.FormatGzip); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range workerSweep() {
		b.Run(fmt.Sprintf("block=1MiB/workers=%d", workers), func(b *testing.B) {
			po := gzipio.ParallelOptions{Workers: workers}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gzipio.CompressParallel(data, gzipio.Default, gzipio.FormatGzip, po); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, block := range []int{256 << 10, 4 << 20} {
		b.Run(fmt.Sprintf("block=%dKiB", block>>10), func(b *testing.B) {
			po := gzipio.ParallelOptions{BlockSize: block}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gzipio.CompressParallel(data, gzipio.Default, gzipio.FormatGzip, po); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	multi, err := gzipio.CompressParallel(data, gzipio.Default, gzipio.FormatGzip,
		gzipio.ParallelOptions{BlockSize: 256 << 10})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decompress=auto", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := gzipio.DecompressAuto(multi.Compressed); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decompress=parallel", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := gzipio.DecompressMembersParallel(multi.Compressed, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkInflate sets the repository's inflater beside the standard
// library's reader on what a restore inflates: one of the 64 slabs of the
// sparse 16 MiB array, a whole climate field, and that field's formatted
// bytes as a Huffman-only member (all literals, no matches: the table
// lookup alone). MB/s counts inflated bytes; the inflate rows decode into
// a buffer kept from the iteration before, as core does.
func BenchmarkInflate(b *testing.B) {
	app, err := faultsim.NewSparseApp(faultsim.SparseConfig{Elems: 1 << 21, MutateFraction: 0.01, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	slab, err := grid.FromSlice(app.Field().Data()[:1<<15], 1<<15)
	if err != nil {
		b.Fatal(err)
	}
	stream := func(f *grid.Field) []byte {
		res, err := core.Compress(f, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		return res.Data
	}
	climate := stream(syntheticClimate(b, 1156, 82, 2))
	formatted, err := gzipio.Decompress(climate)
	if err != nil {
		b.Fatal(err)
	}
	literals, err := gzipio.CompressFormat(formatted, gzip.HuffmanOnly, gzipio.InMemory, "", gzipio.FormatGzip)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"sparse16-slab", stream(slab)},
		{"climate-field", climate},
		{"huffman-only", literals.Compressed},
	} {
		want, err := gzipio.Decompress(c.data)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/inflate", func(b *testing.B) {
			b.SetBytes(int64(len(want)))
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				if buf, err = gzipio.DecompressTo(buf[:0], c.data, 1); err != nil {
					b.Fatal(err)
				}
			}
			if !bytes.Equal(buf, want) {
				b.Fatal("inflated bytes differ")
			}
		})
		b.Run(c.name+"/stdlib", func(b *testing.B) {
			b.SetBytes(int64(len(want)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				zr, err := gzip.NewReader(bytes.NewReader(c.data))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := io.ReadAll(zr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeflate is BenchmarkInflate's mirror: the repository's encoder
// beside the standard library's writer at the level they share as default, on
// what a save deflates — a climate field's formatted bytes, the field's raw
// float image (the gzip codec's input), and the formatted stream's one-byte
// quantization codes alone. MB/s counts input bytes; out-bytes is the gzip
// member's size. Both write into a buffer kept from the iteration before.
func BenchmarkDeflate(b *testing.B) {
	f := syntheticClimate(b, 1156, 82, 2)
	res, err := core.Compress(f, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	formatted, err := gzipio.Decompress(res.Data)
	if err != nil {
		b.Fatal(err)
	}
	arch, err := container.FromBytes(formatted)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"formatted-stream", formatted},
		{"float-image", floatImage(f)},
		{"codes-section", arch.Band().Codes},
	} {
		b.Run(c.name+"/deflate", func(b *testing.B) {
			b.SetBytes(int64(len(c.data)))
			b.ReportAllocs()
			var out bytes.Buffer
			for i := 0; i < b.N; i++ {
				out.Reset()
				if err := gzipio.CompressTo(&out, c.data, gzipio.Default, gzipio.FormatGzip); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(out.Len()), "out-bytes")
		})
		b.Run(c.name+"/stdlib", func(b *testing.B) {
			b.SetBytes(int64(len(c.data)))
			b.ReportAllocs()
			var out bytes.Buffer
			zw, err := gzip.NewWriterLevel(&out, gzip.DefaultCompression)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				out.Reset()
				zw.Reset(&out)
				if _, err := zw.Write(c.data); err != nil {
					b.Fatal(err)
				}
				if err := zw.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(out.Len()), "out-bytes")
		})
	}
}

// BenchmarkStreamingCheckpoint compares the two ways Checkpoint writes an
// entry on the 24 MB nicam16x array with the chunked lossy codec: buffered —
// delta on with cold caches, so the payload is encoded whole and framed as
// one segment — against the codec streaming its frames through the segment
// framing. Identical compression work, but the streaming path's bytes_per_op
// drops by the payload size because finished frames flow straight to the
// writer.
func BenchmarkStreamingCheckpoint(b *testing.B) {
	f := syntheticClimate(b, 16*1156, 82, 2)
	newMgr := func() *ckpt.Manager {
		lossy := ckpt.NewLossy()
		lossy.ChunkExtent = parallelChunkExtent
		m := ckpt.NewManager(lossy, 1)
		if err := m.Register("q", f); err != nil {
			b.Fatal(err)
		}
		return m
	}
	for _, buffered := range []bool{true, false} {
		name := "stream"
		if buffered {
			name = "buffered"
		}
		b.Run(name, func(b *testing.B) {
			m := newMgr()
			b.SetBytes(int64(f.Bytes()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Off and on again empties the delta caches.
				m.SetDelta(false)
				m.SetDelta(buffered)
				if _, err := m.Checkpoint(io.Discard, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
