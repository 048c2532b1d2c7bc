// Benchmarks for the pluggable entropy stage (ISSUE PR 6): the pure-Go
// LZ4-class coder vs the DEFLATE baseline on the 24 MB nicam16x byte
// image, the byte-shuffle pre-pass, both decode paths, and the online
// autotuner's end-to-end pick vs the gzip-only pipeline. `make
// bench-entropy` distills these into BENCH_entropy.json; the headline
// numbers are lz4 compress ≥4× gzip throughput (>150 MB/s) and the
// autotuned pipeline beating gzip-only wall time.
package lossyckpt

import (
	"testing"

	"lossyckpt/internal/core"
	"lossyckpt/internal/entropy"
	"lossyckpt/internal/gzipio"
	"lossyckpt/internal/tune"
)

// entropyVariants is the codec × shuffle sweep every entropy benchmark
// walks.
var entropyVariants = []struct {
	name    string
	codec   entropy.ID
	shuffle bool
}{
	{"gzip", entropy.Gzip, false},
	{"gzip+shuffle", entropy.Gzip, true},
	{"lz4", entropy.LZ4, false},
	{"lz4+shuffle", entropy.LZ4, true},
}

func entropyBenchParams(codec entropy.ID, shuffle bool) entropy.Params {
	return entropy.Params{Codec: codec, Shuffle: shuffle, Stride: 8, GzipLevel: gzipio.Default}
}

// BenchmarkEntropyCompress measures the raw entropy stage (envelope
// included) on the 24 MB array image. mb_per_s is the number the >150
// MB/s lz4 target reads off.
func BenchmarkEntropyCompress(b *testing.B) {
	data := floatImage(syntheticClimate(b, 16*1156, 82, 2)) // ~24 MB
	for _, v := range entropyVariants {
		b.Run(v.name, func(b *testing.B) {
			p := entropyBenchParams(v.codec, v.shuffle)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := entropy.Compress(data, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEntropyDecompress measures the self-describing decode path on
// the same payloads.
func BenchmarkEntropyDecompress(b *testing.B) {
	data := floatImage(syntheticClimate(b, 16*1156, 82, 2))
	for _, v := range entropyVariants {
		res, err := entropy.Compress(data, entropyBenchParams(v.codec, v.shuffle))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := entropy.Decompress(res.Compressed, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEntropyShuffle measures the byte-shuffle pre-pass alone: a
// stride-8 lane transpose over the 24 MB image, both directions.
func BenchmarkEntropyShuffle(b *testing.B) {
	data := floatImage(syntheticClimate(b, 16*1156, 82, 2))
	shuffled := entropy.ShuffleBytes(data, 8)
	b.Run("shuffle", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			entropy.ShuffleBytes(data, 8)
		}
	})
	b.Run("unshuffle", func(b *testing.B) {
		b.SetBytes(int64(len(shuffled)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			entropy.UnshuffleBytes(shuffled, 8)
		}
	})
}

// BenchmarkEntropyAutotuned runs the full pipeline on the 24 MB climate
// array: the gzip-only baseline vs the autotuner's balanced pick (probed
// once on a 256 KiB sample, cached thereafter — the steady-state cost).
func BenchmarkEntropyAutotuned(b *testing.B) {
	f := syntheticClimate(b, 16*1156, 82, 2)
	base := core.DefaultOptions()

	b.Run("gzip-only", func(b *testing.B) {
		b.SetBytes(int64(f.Bytes()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Compress(f, base); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("autotuned", func(b *testing.B) {
		tn := tune.New(tune.Config{})
		sample := floatImage(f)[:256<<10]
		opts := tn.Decide("temperature", f.Bytes(), sample).Apply(base)
		b.SetBytes(int64(f.Bytes()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Compress(f, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
