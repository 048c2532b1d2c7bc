package cas

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"
)

// FuzzDecodeRecipe: adversarial recipe images must never panic, and a
// valid image must re-encode to the identical bytes.
func FuzzDecodeRecipe(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("LKR1"))
	r := &Recipe{Size: 5, CRC: crc32.ChecksumIEEE([]byte("hello")),
		Chunks: []Ref{{Hash: Sum([]byte("hello")), Len: 5}}}
	f.Add(r.Encode())
	empty := &Recipe{}
	f.Add(empty.Encode())
	f.Fuzz(func(t *testing.T, raw []byte) {
		rec, err := DecodeRecipe(raw)
		if err != nil {
			return
		}
		if got := rec.Encode(); !bytes.Equal(got, raw) {
			t.Fatalf("decode/encode not identity: %d vs %d bytes", len(got), len(raw))
		}
		if rec.TotalLen() != rec.Size {
			t.Fatalf("accepted recipe with TotalLen %d != Size %d", rec.TotalLen(), rec.Size)
		}
	})
}

// FuzzChunker: arbitrary input with arbitrary (valid) bounds must chunk
// into pieces that respect the bounds and reassemble exactly; and fed in
// arbitrary Write calls — single bytes, splits inside the warm-up window —
// the in-place cutter emits the reference cutter's chunks, none of them
// disturbed before the call that emitted it returns.
func FuzzChunker(f *testing.F) {
	f.Add([]byte("hello world"), uint8(2), int64(0))
	f.Add(make([]byte, 100000), uint8(4), int64(1))
	f.Add(randomBytes(3, 9000), uint8(5), int64(2))
	f.Fuzz(func(t *testing.T, data []byte, avgLog uint8, splitSeed int64) {
		avg := 1 << (4 + avgLog%8) // 16B .. 2KiB averages
		cfg := Config{Min: avg / 4, Avg: avg, Max: avg * 4}
		if avgLog >= 128 {
			cfg.Min, cfg.Max = avg, avg
		}
		chunks, err := Split(cfg, data)
		if err != nil {
			t.Fatal(err)
		}
		var back []byte
		for i, c := range chunks {
			if len(c) > cfg.Max || len(c) == 0 {
				t.Fatalf("chunk %d size %d outside (0,%d]", i, len(c), cfg.Max)
			}
			back = append(back, c...)
		}
		if !bytes.Equal(back, data) {
			t.Fatal("chunks do not reassemble input")
		}
		rng := rand.New(rand.NewSource(splitSeed))
		mode := 2
		if len(data) < 4<<10 {
			mode = int(uint64(splitSeed) % 3)
		}
		checkChunkerAgainstReference(t, cfg, data, writeSplits(rng, cfg, len(data), mode))
	})
}
