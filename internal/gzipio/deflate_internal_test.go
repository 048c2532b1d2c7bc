package gzipio

import (
	"math/rand"
	"testing"
)

// TestSymbolAgreesWithDecoderTables: the encoder computes a length's or a
// distance's symbol and extra bits; the decoder looks base and extra bits up
// in litSyms and distSyms. Every value must map to a symbol whose range, by
// the decoder's tables, holds it at the offset the encoder writes.
func TestSymbolAgreesWithDecoderTables(t *testing.T) {
	for length := 3; length <= maxMatch; length++ {
		sym, xb := symbol(uint32(length-3), 2)
		e := litSyms[257+sym]
		if base := int(e >> 16); e>>4&15 != xb || base+(length-3)&(1<<xb-1) != length || e&(flagLit|flagEOB) != 0 {
			t.Fatalf("length %d: symbol %d with %d extra bits; the decoder's entry has base %d, %d bits", length, sym, xb, base, e>>4&15)
		}
	}
	for dist := 1; dist <= windowLen; dist++ {
		sym, xb := symbol(uint32(dist-1), 1)
		e := distSyms[sym]
		if base := int(e >> 16); e>>4&15 != xb || base+(dist-1)&(1<<xb-1) != dist || sym >= maxDistSyms {
			t.Fatalf("distance %d: symbol %d with %d extra bits; the decoder's entry has base %d, %d bits", dist, sym, xb, base, e>>4&15)
		}
	}
}

// TestHuffLensCompleteAndLimited: for counts that push an unlimited Huffman
// tree far past the limit, and for ordinary ones, the lengths fit the limit,
// fill the code space exactly (every decoder here and in zlib refuses a
// partial code of more than one symbol) and never give a rarer symbol the
// shorter code.
func TestHuffLensCompleteAndLimited(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := map[string][]uint32{
		"one": {0, 0, 5}, "two": {9, 0, 1}, "equal": make([]uint32, 286), "fibonacci": make([]uint32, 40),
		"powers": make([]uint32, 30), "steep-then-flat": make([]uint32, 286), "random": make([]uint32, 286), "sparse": make([]uint32, 286),
	}
	a, b := uint32(1), uint32(1)
	for i := range cases["fibonacci"] {
		cases["fibonacci"][i] = a
		a, b = b, a+b
	}
	for i := range cases["powers"] {
		cases["powers"][i] = 1 << i
	}
	for i := range cases["equal"] {
		cases["equal"][i] = 3
		cases["steep-then-flat"][i] = 1 + uint32(1<<20)>>min(i, 20)
		cases["random"][i] = uint32(rng.Intn(1 << rng.Intn(20)))
		if i%17 == 0 {
			cases["sparse"][i] = uint32(1 + rng.Intn(1000))
		}
	}
	for name, freq := range cases {
		for _, limit := range []int{7, 15} {
			if limit == 7 && len(freq) > 19 {
				freq = freq[:19] // the code-length code has 19 symbols
			}
			lens := make([]uint8, len(freq))
			huffLens(lens, freq, limit)
			used, kraft := 0, 0
			for s, n := range lens {
				if (n == 0) != (freq[s] == 0) || int(n) > limit {
					t.Fatalf("%s limit %d: symbol %d of count %d has length %d", name, limit, s, freq[s], n)
				}
				if n > 0 {
					used++
					kraft += 1 << (limit - int(n))
				}
				for r, m := range lens {
					if freq[r] > freq[s] && m > n && n > 0 {
						t.Fatalf("%s limit %d: count %d has length %d, count %d length %d", name, limit, freq[r], m, freq[s], n)
					}
				}
			}
			if used > 1 && kraft != 1<<limit || used == 1 && kraft != 1<<(limit-1) {
				t.Errorf("%s limit %d: %d symbols fill %d of %d", name, limit, used, kraft, 1<<limit)
			}
		}
	}
}
