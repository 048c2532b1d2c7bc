package gzipio

import (
	"bytes"
	"compress/gzip"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/adler32"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"testing"
)

// The decoder this package replaced lives on as the oracle: whatever
// compress/gzip and compress/zlib accept, reject and produce, inflateStream
// must too.

// stdlibInflate is the read path as it was before inflate.go: gzip's own
// multistream reader, or zlib streams decoded back to back.
func stdlibInflate(data []byte, format Format) ([]byte, error) {
	if format == FormatGzip {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		out, err := io.ReadAll(zr)
		if err != nil {
			return nil, err
		}
		return out, zr.Close()
	}
	r := bytes.NewReader(data)
	var out bytes.Buffer
	for {
		zr, err := zlib.NewReader(r)
		if err != nil {
			return nil, err
		}
		if _, err := out.ReadFrom(zr); err != nil {
			return nil, err
		}
		if err := zr.Close(); err != nil {
			return nil, err
		}
		if r.Len() == 0 {
			return out.Bytes(), nil
		}
	}
}

// truncated reports whether err says the input ended early (compress/gzip
// says io.EOF of no input at all) rather than that it is wrong.
func truncated(err error) bool {
	return errors.Is(err, io.ErrUnexpectedEOF) || err == io.EOF
}

// holdSlack is the constant of the memory bound: the least growth step and
// the room kept for one match.
const holdSlack = minGrow + maxMatch

// agree decodes data both ways and fails unless the two accept or reject
// together and, accepting, produce the same bytes. It also holds the new
// decoder to its memory bound — accepted or not, it never has more than
// twice what it decoded — and reports whether the input was accepted.
func agree(t testing.TB, name string, data []byte, format Format) bool {
	t.Helper()
	want, werr := stdlibInflate(data, format)
	got, gerr := inflateStream(nil, data, format)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s (%v, %d bytes): stdlib err %v, inflate err %v", name, format, len(data), werr, gerr)
	}
	if truncated(werr) != truncated(gerr) {
		t.Fatalf("%s (%v, %d bytes): stdlib err %v, inflate err %v: one says cut short, one corrupt", name, format, len(data), werr, gerr)
	}
	if werr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s (%v): output differs: %d bytes, stdlib %d", name, format, len(got), len(want))
	}
	if cap(got) > 2*len(got)+holdSlack {
		t.Fatalf("%s (%v): holds %d bytes for %d decoded", name, format, cap(got), len(got))
	}
	return werr == nil
}

// --- hand-made streams ------------------------------------------------------

// bitWriter writes DEFLATE's bit order: fields low bit first, Huffman codes
// high bit first.
type bitWriter struct {
	b   []byte
	acc uint64
	n   uint
}

func (w *bitWriter) bits(v uint64, n uint) {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.b = append(w.b, byte(w.acc))
		w.acc >>= 8
	}
}

func (w *bitWriter) code(c huffCode) {
	for i := int(c.n) - 1; i >= 0; i-- {
		w.bits(uint64(c.c>>uint(i))&1, 1)
	}
}

func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		w.bits(0, 8-w.n)
	}
	return w.b
}

type huffCode struct{ c, n uint }

// canon assigns RFC 1951's canonical codes to the given lengths, however
// little sense they make as a code.
func canon(lens []uint8) []huffCode {
	var count, next [17]uint
	for _, n := range lens {
		count[n]++
	}
	count[0] = 0
	code := uint(0)
	for n := 1; n <= 16; n++ {
		code = (code + count[n-1]) << 1
		next[n] = code
	}
	out := make([]huffCode, len(lens))
	for s, n := range lens {
		if n != 0 {
			out[s] = huffCode{next[n], uint(n)}
			next[n]++
		}
	}
	return out
}

// fixedLens are the code lengths of RFC 1951's fixed literal/length code.
func fixedLens() []uint8 {
	lens := make([]uint8, 288)
	for s := range lens {
		switch {
		case s < 144, s >= 280:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		default:
			lens[s] = 7
		}
	}
	return lens
}

// clenSym is one symbol of a dynamic block's code-length sequence.
type clenSym struct {
	sym   int
	extra uint64 // the repeat count's bits for 16, 17, 18
}

// dynamicHeader writes a dynamic block's header: the counts as given (so
// they may lie), the code-length code's lengths, and the sequence coded
// with it.
func dynamicHeader(w *bitWriter, final bool, hlit, hdist int, clens [19]uint8, seq []clenSym) {
	f := uint64(0)
	if final {
		f = 1
	}
	w.bits(f|2<<1, 3)
	w.bits(uint64(hlit), 5)
	w.bits(uint64(hdist), 5)
	w.bits(19-4, 4)
	for _, s := range clenOrder {
		w.bits(uint64(clens[s]), 3)
	}
	codes := canon(clens[:])
	for _, cs := range seq {
		w.code(codes[cs.sym])
		switch cs.sym {
		case 16:
			w.bits(cs.extra, 2)
		case 17:
			w.bits(cs.extra, 3)
		case 18:
			w.bits(cs.extra, 7)
		}
	}
}

// plainClens is a code-length code giving each length 0..15 four bits and
// no repeat symbols; repeatClens trades lengths 12..15 for them.
var (
	plainClens  = [19]uint8{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 0, 0, 0}
	repeatClens = [19]uint8{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 0, 0, 0, 4, 4, 4, 4}
)

// lensSeq spells code lengths out one symbol each, no repeats.
func lensSeq(lens ...[]uint8) []clenSym {
	var seq []clenSym
	for _, l := range lens {
		for _, n := range l {
			seq = append(seq, clenSym{sym: int(n)})
		}
	}
	return seq
}

// dynamicBlock writes a whole dynamic block: the header for the given
// lengths, then whatever emit writes with the two codes.
func dynamicBlock(w *bitWriter, final bool, lit, dist []uint8, emit func(lc, dc []huffCode)) {
	dynamicHeader(w, final, len(lit)-257, len(dist)-1, plainClens, lensSeq(lit, dist))
	emit(canon(lit), canon(dist))
}

// gz and zl frame a raw DEFLATE stream that decodes to plain.
func gz(raw, plain []byte) []byte {
	out := []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}
	out = append(out, raw...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(plain))
	return binary.LittleEndian.AppendUint32(out, uint32(len(plain)))
}

func zl(raw, plain []byte) []byte {
	out := append([]byte{0x78, 0x9c}, raw...)
	return binary.BigEndian.AppendUint32(out, adler32.Checksum(plain))
}

// rawCase is a hand-made DEFLATE stream, what it decodes to (for a stream
// that should be refused: what was decoded before the fault), and whether it
// should decode at all. The oracle has the last word on that; accept is
// there so that a case that stopped testing what its name says fails.
type rawCase struct {
	name   string
	raw    []byte
	plain  []byte
	accept bool
}

func rawCases() []rawCase {
	var cases []rawCase
	add := func(name string, accept bool, build func(w *bitWriter) string) {
		var w bitWriter
		plain := build(&w)
		cases = append(cases, rawCase{name, w.bytes(), []byte(plain), accept})
	}
	fl := canon(fixedLens())
	dist5 := func(s uint) huffCode { return huffCode{s, 5} }
	stored := func(w *bitWriter, final uint64, data string, nlen uint16) {
		w.bits(final, 3)
		if w.n > 0 {
			w.bits(0, 8-w.n)
		}
		w.bits(uint64(len(data)), 16)
		w.bits(uint64(nlen), 16)
		w.b = append(w.b, data...)
	}

	add("stored empty final", true, func(w *bitWriter) string { stored(w, 1, "", 0xffff); return "" })
	add("stored then stored", true, func(w *bitWriter) string {
		stored(w, 0, "hello, ", ^uint16(7))
		stored(w, 1, "world", ^uint16(5))
		return "hello, world"
	})
	add("stored NLEN mismatch", false, func(w *bitWriter) string { stored(w, 1, "abc", 0xfff0); return "" })
	add("stored after bits of a fixed block", true, func(w *bitWriter) string {
		w.bits(1<<1, 3)
		w.code(fl['a'])
		w.code(fl[256])
		stored(w, 1, "b", ^uint16(1))
		return "ab"
	})
	add("reserved block type", false, func(w *bitWriter) string { w.bits(1|3<<1, 3); return "" })
	add("no final block", false, func(w *bitWriter) string {
		w.bits(1<<1, 3)
		w.code(fl['a'])
		w.code(fl[256])
		return "a"
	})

	add("fixed literals and overlapping match", true, func(w *bitWriter) string {
		w.bits(1|1<<1, 3)
		w.code(fl['a'])
		w.code(fl['b'])
		w.code(fl[257+9-3]) // length 9
		w.code(dist5(1))    // distance 2
		w.code(fl['!'])
		w.code(fl[256])
		return "abababababa!"
	})
	add("fixed run of one byte, length 258", true, func(w *bitWriter) string {
		w.bits(1|1<<1, 3)
		w.code(fl['z'])
		w.code(fl[285])
		w.code(dist5(0))
		w.code(fl[256])
		return string(bytes.Repeat([]byte{'z'}, 259))
	})
	add("fixed extra bits on length and distance", true, func(w *bitWriter) string {
		const text = "0123456789abcdefghij"
		w.bits(1|1<<1, 3)
		for _, c := range text {
			w.code(fl[c])
		}
		w.code(fl[266])  // lengths 13..14
		w.bits(0, 1)     // 13
		w.code(dist5(8)) // distances 17..24
		w.bits(3, 3)     // 20
		w.code(fl[256])
		return text + text[:13]
	})
	for _, s := range []int{286, 287} {
		add(fmt.Sprintf("fixed length symbol %d", s), false, func(w *bitWriter) string {
			w.bits(1|1<<1, 3)
			w.code(fl['a'])
			w.code(fl[s])
			w.code(dist5(0))
			w.code(fl[256])
			return "a"
		})
	}
	for _, s := range []uint{30, 31} {
		add(fmt.Sprintf("fixed distance symbol %d", s), false, func(w *bitWriter) string {
			w.bits(1|1<<1, 3)
			w.code(fl['a'])
			w.code(fl[257])
			w.code(dist5(s))
			w.code(fl[256])
			return "a"
		})
	}
	add("distance before the first byte", false, func(w *bitWriter) string {
		w.bits(1|1<<1, 3)
		w.code(fl['a'])
		w.code(fl[257])
		w.code(dist5(1))
		w.code(fl[256])
		return "a"
	})
	add("match with nothing written", false, func(w *bitWriter) string {
		w.bits(1|1<<1, 3)
		w.code(fl[257])
		w.code(dist5(0))
		w.code(fl[256])
		return ""
	})

	// Dynamic blocks. lit gives 'a', 'b', end-of-block and length 3 two
	// bits each — a complete code — unless told otherwise.
	lit := func(other map[int]uint8) []uint8 {
		l := make([]uint8, 258)
		l['a'], l['b'], l[256], l[257] = 2, 2, 2, 2
		for s, n := range other {
			l[s] = n
		}
		return l
	}
	add("dynamic, two-code distance tree", true, func(w *bitWriter) string {
		dynamicBlock(w, true, lit(nil), []uint8{1, 1}, func(lc, dc []huffCode) {
			w.code(lc['a'])
			w.code(lc['b'])
			w.code(lc[257])
			w.code(dc[1])
			w.code(lc[256])
		})
		return "ababa"
	})
	add("dynamic, one-code distance tree, its code", true, func(w *bitWriter) string {
		dynamicBlock(w, true, lit(nil), []uint8{1}, func(lc, dc []huffCode) {
			w.code(lc['a'])
			w.code(lc[257])
			w.code(dc[0])
			w.code(lc[256])
		})
		return "aaaa"
	})
	add("dynamic, one-code distance tree, the other bit", false, func(w *bitWriter) string {
		dynamicBlock(w, true, lit(nil), []uint8{1}, func(lc, dc []huffCode) {
			w.code(lc['a'])
			w.code(lc[257])
			w.bits(1, 1)
			w.code(lc[256])
		})
		return "a"
	})
	add("dynamic, one-code distance tree of two bits", false, func(w *bitWriter) string {
		dynamicBlock(w, true, lit(nil), []uint8{2}, func(lc, dc []huffCode) { w.code(lc[256]) })
		return ""
	})
	add("dynamic, empty distance tree, literals only", true, func(w *bitWriter) string {
		dynamicBlock(w, true, lit(nil), []uint8{0}, func(lc, dc []huffCode) {
			w.code(lc['a'])
			w.code(lc['b'])
			w.code(lc[256])
		})
		return "ab"
	})
	add("dynamic, empty distance tree, a match", false, func(w *bitWriter) string {
		dynamicBlock(w, true, lit(nil), []uint8{0}, func(lc, dc []huffCode) {
			w.code(lc['a'])
			w.code(lc[257])
			w.bits(0, 1)
			w.code(lc[256])
		})
		return "a"
	})
	add("dynamic, empty literal tree", false, func(w *bitWriter) string {
		dynamicBlock(w, true, make([]uint8, 257), []uint8{0}, func(lc, dc []huffCode) { w.bits(0, 8) })
		return ""
	})
	add("dynamic, one-code literal tree: end-of-block alone", true, func(w *bitWriter) string {
		l := make([]uint8, 257)
		l[256] = 1
		dynamicBlock(w, true, l, []uint8{0}, func(lc, dc []huffCode) { w.code(lc[256]) })
		return ""
	})
	add("dynamic, over-subscribed literal tree", false, func(w *bitWriter) string {
		dynamicBlock(w, true, lit(map[int]uint8{'c': 2}), []uint8{1, 1}, func(lc, dc []huffCode) { w.bits(0, 16) })
		return ""
	})
	add("dynamic, incomplete literal tree", false, func(w *bitWriter) string {
		dynamicBlock(w, true, lit(map[int]uint8{257: 3}), []uint8{1, 1}, func(lc, dc []huffCode) { w.code(lc[256]) })
		return ""
	})
	add("dynamic, incomplete distance tree", false, func(w *bitWriter) string {
		dynamicBlock(w, true, lit(nil), []uint8{1, 2}, func(lc, dc []huffCode) { w.code(lc[256]) })
		return ""
	})
	add("dynamic, no end-of-block code", false, func(w *bitWriter) string {
		l := make([]uint8, 257)
		l['a'], l['b'] = 1, 1
		dynamicBlock(w, true, l, []uint8{0}, func(lc, dc []huffCode) { w.bits(0, 32) })
		return ""
	})
	// Codes longer than either table's index. One code each of 1..14 bits
	// and two of 15 complete a code: literals 0..12 take 1..13 bits, length 3
	// takes 14, literal 14 and end-of-block 15; distance symbols 0..13 take
	// 1..14 bits, 14 (distances 129..192) and 29 (24577..) take 15.
	add("dynamic, second-level tables", true, func(w *bitWriter) string {
		l, d := make([]uint8, 258), make([]uint8, 30)
		for i := 0; i < 13; i++ {
			l[i] = uint8(i + 1)
		}
		l[257], l[14], l[256] = 14, 15, 15
		for i := 0; i < 14; i++ {
			d[i] = uint8(i + 1)
		}
		d[14], d[29] = 15, 15
		var plain []byte
		dynamicBlock(w, true, l, d, func(lc, dc []huffCode) {
			match := func(dsym int, extra uint64, xb uint, dist int) {
				w.code(lc[257])
				w.code(dc[dsym])
				w.bits(extra, xb)
				for i := 0; i < 3; i++ {
					plain = append(plain, plain[len(plain)-dist])
				}
			}
			for i := 0; i < 200; i++ {
				s := []int{0, 5, 12, 14, 11, 14}[i%6]
				w.code(lc[s])
				plain = append(plain, byte(s))
			}
			match(14, 5, 6, 134)
			match(0, 0, 0, 1)
			match(13, 20, 5, 117) // a 14-bit code
			w.code(lc[256])
		})
		return string(plain)
	})

	// Header counts at and past their limits. 254 eight-bit codes and four
	// nine-bit ones complete a 286-symbol literal code; distance symbols 0
	// and 29 at one bit each a 30-symbol distance code.
	lit286 := make([]uint8, 286)
	for s := range lit286[:254] {
		lit286[s] = 8
	}
	lit286[254], lit286[255], lit286[256], lit286[285] = 9, 9, 9, 9
	dist30 := make([]uint8, 30)
	dist30[0], dist30[29] = 1, 1
	for pad := 0; pad <= 2; pad++ { // HLIT 29, 30, 31
		add(fmt.Sprintf("dynamic, %d literal/length codes", 286+pad), pad == 0, func(w *bitWriter) string {
			dynamicBlock(w, true, append(lit286[:286:286], make([]uint8, pad)...), []uint8{1}, func(lc, dc []huffCode) {
				w.code(lc[0])
				w.code(lc[285])
				w.code(dc[0])
				w.code(lc[256])
			})
			return string(make([]byte, 259))
		})
	}
	for pad := 0; pad <= 2; pad++ { // HDIST 29, 30, 31
		add(fmt.Sprintf("dynamic, %d distance codes", 30+pad), pad == 0, func(w *bitWriter) string {
			dynamicBlock(w, true, lit(nil), append(dist30[:30:30], make([]uint8, pad)...), func(lc, dc []huffCode) {
				w.code(lc['a'])
				w.code(lc[257])
				w.code(dc[0])
				w.code(lc[256])
			})
			return "aaaa"
		})
	}
	add("dynamic, repeat with nothing before it", false, func(w *bitWriter) string {
		dynamicHeader(w, true, 0, 0, repeatClens, []clenSym{{16, 0}})
		w.bits(0, 64)
		return ""
	})
	add("dynamic, repeat past the last length", false, func(w *bitWriter) string {
		// 257 + 1 lengths; 138 + 116 + 10 zeros are six too many.
		dynamicHeader(w, true, 0, 0, repeatClens, []clenSym{{18, 127}, {18, 105}, {17, 7}})
		w.bits(0, 64)
		return ""
	})
	add("dynamic, a repeat crossing from literals into distances", true, func(w *bitWriter) string {
		// 260 + 2 lengths: 'a' and end-of-block one bit each, the rest zero;
		// the last run of five zeros covers 257..259 and both distances.
		seq := []clenSym{{18, 97 - 11}, {1, 0}, {18, 127}, {18, 20 - 11}, {1, 0}, {17, 5 - 3}}
		dynamicHeader(w, true, 3, 1, repeatClens, seq)
		w.bits(0, 2) // a a
		w.bits(1, 1) // end-of-block
		return "aa"
	})
	add("dynamic, repeat of the previous length", true, func(w *bitWriter) string {
		// 253 zeros, then literals 253..255 and end-of-block two bits each,
		// the last three by one repeat; one unused distance length.
		seq := []clenSym{{18, 127}, {18, 115 - 11}, {2, 0}, {16, 0}, {0, 0}}
		dynamicHeader(w, true, 0, 0, repeatClens, seq)
		w.bits(0, 2) // literal 253
		w.bits(3, 2) // end-of-block
		return "\xfd"
	})
	add("dynamic, empty code-length code", false, func(w *bitWriter) string {
		dynamicHeader(w, true, 0, 0, [19]uint8{}, nil)
		w.bits(0, 64)
		return ""
	})
	add("dynamic, incomplete code-length code", false, func(w *bitWriter) string {
		dynamicHeader(w, true, 0, 0, [19]uint8{0: 1, 1: 2}, nil)
		w.bits(0, 64)
		return ""
	})
	return cases
}

func frame(raw, plain []byte, format Format) []byte {
	if format == FormatZlib {
		return zl(raw, plain)
	}
	return gz(raw, plain)
}

// mutations holds one framed stream, cut at every byte, with a byte too
// many and with every single bit flipped, to the oracle.
func mutations(t *testing.T, name string, framed []byte, format Format) {
	t.Helper()
	for cut := 0; cut < len(framed); cut++ {
		agree(t, name+" cut", framed[:cut], format)
	}
	agree(t, name+" trailing", append(framed[:len(framed):len(framed)], 0), format)
	flipped := make([]byte, len(framed))
	for bit := 0; bit < 8*len(framed); bit++ {
		copy(flipped, framed)
		flipped[bit/8] ^= 1 << (bit % 8)
		agree(t, name+" flipped", flipped, format)
	}
}

func TestInflateHandMadeStreams(t *testing.T) {
	for _, c := range rawCases() {
		for _, format := range []Format{FormatGzip, FormatZlib} {
			framed := frame(c.raw, c.plain, format)
			if got := agree(t, c.name, framed, format); got != c.accept {
				t.Errorf("%s (%v): accepted %v, the case was built for %v", c.name, format, got, c.accept)
			}
			mutations(t, c.name, framed, format)
		}
	}
}

// --- streams a compressor made ------------------------------------------------

// corpus is what the codec's payloads look like and what stresses a
// decoder: nothing, one byte, runs, text, noise, and packed float fields
// smooth, sparse and quantized.
func corpus() map[string][]byte {
	rng := rand.New(rand.NewSource(15))
	floats := func(n int, f func(i int) float64) []byte {
		out := make([]byte, 8*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(f(i)))
		}
		return out
	}
	noise := func(n int) []byte {
		out := make([]byte, n)
		rng.Read(out)
		return out
	}
	text := bytes.Repeat([]byte("the wavelet coefficients of a smooth field are mostly small; "), 700)
	c := map[string][]byte{
		"empty":      {},
		"one byte":   {0x42},
		"three":      []byte("abc"),
		"zeros 1":    make([]byte, 1),
		"zeros 70k":  make([]byte, 70<<10), // longer than a stored block and than the window
		"run 300":    bytes.Repeat([]byte{7}, 300),
		"pairs":      bytes.Repeat([]byte{1, 2}, 5000),
		"text":       text,
		"text 100":   text[:100],
		"noise 300":  noise(300),
		"noise 40k":  noise(40 << 10),
		"noise 70k":  noise(70 << 10),
		"low nibble": nil,
		"smooth":     floats(6000, func(i int) float64 { return 280 + 10*math.Sin(float64(i)/50) }),
		"sparse":     floats(6000, func(i int) float64 { return float64(i%97/96) * rng.NormFloat64() }),
		"quantized":  floats(6000, func(i int) float64 { return math.Round(8*math.Sin(float64(i)/9)) / 8 }),
		"far match":  append(append(noise(200), make([]byte, 32<<10-100)...), noise(200)...),
		"mixed":      append(append(append([]byte(nil), text[:9000]...), noise(9000)...), make([]byte, 9000)...),
	}
	low := make([]byte, 20000)
	for i := range low {
		low[i] = byte(rng.Intn(16))
	}
	c["low nibble"] = low
	return c
}

var levels = []int{gzip.HuffmanOnly, gzip.NoCompression, gzip.BestSpeed, gzip.DefaultCompression, gzip.BestCompression}

func mustCompress(t testing.TB, data []byte, level int, format Format) []byte {
	t.Helper()
	res, err := CompressFormat(data, level, InMemory, "", format)
	if err != nil {
		t.Fatal(err)
	}
	return res.Compressed
}

// TestInflateDifferential holds inflateStream to the standard library over
// what the write path produces: every corpus input at every level under
// both framings — alone, doubled into a two-member stream, cut short at
// some two hundred places, and with two hundred single bits flipped.
func TestInflateDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1951))
	for name, plain := range corpus() {
		for _, level := range levels {
			for _, format := range []Format{FormatGzip, FormatZlib} {
				name := fmt.Sprintf("%s/level %d", name, level)
				good := mustCompress(t, plain, level, format)
				if !agree(t, name, good, format) {
					t.Fatalf("%s (%v): a stream the write path made is refused", name, format)
				}
				two := append(append([]byte(nil), good...), mustCompress(t, []byte("second member"), level, format)...)
				if !agree(t, name+" two members", two, format) {
					t.Fatalf("%s (%v): two members back to back are refused", name, format)
				}
				agree(t, name+" trailing", append(good[:len(good):len(good)], 0x1f), format)
				step := max(len(good)/200, 1)
				for cut := 0; cut < len(good); cut += step {
					agree(t, name+" cut", good[:cut], format)
				}
				for cut := max(len(good)-12, 0); cut < len(good); cut++ {
					agree(t, name+" cut in the trailer", good[:cut], format)
				}
				flipped := make([]byte, len(two))
				for i := 0; i < 200; i++ {
					copy(flipped, two)
					bit := rng.Intn(8 * len(two))
					if i < 100 { // half of them early, where the headers and code lengths are
						bit = rng.Intn(8 * min(len(two), 120))
					}
					flipped[bit/8] ^= 1 << (bit % 8)
					agree(t, name+" flipped", flipped, format)
				}
			}
		}
	}
}

// TestInflateMembersEndAtTheirOwnStart pins the rule the stored formats
// depend on: a match reaches back to the first byte of its own member and no
// further, however much was decoded — or handed in — before it.
func TestInflateMembersEndAtTheirOwnStart(t *testing.T) {
	fl := canon(fixedLens())
	var w bitWriter
	w.bits(1|1<<1, 3)
	w.code(fl[257])
	w.code(huffCode{0, 5}) // length 3 at distance 1, first thing in the member
	w.code(fl[256])
	reach := w.bytes()
	for _, format := range []Format{FormatGzip, FormatZlib} {
		first := mustCompress(t, []byte("xyz"), Default, format)
		two := append(append([]byte(nil), first...), frame(reach, []byte("zzz"), format)...)
		if agree(t, "reach into the previous member", two, format) {
			t.Fatalf("%v: a match into the previous member's output was accepted", format)
		}
		if out, err := inflateStream([]byte("xyz"), frame(reach, []byte("zzz"), format), format); err == nil {
			t.Fatalf("%v: a match into the caller's bytes was accepted: %q", format, out)
		}
		out, err := inflateStream([]byte("kept"), first, format)
		if err != nil || string(out) != "keptxyz" {
			t.Fatalf("%v: appending to a prefix gave %q, %v", format, out, err)
		}
	}
}

// TestInflateHeaders covers the member headers: optional gzip fields in
// every combination, their limits, and zlib's header checks.
func TestInflateHeaders(t *testing.T) {
	var w bitWriter
	w.bits(1|1<<1, 3)
	w.code(canon(fixedLens())[256])
	empty := w.bytes()
	trailer := make([]byte, 8) // CRC-32 and length of nothing

	gzHeader := func(flg byte, extra []byte, name, comment string, hcrcDelta uint16) []byte {
		h := []byte{0x1f, 0x8b, 8, flg, 1, 2, 3, 4, 2, 3}
		if flg&0x04 != 0 {
			h = binary.LittleEndian.AppendUint16(h, uint16(len(extra)))
			h = append(h, extra...)
		}
		if flg&0x08 != 0 {
			h = append(append(h, name...), 0)
		}
		if flg&0x10 != 0 {
			h = append(append(h, comment...), 0)
		}
		if flg&0x02 != 0 {
			h = binary.LittleEndian.AppendUint16(h, uint16(crc32.ChecksumIEEE(h))+hcrcDelta)
		}
		return append(append(h, empty...), trailer...)
	}
	for flg := 0; flg < 256; flg++ { // every flag combination, reserved bits too
		data := gzHeader(byte(flg), []byte("LK\x04\x00abcd"), "field.grd", "a comment", 0)
		if !agree(t, fmt.Sprintf("FLG %#02x", flg), data, FormatGzip) {
			t.Errorf("FLG %#02x: a well-formed header is refused", flg)
		}
		for cut := 0; cut < len(data); cut++ {
			agree(t, fmt.Sprintf("FLG %#02x cut", flg), data[:cut], FormatGzip)
		}
		if flg&0x02 != 0 {
			if agree(t, "bad header CRC", gzHeader(byte(flg), nil, "n", "c", 1), FormatGzip) {
				t.Errorf("FLG %#02x: a wrong header CRC is accepted", flg)
			}
		}
	}
	long := func(n int) string { return string(bytes.Repeat([]byte{'n'}, n)) }
	for _, n := range []int{0, 1, 510, 511, 512, 513, 600} { // compress/gzip reads names of up to 511 bytes
		agree(t, fmt.Sprintf("name of %d", n), gzHeader(0x08, nil, long(n), "", 0), FormatGzip)
		agree(t, fmt.Sprintf("comment of %d", n), gzHeader(0x10, nil, "", long(n), 0), FormatGzip)
		agree(t, fmt.Sprintf("name and comment of %d", n), gzHeader(0x18|0x02, nil, long(n), long(n), 0), FormatGzip)
	}
	agree(t, "extra of 65535", gzHeader(0x04, make([]byte, 65535), "", "", 0), FormatGzip)
	for i, b := range []byte{0x1e, 0x8a, 7} { // magic and method
		data := gzHeader(0, nil, "", "", 0)
		data[i] = b
		if agree(t, "bad magic", data, FormatGzip) {
			t.Errorf("header byte %d = %#x is accepted", i, b)
		}
	}

	adler := []byte{0, 0, 0, 1} // of nothing
	for cmf := 0; cmf < 256; cmf++ {
		for _, flg := range []int{0x00, 0x20, 0x9c, 0xbc} {
			flg += (31 - (cmf<<8+flg)%31) % 31
			data := []byte{byte(cmf), byte(flg)}
			if flg&0x20 != 0 {
				data = append(data, 0, 0, 0, 1) // the empty dictionary's Adler-32
			}
			data = append(append(data, empty...), adler...)
			agree(t, fmt.Sprintf("zlib header %02x %02x", cmf, flg), data, FormatZlib)
			for cut := 0; cut < len(data); cut++ {
				agree(t, "zlib header cut", data[:cut], FormatZlib)
			}
			data[1] ^= 1
			agree(t, "zlib header check", data, FormatZlib)
			agree(t, "zlib header check, cut", data[:2], FormatZlib) // refused before the dictionary is missed
		}
	}
	agree(t, "zlib dictionary", append(append([]byte{0x78, 0xbb, 0, 0, 0, 2}, empty...), adler...), FormatZlib)
}

// FuzzInflateDifferential feeds arbitrary bytes, as gzip and as zlib, to
// both decoders: same verdict, same bytes, never a panic, never more held
// than twice what was decoded.
func FuzzInflateDifferential(f *testing.F) {
	for _, c := range rawCases() {
		f.Add(gz(c.raw, c.plain))
		f.Add(zl(c.raw, c.plain))
	}
	for _, plain := range corpus() {
		if len(plain) > 10<<10 {
			continue
		}
		for _, level := range levels {
			f.Add(mustCompress(f, plain, level, FormatGzip))
			f.Add(mustCompress(f, plain, level, FormatZlib))
		}
	}
	res, err := CompressParallel(bytes.Repeat([]byte("members "), 4000), Default, FormatGzip, ParallelOptions{BlockSize: 8 << 10})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(res.Compressed)
	f.Fuzz(func(t *testing.T, in []byte) {
		agree(t, "fuzz", in, FormatGzip)
		agree(t, "fuzz", in, FormatZlib)
	})
}
