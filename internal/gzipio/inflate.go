// inflate.go is the repository's one DEFLATE decoder: RFC 1951 blocks under
// gzip (RFC 1952) or zlib (RFC 1950) framing, slice to slice. The bit buffer
// refills eight bytes at a time, a symbol is one table lookup (two for a code
// longer than the table's index), matches are copied inside the output, and
// the output grows only as decoded bytes arrive. It accepts exactly what
// compress/gzip and compress/zlib accept — a code of one one-bit symbol, an
// unused empty code — and inflate_test.go holds it to them input by input.
package gzipio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/adler32"
	"hash/crc32"
	"io"
	"math/bits"
	"sync"
)

// What a stream is refused for; one that ends early, io.ErrUnexpectedEOF.
var (
	ErrHeader   = errors.New("invalid header")
	ErrChecksum = errors.New("invalid checksum")
	ErrCorrupt  = errors.New("corrupt deflate data")
)

const (
	litBits     = 10  // index width of the literal/length table
	distBits    = 8   // … of the distance table
	clenBits    = 7   // … of the code-length table, whose codes are no longer
	maxLitSyms  = 286 // literal/length codes a dynamic block may declare
	maxDistSyms = 30
	maxMatch    = 258
	minGrow     = 4 << 10 // least room made when the output is full
	// A table entry packs, low bits first: the code's length (4 bits; 0 for a
	// pattern no code owns), how many extra bits follow (4 bits; for a link,
	// its second-level table's index width), these flags, and from bit 16 the
	// literal, base length or distance (for a link, its table's start in sub).
	flagLit  = 1 << 8
	flagEOB  = 1 << 9
	flagLink = 1 << 10
)

// Each symbol's entry but for the code length — nothing more for the symbols
// RFC 1951 reserves (286, 287; distances 30, 31) — and the fixed code's tables.
var (
	litSyms   [288]uint32
	distSyms  [32]uint32
	clenSyms  [19]uint32
	fixedLit  [1 << litBits]uint32
	fixedDist [1 << distBits]uint32
	clenOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

func init() {
	for s := 0; s < 256; s++ {
		litSyms[s] = flagLit | uint32(s)<<16
	}
	// Ranges count up from base: plain symbols of no extra bits, then one more per.
	ranges := func(syms []uint32, base, plain, per int) {
		for s := range syms {
			xb := max(s-plain+per, 0) / per
			syms[s] = uint32(base)<<16 | uint32(xb)<<4
			base += 1 << xb
		}
	}
	ranges(litSyms[257:285], 3, 8, 4)
	ranges(distSyms[:maxDistSyms], 1, 4, 2)
	litSyms[256], litSyms[285] = flagEOB, maxMatch<<16
	for s := range clenSyms {
		clenSyms[s] = flagLit | uint32(s)<<16
	}
	lens := bytes.Repeat([]byte{8}, 288+32)
	copy(lens[144:256], bytes.Repeat([]byte{9}, 112))
	copy(lens[256:280], bytes.Repeat([]byte{7}, 24))
	copy(lens[288:], bytes.Repeat([]byte{5}, 32))
	var d inflater
	d.build(fixedLit[:], lens[:288], litSyms[:])
	d.build(fixedDist[:], lens[288:], distSyms[:])
}

// inflater is the decoder's state within one member; inflaters recycles it.
type inflater struct {
	src   []byte
	pos   int    // next byte of src not yet counted into bb
	bb    uint64 // bit buffer, first bit lowest
	nb    int    // bits of bb that count
	short bool   // bits were asked for that src did not have
	lit   [1 << litBits]uint32
	dist  [1 << distBits]uint32
	clen  [1 << clenBits]uint32
	sub   []uint32 // second-level tables of the block's two codes
	lens  [maxLitSyms + maxDistSyms]uint8
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// inflateStream appends to dst what data — one or more members of the given
// framing back to back, nothing else — inflates to, each member's checksum
// (under gzip, its length too) verified over exactly the bytes it produced.
// With an error comes what had been decoded by then.
func inflateStream(dst, data []byte, format Format) ([]byte, error) {
	d := inflaters.Get().(*inflater)
	defer func() { d.src = nil; inflaters.Put(d) }()
	for first := true; first || len(data) > 0; first = false {
		hdr, err := headerLen(data, format)
		if err != nil {
			return dst, err
		}
		start, n := len(dst), 0
		if dst, n, err = d.inflate(dst, data[hdr:]); err != nil {
			return dst, err
		}
		data = data[hdr+n:]
		switch out := dst[start:]; {
		case format == FormatGzip && len(data) >= 8:
			if binary.LittleEndian.Uint32(data) != crc32.ChecksumIEEE(out) || binary.LittleEndian.Uint32(data[4:]) != uint32(len(out)) {
				return dst, ErrChecksum
			}
			data = data[8:]
		case format != FormatGzip && len(data) >= 4:
			if binary.BigEndian.Uint32(data) != adler32.Checksum(out) {
				return dst, ErrChecksum
			}
			data = data[4:]
		default:
			return dst, io.ErrUnexpectedEOF
		}
	}
	return dst, nil
}

// headerLen validates the member header b opens with and returns its length.
func headerLen(b []byte, format Format) (int, error) {
	if format != FormatGzip {
		if len(b) < 2 {
			return 0, io.ErrUnexpectedEOF
		}
		if b[0]&0x0f != 8 || b[0]>>4 > 7 || binary.BigEndian.Uint16(b)%31 != 0 {
			return 0, ErrHeader
		}
		// FDICT: compress/zlib, given no dictionary, takes a stream that names
		// the empty one, whose Adler-32 is 1.
		n := 2 + int(b[1]&0x20)>>3
		if len(b) < n {
			return 0, io.ErrUnexpectedEOF
		} else if n == 6 && binary.BigEndian.Uint32(b[2:]) != 1 {
			return 0, ErrHeader
		}
		return n, nil
	}
	if len(b) < 10 {
		return 0, io.ErrUnexpectedEOF
	}
	if b[0] != 0x1f || b[1] != 0x8b || b[2] != 8 {
		return 0, ErrHeader
	}
	flg, n := b[3], 10
	if flg&0x04 != 0 { // FEXTRA
		if len(b) < 12 {
			return 0, io.ErrUnexpectedEOF
		}
		n = 12 + int(binary.LittleEndian.Uint16(b[10:]))
	}
	for _, f := range [2]byte{0x08, 0x10} { // FNAME, FCOMMENT
		if flg&f == 0 {
			continue
		}
		// NUL-terminated, in the 512 bytes compress/gzip reads one into.
		i := bytes.IndexByte(b[min(n, len(b)):min(n+512, len(b))], 0)
		if i < 0 && len(b) < n+512 {
			return 0, io.ErrUnexpectedEOF
		} else if i < 0 {
			return 0, ErrHeader
		}
		n += i + 1
	}
	if n += int(flg & 0x02); len(b) < n { // FHCRC: two bytes
		return 0, io.ErrUnexpectedEOF
	}
	if flg&0x02 != 0 && binary.LittleEndian.Uint16(b[n-2:]) != uint16(crc32.ChecksumIEEE(b[:n-2])) {
		return 0, ErrHeader
	}
	return n, nil
}

// inflate appends to dst what the DEFLATE stream that opens src decodes to and
// returns the bytes of src it took. A match reaches back to len(dst) at most.
func (d *inflater) inflate(dst, src []byte) ([]byte, int, error) {
	d.src, d.pos, d.bb, d.nb, d.short = src, 0, 0, 0, false
	buf, op, base := dst[:cap(dst)], len(dst), len(dst)
	for final := false; !final; {
		hdr := d.bits(3)
		final = hdr&1 != 0
		err := ErrCorrupt // block type 3
		switch {
		case d.short:
			err = io.ErrUnexpectedEOF
		case hdr>>1 == 0:
			buf, op, err = d.stored(buf, op)
		case hdr>>1 == 1:
			buf, op, err = d.huffman(buf, op, base, &fixedLit, &fixedDist)
		case hdr>>1 == 2:
			if err = d.dynamic(); err == nil {
				buf, op, err = d.huffman(buf, op, base, &d.lit, &d.dist)
			}
		}
		if err != nil {
			return buf[:op], 0, err
		}
	}
	return buf[:op], d.pos - d.nb>>3, nil // whole bytes left in bb are the next reader's
}

// refill tops the bit buffer up to 56 bits or more, or to all src has left.
// Bits of bb above nb are zero or already what the next refill writes there.
func refill(src []byte, pos int, bb uint64, nb int) (int, uint64, int) {
	if pos+8 <= len(src) {
		return pos + (63-nb)>>3, bb | binary.LittleEndian.Uint64(src[pos:])<<uint(nb), nb | 56
	}
	for ; nb <= 56 && pos < len(src); pos++ {
		bb |= uint64(src[pos]) << uint(nb)
		nb += 8
	}
	return pos, bb, nb
}

// bits takes the next n <= 16 bits; past the end of src: short, and zero.
func (d *inflater) bits(n int) uint32 {
	if d.nb < n {
		if d.pos, d.bb, d.nb = refill(d.src, d.pos, d.bb, d.nb); d.nb < n {
			d.short = true
			return 0
		}
	}
	v := uint32(d.bb) & (1<<uint(n) - 1)
	d.bb >>= uint(n)
	d.nb -= n
	return v
}

// grow makes room for n more bytes after buf[:op], doubling what is held.
func grow(buf []byte, op, n int) []byte {
	grown := make([]byte, op+max(op, n))
	copy(grown, buf[:op])
	return grown
}

// stored copies one stored block. It starts on a byte boundary, and whole
// bytes the bit buffer had taken go back to src.
func (d *inflater) stored(buf []byte, op int) ([]byte, int, error) {
	pos := d.pos - d.nb>>3
	d.bb, d.nb = 0, 0
	if len(d.src)-pos < 4 {
		return buf, op, io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint16(d.src[pos:]))
	if binary.LittleEndian.Uint16(d.src[pos+2:]) != ^uint16(n) {
		return buf, op, ErrCorrupt
	}
	if pos += 4; len(d.src)-pos < n {
		return buf, op, io.ErrUnexpectedEOF
	}
	if len(buf)-op < n {
		buf = grow(buf, op, n)
	}
	copy(buf[op:], d.src[pos:pos+n])
	d.pos = pos + n
	return buf, op + n, nil
}

// dynamic reads a dynamic block's code lengths and builds its two tables. It
// looks at short before it judges what it read: a cut header is short, not corrupt.
func (d *inflater) dynamic() error {
	nlit, ndist, nclen := int(d.bits(5))+257, int(d.bits(5))+1, int(d.bits(4))+4
	if !d.short && (nlit > maxLitSyms || ndist > maxDistSyms) {
		return ErrCorrupt
	}
	var cl [19]uint8
	for _, s := range clenOrder[:nclen] {
		cl[s] = uint8(d.bits(3))
	}
	if d.short {
		return io.ErrUnexpectedEOF
	}
	if !d.build(d.clen[:], cl[:], clenSyms[:]) {
		return ErrCorrupt
	}
	lens := d.lens[:nlit+ndist] // one run of lengths: a repeat may cross from one code into the other
	for i := 0; i < len(lens); {
		if d.nb < clenBits {
			d.pos, d.bb, d.nb = refill(d.src, d.pos, d.bb, d.nb)
		}
		e := d.clen[d.bb&(1<<clenBits-1)]
		if e == 0 {
			return ErrCorrupt
		}
		d.bits(int(e & 15))
		rep, v := 1, uint8(e>>16)
		switch {
		case d.short: // the code's own bits were not there
		case v == 16 && i == 0:
			return ErrCorrupt
		case v == 16:
			rep, v = 3+int(d.bits(2)), lens[i-1]
		case v == 17:
			rep, v = 3+int(d.bits(3)), 0
		case v == 18:
			rep, v = 11+int(d.bits(7)), 0
		}
		if d.short {
			return io.ErrUnexpectedEOF
		}
		if i+rep > len(lens) {
			return ErrCorrupt
		}
		for ; rep > 0; rep-- {
			lens[i] = v
			i++
		}
	}
	d.sub = d.sub[:0]
	if !d.build(d.lit[:], lens[:nlit], litSyms[:]) || !d.build(d.dist[:], lens[nlit:], distSyms[:]) {
		return ErrCorrupt
	}
	return nil
}

// build fills tab (a power of two long) with the canonical Huffman code that
// gives symbol s lens[s] bits (0: no code) and the entry syms[s]; codes longer
// than tab's index go to second-level tables appended to d.sub. It reports
// whether the lengths make a code compress/flate takes: a complete one, a
// single one-bit code, or none at all, which fails the block that uses it.
func (d *inflater) build(tab []uint32, lens []uint8, syms []uint32) bool {
	var count, next [16]int
	longest := 0
	for _, n := range lens {
		count[n]++
		longest = max(longest, int(n))
	}
	clear(tab)
	code := 0
	for n := 1; n <= longest; n++ {
		code <<= 1
		next[n] = code
		code += count[n]
	}
	if code != 1<<longest && !(code == 1 && longest == 1) {
		return longest == 0
	}
	tabBits := bits.Len(uint(len(tab))) - 1
	subBits := max(longest-tabBits, 0)
	for s, n := range lens {
		if n == 0 {
			continue
		}
		n := int(n)
		rev := int(bits.Reverse16(uint16(next[n])) >> (16 - n)) // a code goes out first bit first
		next[n]++
		e := syms[s] | uint32(n)
		if n <= tabBits {
			for j := rev; j < len(tab); j += 1 << n {
				tab[j] = e
			}
			continue
		}
		// What opens a long code opens no short one: still zero at the first.
		p := rev & (len(tab) - 1)
		if tab[p] == 0 {
			tab[p] = flagLink | uint32(len(d.sub))<<16 | uint32(subBits)<<4
			d.sub = append(d.sub, make([]uint32, 1<<subBits)...)
		}
		sub := d.sub[tab[p]>>16:]
		for j := rev >> tabBits; j < 1<<subBits; j += 1 << (n - tabBits) {
			sub[j] = e
		}
	}
	return true
}

// huffman decodes one compressed block's symbols, through its end-of-block,
// with the given tables. Past the end of src the bit buffer holds zeros and nb
// goes negative: nothing a code decoded to is used before nb is looked at.
func (d *inflater) huffman(buf []byte, op, base int, lt *[1 << litBits]uint32, dt *[1 << distBits]uint32) ([]byte, int, error) {
	src, pos, bb, nb, sub := d.src, d.pos, d.bb, d.nb, d.sub
	for {
		if len(buf)-op < maxMatch {
			buf = grow(buf, op, minGrow)
		}
		if nb < 48 { // the longest pair (15+5 and 15+13 bits), or three literals
			pos, bb, nb = refill(src, pos, bb, nb)
		}
		e := lt[bb&(1<<litBits-1)]
		if e&flagLink != 0 {
			e = sub[e>>16+uint32(bb>>litBits)&(1<<(e>>4&15)-1)]
		}
		bb >>= e & 15
		if nb -= int(e & 15); nb < 0 {
			return buf, op, io.ErrUnexpectedEOF
		}
		if e&flagLit != 0 {
			buf[op] = byte(e >> 16)
			op++
			for k := 0; k < 2; k++ { // two more while the refill lasts
				e = lt[bb&(1<<litBits-1)]
				if e&flagLit == 0 || int(e&15) > nb {
					break
				}
				bb >>= e & 15
				nb -= int(e & 15)
				buf[op] = byte(e >> 16)
				op++
			}
			continue
		}
		if e&flagEOB != 0 {
			d.pos, d.bb, d.nb = pos, bb, nb
			return buf, op, nil
		}
		if e < 1<<16 { // no code's pattern, or a reserved symbol's
			return buf, op, ErrCorrupt
		}
		xb := e >> 4 & 15
		length := int(e>>16) + int(uint32(bb)&(1<<xb-1))
		bb >>= xb
		nb -= int(xb)
		e = dt[bb&(1<<distBits-1)]
		if e&flagLink != 0 {
			e = sub[e>>16+uint32(bb>>distBits)&(1<<(e>>4&15)-1)]
		}
		xb = e >> 4 & 15
		bb >>= e & 15
		dist := int(e>>16) + int(uint32(bb)&(1<<xb-1))
		bb >>= xb
		if nb -= int(e&15 + xb); nb < 0 {
			return buf, op, io.ErrUnexpectedEOF
		}
		if e < 1<<16 || dist > op-base {
			return buf, op, ErrCorrupt
		}
		// A short match from eight bytes back or more is one move of eight bytes:
		// there is room for maxMatch, and what lands past its end is overwritten.
		if length <= 8 && dist >= 8 {
			binary.LittleEndian.PutUint64(buf[op:], binary.LittleEndian.Uint64(buf[op-dist:]))
			op += length
			continue
		}
		// A pass copies from the match's start up to the write position: all of
		// the match unless it overlaps itself, and then twice as much next time.
		for from := op - dist; length > 0; {
			n := copy(buf[op:op+length], buf[from:op])
			op += n
			length -= n
		}
	}
}
