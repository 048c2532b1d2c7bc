// deflate.go is the repository's one DEFLATE encoder, the mirror of
// inflate.go: RFC 1951 blocks appended slice to slice. A block is at most
// maxTokens literals and matches and goes out the shortest of three ways — its
// matches under a dynamic Huffman code, its bytes alone under one, or stored.
// Matches come from a hash of three bytes, its chains walked as deep as the
// level asks; which bytes are probed at all is decided from the bytes (see
// tokenize). The output depends on (src, level) only: never on what the
// recycled state encoded before.
package gzipio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sync"
)

const (
	hashBits  = 15
	windowLen = 32768
	maxTokens = 16384    // literals and matches of one block
	farThree  = 4096     // from farther, a three-byte match codes longer than its literals
	phaseWin  = 2048     // bytes probed as their first sampleLen say
	sampleLen = 256      // … which are all probed
	maxPhases = 3        // matches begin at no more positions modulo 8: only those are probed
	insertMax = 32       // bytes of a match that are hashed, where all bytes are probed
	sinkChunk = 32 << 10 // bytes held before they go to a sink
	hdrRoom   = 512      // more than a dynamic block's header and end-of-block take
)

// chainDepth[level+2] is the level's effort, the candidates tried per probe:
// none at -2, which codes literals only; -1 is 6; 0, here -1, stores.
var chainDepth = [12]int{0, 1, -1, 1, 1, 1, 1, 1, 1, 4, 16, 64}

// symbol numbers v among codes of which the first 2<<log stand for one value
// each and every 1<<log after them for twice as many as the ones before: a
// match length less 3 (log 2; the longest has a code to itself) or a distance
// less 1 (log 1). xb is how many low bits of v go out behind the code.
func symbol(v uint32, log int) (sym, xb uint32) {
	if log == 2 && v == maxMatch-3 {
		return 28, 0
	}
	if n := bits.Len32(v) - 1 - log; n > 0 {
		xb = uint32(n)
	}
	return xb<<log + v>>xb, xb
}

type match struct {
	pos    uint32 // from the block's first byte
	length uint16
	dist   uint16 // less one
}

// plan is one way to code a block: a literal/length, a distance and a
// code-length code, each entry the code's bits, first lowest, with their number
// from bit 16; the header that declares them; and header and body in bits.
type plan struct {
	lit              [maxLitSyms]uint32
	dist             [maxDistSyms]uint32
	clen             [19]uint32
	rle              []uint16 // code-length symbols, a repeat's extra bits from bit 5
	nlit, ndist, ncl int
	bits             int
}

// deflater is the encoder's state within one stream; deflaters recycles it.
type deflater struct {
	head    [1 << hashBits]uint32 // 1 + where the three bytes hashing here last began; 0: nowhere
	prev    [windowLen]uint32     // what head held before position&(windowLen-1) took it
	matches []match
	plans   [2]plan
	out     []byte // its whole capacity, op bytes of it written
	op      int
	bb      uint64 // bits not yet in out, first bit lowest
	nb      uint
	// What tokenize carries from block to block: where the window ends and
	// where probing is next decided, its sample's end and then the window's.
	winEnd, judge, gain int
	mask, hit           uint8      // positions modulo 8 probed; those a match of the sample began at
	litCost             [256]uint8 // a literal's bits in the block before
}

var deflaters = sync.Pool{New: func() any { return new(deflater) }}

// deflateRaw appends to dst the DEFLATE blocks of src at the given level: the
// last one final, or else a sync flush after it, which leaves the stream open
// on a byte boundary. Given a sink, all that is held — dst too — is written to
// it whenever it comes to sinkChunk bytes, and what returns is the tail.
func deflateRaw(dst, src []byte, level int, final bool, sink io.Writer) ([]byte, error) {
	if level < -2 || level > 9 {
		return dst, fmt.Errorf("gzipio: invalid compression level %d: want value in range [-2, 9]", level)
	}
	depth := chainDepth[level+2]
	e := deflaters.Get().(*deflater)
	defer func() { e.out = nil; deflaters.Put(e) }()
	clear(e.head[:])
	e.out, e.op, e.bb, e.nb, e.winEnd = dst[:cap(dst)], len(dst), 0, 0, 0
	for c := range e.litCost {
		e.litCost[c] = 8
	}
	e.ensure(hdrRoom)
	if len(src) == 0 && final {
		e.bits(0b011, 10) // a final block of the fixed code: end-of-block and nothing else
	}
	for a := 0; a < len(src); {
		b := min(a+maxTokens, len(src))
		if e.matches = e.matches[:0]; depth > 0 {
			b = e.tokenize(src, a, depth)
		}
		e.block(src, a, b, final && b == len(src), depth < 0)
		a = b
		if sink != nil && e.op >= sinkChunk {
			if _, err := sink.Write(e.out[:e.op]); err != nil {
				return e.out[:0], err
			}
			e.op = 0
		}
	}
	if !final {
		e.bits(0, 3)
		e.align()
		e.bits(0xffff0000, 32) // an empty stored block
	}
	e.align()
	return e.out[:e.op], nil
}

// ensure makes room for n more bytes and the eight a spill writes at once.
func (e *deflater) ensure(n int) {
	if n += 8; len(e.out)-e.op < n {
		e.out = append(e.out[:e.op], make([]byte, max(n, e.op))...)
		e.out = e.out[:cap(e.out)]
	}
}

// spill moves the whole bytes of the bit buffer out; fewer than 8 bits stay.
func spill(out []byte, op int, bb uint64, nb uint) (int, uint64, uint) {
	binary.LittleEndian.PutUint64(out[op:], bb)
	return op + int(nb>>3), bb >> (nb &^ 7), nb & 7
}

// bits writes the low n <= 32 bits of v.
func (e *deflater) bits(v uint32, n uint) {
	e.op, e.bb, e.nb = spill(e.out, e.op, e.bb|uint64(v)<<e.nb, e.nb+n)
}

func (e *deflater) align() { e.bits(0, -e.nb&7) }

// tokenize finds the matches of the block that begins at src[a] and returns
// where it ends: after maxTokens literals and matches, or with src. What is
// probed is decided anew every phaseWin bytes. The first sampleLen all are.
// If the matches found there begin at no more than maxPhases positions modulo
// 8 — so reads an array of doubles, whose sign, exponent and leading mantissa
// bytes repeat and whose trailing ones do not — the rest is probed at those
// alone, or with none not at all. If they begin all over and, by the block
// before's literal lengths, code no shorter than their bytes, the rest is not
// probed either: so read one-byte quantization codes, which match often and
// briefly. A match of three bytes from beyond farThree is left as literals.
func (e *deflater) tokenize(src []byte, a, depth int) int {
	i, saved := a, 0
	for {
		lim := min(a+maxTokens+saved, len(src))
		if i >= lim {
			return i
		}
		if i >= e.winEnd { // a new window, its sample probed throughout
			e.judge = i&^(phaseWin-1) + sampleLen
			e.winEnd = e.judge - sampleLen + phaseWin
			e.mask, e.hit, e.gain = 0xff, 0, 0
		} else if i >= e.judge {
			if e.judge = e.winEnd; bits.OnesCount8(e.hit) <= maxPhases {
				e.mask = e.hit
			} else if e.gain <= 0 {
				e.mask = 0
			}
		}
		seg := min(e.judge, lim)
		probeEnd := min(seg, len(src)-3) // a probe reads four bytes
		for i < seg {
			if m := bits.RotateLeft8(e.mask, -(i & 7)); m&1 == 0 || i >= probeEnd {
				i = min(seg, i+max(bits.TrailingZeros8(m), 1))
				continue
			}
			cur := binary.LittleEndian.Uint32(src[i:])
			cand := e.insert(cur, i)
			length, dist := 0, 0
			for d := depth; cand != 0; d-- {
				back := int(uint32(i+1) - cand)
				if uint(back-1) >= windowLen || back > i { // none, or one from 4 GiB back
					break
				}
				if x := binary.LittleEndian.Uint32(src[i-back:]) ^ cur; x<<8 == 0 {
					n := 3
					if x == 0 {
						n = matchLen(src, i-back, i)
					}
					if n > length {
						length, dist = n, back
					}
				}
				if d == 1 {
					break
				}
				if cand = e.prev[(cand-1)&(windowLen-1)]; int(uint32(i+1)-cand) <= back {
					break
				}
			}
			if length < 3 || length == 3 && dist > farThree {
				i++
				continue
			}
			if e.judge < e.winEnd { // in the sample
				e.hit |= 1 << (i & 7)
				e.gain -= 12 + bits.Len(uint(dist)) // about a length and a distance code
				for _, c := range src[i : i+length] {
					e.gain += int(e.litCost[c])
				}
			}
			e.matches = append(e.matches, match{uint32(i - a), uint16(length), uint16(dist - 1)})
			saved += length - 1
			if e.mask == 0xff {
				for j := i + 1; j < min(i+length, i+insertMax, len(src)-3); j++ {
					e.insert(binary.LittleEndian.Uint32(src[j:]), j)
				}
			}
			i += length
			break // lim has moved
		}
	}
}

// insert enters the three bytes at position i, the low ones of cur, into the
// hash table and returns the entry they replace.
func (e *deflater) insert(cur uint32, i int) uint32 {
	h := cur << 8 * 0x9e3779b1 >> (32 - hashBits)
	was := e.head[h]
	e.head[h], e.prev[i&(windowLen-1)] = uint32(i+1), was
	return was
}

// matchLen counts how far src[p:] and src[q:] agree, p < q, up to maxMatch.
func matchLen(src []byte, p, q int) int {
	n := min(maxMatch, len(src)-q)
	k := 0
	for ; k+8 <= n; k += 8 {
		if x := binary.LittleEndian.Uint64(src[p+k:]) ^ binary.LittleEndian.Uint64(src[q+k:]); x != 0 {
			return k + bits.TrailingZeros64(x)>>3
		}
	}
	for ; k < n && src[p+k] == src[q+k]; k++ {
	}
	return k
}

func histogram(h *[maxLitSyms]uint32, p []byte) {
	for _, c := range p {
		h[c]++
	}
}

// block writes src[a:b], whose matches tokenize left in e.matches, as one
// block — dynamic with the matches, dynamic of literals alone, or stored in
// pieces, whichever is shortest.
func (e *deflater) block(src []byte, a, b int, final, stored bool) {
	n := b - a
	pieces := (n + 65534) / 65535
	e.ensure(n + 5*pieces + hdrRoom)
	last := uint32(0)
	if final {
		last = 1
	}
	best := (*plan)(nil)
	if !stored {
		// lit counts what the matches leave; with rest, what they cover, every byte.
		lit, rest := [maxLitSyms]uint32{256: 1}, [maxLitSyms]uint32{256: 1}
		var dist [maxDistSyms]uint32
		at := a
		for _, m := range e.matches {
			histogram(&lit, src[at:a+int(m.pos)])
			at = a + int(m.pos) + int(m.length)
			histogram(&rest, src[at-int(m.length):at])
			ls, _ := symbol(uint32(m.length)-3, 2)
			ds, _ := symbol(uint32(m.dist), 1)
			lit[257+ls]++
			dist[ds]++
		}
		histogram(&lit, src[at:b])
		best = &e.plans[0]
		if best.build(&lit, &dist); len(e.matches) > 0 {
			for c := range rest[:256] {
				rest[c] += lit[c]
			}
			if e.plans[1].build(&rest, new([maxDistSyms]uint32)); e.plans[1].bits <= best.bits {
				best, e.matches = &e.plans[1], e.matches[:0]
			}
		}
	}
	if best == nil || best.bits >= 8*n+40*pieces {
		for ; pieces > 0; pieces-- {
			k := min(b-a, 65535)
			e.bits(last/uint32(pieces), 3) // final in the last piece alone
			e.align()
			e.bits(uint32(k)|uint32(^k)<<16, 32)
			e.op += copy(e.out[e.op:], src[a:a+k])
			a += k
		}
		return
	}
	e.bits(last|2<<1|uint32(best.nlit-257)<<3|uint32(best.ndist-1)<<8|uint32(best.ncl-4)<<13, 17)
	for _, s := range clenOrder[:best.ncl] {
		e.bits(best.clen[s]>>16, 3)
	}
	for _, r := range best.rle {
		c := best.clen[r&31]
		e.bits(c&0xffff|uint32(r>>5)<<(c>>16), uint(c>>16)+uint(rleExtra[r&31]))
	}
	for c := range e.litCost {
		if e.litCost[c] = uint8(best.lit[c] >> 16); e.litCost[c] == 0 {
			e.litCost[c] = 15
		}
	}
	// Behind the 7 bits a spill leaves go three literals of 15 bits; or two,
	// a length of 15 and 5 more and, spilt again, a distance of 15 and 13.
	out, op, bb, nb, code := e.out, e.op, e.bb, e.nb, &best.lit
	at := a
	for _, m := range append(e.matches, match{pos: uint32(n)}) { // the block's end, as a match of no length
		lits := src[at : a+int(m.pos)]
		at = a + int(m.pos) + int(m.length)
		for ; len(lits) >= 3; lits = lits[3:] {
			x, y, z := code[lits[0]], code[lits[1]], code[lits[2]]
			bb |= uint64(x&0xffff) << nb
			nb += uint(x >> 16)
			bb |= uint64(y&0xffff) << nb
			nb += uint(y >> 16)
			bb |= uint64(z&0xffff) << nb
			nb += uint(z >> 16)
			op, bb, nb = spill(out, op, bb, nb)
		}
		for _, c := range lits {
			bb |= uint64(code[c]&0xffff) << nb
			nb += uint(code[c] >> 16)
		}
		ls, xb := uint32(256), uint32(0)
		if m.length > 0 {
			ls, xb = symbol(uint32(m.length)-3, 2)
			ls += 257
		}
		bb |= uint64(code[ls]&0xffff|(uint32(m.length)-3)&(1<<xb-1)<<(code[ls]>>16)) << nb
		op, bb, nb = spill(out, op, bb, nb+uint(code[ls]>>16+xb))
		if m.length > 0 {
			ds, xb := symbol(uint32(m.dist), 1)
			c := best.dist[ds]
			bb |= uint64(c&0xffff|uint32(m.dist)&(1<<xb-1)<<(c>>16)) << nb
			op, bb, nb = spill(out, op, bb, nb+uint(c>>16+xb))
		}
	}
	e.op, e.bb, e.nb = op, bb, nb
}

// rleExtra is how many bits follow each code-length symbol.
var rleExtra = [19]uint8{16: 2, 17: 3, 18: 7}

// build makes the plan for a block of the given symbol counts.
func (p *plan) build(lit *[maxLitSyms]uint32, dist *[maxDistSyms]uint32) {
	var lens [maxLitSyms + maxDistSyms]uint8
	huffLens(lens[:maxLitSyms], lit[:], 15)
	for p.nlit = maxLitSyms; p.nlit > 257 && lens[p.nlit-1] == 0; p.nlit-- {
	}
	dl := lens[p.nlit : p.nlit+maxDistSyms]
	huffLens(dl, dist[:], 15)
	for p.ndist = maxDistSyms; p.ndist > 1 && dl[p.ndist-1] == 0; p.ndist-- {
	}
	if p.ndist == 1 && dl[0] == 0 {
		dl[0] = 1 // not every decoder takes a block whose distance code is empty
	}
	p.bits = 17
	for s, n := range lens[:p.nlit] {
		p.bits += int(lit[s]) * int(uint32(n)+litSyms[s]>>4&15)
	}
	for s, n := range dl[:p.ndist] {
		p.bits += int(dist[s]) * int(uint32(n)+distSyms[s]>>4&15)
	}
	codes(p.lit[:p.nlit], lens[:p.nlit])
	codes(p.dist[:p.ndist], dl[:p.ndist])

	// The two codes' lengths as one run, the repeats of RFC 1951 3.2.7 taken.
	var freq [19]uint32
	p.rle = p.rle[:0]
	emit := func(sym, extra int) {
		p.rle = append(p.rle, uint16(sym|extra<<5))
		freq[sym]++
		p.bits += int(rleExtra[sym])
	}
	all := lens[:p.nlit+p.ndist]
	for i := 0; i < len(all); {
		v, run := int(all[i]), 1
		for i+run < len(all) && int(all[i+run]) == v {
			run++
		}
		i += run
		if v == 0 {
			for ; run >= 11; run -= min(run, 138) {
				emit(18, min(run, 138)-11)
			}
			if run >= 3 {
				emit(17, run-3)
				run = 0
			}
		} else {
			emit(v, 0)
			for run--; run >= 3; run -= min(run, 6) {
				emit(16, min(run, 6)-3)
			}
		}
		for ; run > 0; run-- {
			emit(v, 0)
		}
	}
	var cl [19]uint8
	huffLens(cl[:], freq[:], 7)
	codes(p.clen[:], cl[:])
	for p.ncl = 19; p.ncl > 4 && cl[clenOrder[p.ncl-1]] == 0; p.ncl-- {
	}
	p.bits += 3 * p.ncl
	for s, n := range cl {
		p.bits += int(freq[s]) * int(n)
	}
}

// huffLens sets lens[s] to the length symbol s has in a Huffman code for the
// given counts that is no longer than limit: zero for a count of zero, one
// for a symbol alone.
func huffLens(lens []uint8, freq []uint32, limit int) {
	var keys [maxLitSyms]uint64 // count<<16 | symbol
	n := 0
	for s, f := range freq {
		if lens[s] = 0; f > 0 {
			keys[n] = uint64(f)<<16 | uint64(s)
			n++
		}
	}
	if n < 2 {
		if n == 1 {
			lens[keys[0]&0xffff] = 1
		}
		return
	}
	leaves := keys[:n]
	slices.Sort(leaves)
	// Moffat and Katajainen's construction in place: a[i] is leaf i's weight
	// until the leaf is taken, then of node i, made of the two lightest left,
	// the weight until it is taken in turn, then the parent; at last the depth.
	var a [maxLitSyms]uint64
	for i, l := range leaves {
		a[i] = l >> 16
	}
	root, leaf := 0, 0
	for next := 0; next < n-1; next++ {
		sum := uint64(0)
		for j := 0; j < 2; j++ {
			if leaf >= n || root < next && a[root] < a[leaf] {
				sum += a[root]
				a[root] = uint64(next)
				root++
			} else {
				sum += a[leaf]
				leaf++
			}
		}
		a[next] = sum
	}
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	// Of the avbl places at each depth, nodes take some; leaves, cut at limit, the rest.
	var count [16]int
	total := 0
	for avbl, depth, node := 1, 0, n-2; avbl > 0; depth++ {
		used := 0
		for ; node >= 0 && int(a[node]) == depth; node-- {
			used++
		}
		count[min(depth, limit)] += avbl - used
		total += (avbl - used) << (limit - min(depth, limit))
		avbl = 2 * used
	}
	// Cutting overfills the code space by total-1<<limit places of the longest
	// length. Each step gives one back: a leaf from limit goes to sit beside
	// the deepest leaf above, which moves a level down.
	for ; total > 1<<limit; total-- {
		d := limit - 1
		for count[d] == 0 {
			d--
		}
		count[d]--
		count[d+1] += 2
		count[limit]--
	}
	k := 0
	for d := limit; d > 0; d-- {
		for c := count[d]; c > 0; c-- {
			lens[leaves[k]&0xffff] = uint8(d) // the rarest get the longest
			k++
		}
	}
}

// codes fills code[s] with the canonical code of length lens[s], first bit
// lowest, and the length from bit 16.
func codes(code []uint32, lens []uint8) {
	var next [17]uint32
	for _, n := range lens {
		next[n+1]++
	}
	next[1] = 0
	for n := 2; n < len(next); n++ {
		next[n] = (next[n] + next[n-1]) << 1
	}
	for s, n := range lens {
		if code[s] = 0; n > 0 {
			code[s] = uint32(bits.Reverse16(uint16(next[n]))>>(16-n)) | uint32(n)<<16
			next[n]++
		}
	}
}
