// lz4.go implements the cheap coder of the pluggable entropy stage: a
// pure-Go LZ4-class literal/match block codec. The wavelet+quantization
// stages leave a byte stream (the formatted container) whose redundancy
// is mostly short repeats — runs of identical exponent bytes in the low
// band, repeated codes in the quantized high band — exactly the pattern
// a hash-chain-free greedy matcher exploits at memory speed. The format
// follows the LZ4 block layout (token byte with 4-bit literal/match
// nibbles, 255-extension bytes, 16-bit match offsets, 4-byte minimum
// match) prefixed with the uncompressed length as a uvarint, but is this
// repository's own framing: the entropy envelope (see entropy.go)
// identifies it, not LZ4 frame magic.
//
// The decoder applies the same defensive posture as the PR 2 readers:
// every declared length is validated against the bytes that remain, the
// uncompressed size is capped at the format's true expansion limit
// relative to the input size, and corrupt input returns ErrCorrupt —
// never a panic or an unbounded allocation.
package entropy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// ErrCorrupt indicates malformed LZ4-class compressed data.
var ErrCorrupt = errors.New("entropy: corrupt lz4 block")

const (
	// lz4MinMatch is the shortest encodable match (as in LZ4).
	lz4MinMatch = 4
	// lz4HashLog sizes the match-finder table at 2^16 entries (256 KB),
	// pooled across calls.
	lz4HashLog = 16
	// lz4MFLimit: matches are not searched within the last 12 bytes; the
	// tail is always emitted as literals (simplifies both loops, as in
	// the reference implementation).
	lz4MFLimit = 12
	// lz4MaxOffset is the match window (16-bit offsets).
	lz4MaxOffset = 1 << 16
	// lz4MaxExpansion bounds the output-per-input-byte ratio of a valid
	// stream: one 255-extension byte adds at most 255 output bytes, so a
	// forged length beyond 256× the input cannot be genuine. The slack
	// constant covers the fixed header of tiny inputs.
	lz4MaxExpansion = 256
)

type lz4Table [1 << lz4HashLog]int32

// lz4Tables pools the 256 KB match-finder tables so the hot compression
// path does not allocate one per call.
var lz4Tables = sync.Pool{New: func() any { return new(lz4Table) }}

// lz4Hash maps 4 bytes to a table slot (Knuth multiplicative hash).
func lz4Hash(u uint32) uint32 { return (u * 2654435761) >> (32 - lz4HashLog) }

// lz4CompressBound is the worst-case compressed size for n input bytes:
// incompressible data costs one extension byte per 255 literals plus the
// token and the uvarint length header.
func lz4CompressBound(n int) int { return n + n/255 + 24 }

// lz4Compress encodes src and appends it to dst, grown once to hold the
// worst case. The encoding always begins with the uvarint uncompressed
// length; an empty input encodes to just that header.
func lz4Compress(dst, src []byte) []byte {
	n := len(src)
	out := slices.Grow(dst, lz4CompressBound(n))
	out = binary.AppendUvarint(out, uint64(n))
	if n == 0 {
		return out
	}
	if n < lz4MFLimit+lz4MinMatch {
		return lz4EmitLiteralTail(out, src)
	}

	table := lz4Tables.Get().(*lz4Table)
	defer lz4Tables.Put(table)
	clear(table[:])

	// Positions are stored +1 so the zeroed table reads as "empty".
	limit := n - lz4MFLimit
	anchor, si := 0, 0
	for si < limit {
		// Greedy match search with acceleration: every miss widens the
		// probe stride, so incompressible regions fall through at near
		// memcpy speed.
		tries := 0
		ref := -1
		for {
			h := lz4Hash(binary.LittleEndian.Uint32(src[si:]))
			cand := int(table[h]) - 1
			table[h] = int32(si + 1)
			if cand >= 0 && si-cand < lz4MaxOffset &&
				binary.LittleEndian.Uint32(src[cand:]) == binary.LittleEndian.Uint32(src[si:]) {
				ref = cand
				break
			}
			tries++
			si += 1 + tries>>6
			if si >= limit {
				return lz4EmitLiteralTail(out, src[anchor:])
			}
		}

		// Extend the match backward over pending literals.
		for si > anchor && ref > 0 && src[si-1] == src[ref-1] {
			si--
			ref--
		}
		// Extend forward, 8 bytes at a time.
		ml := lz4MinMatch
		for si+ml+8 <= n {
			x := binary.LittleEndian.Uint64(src[si+ml:]) ^ binary.LittleEndian.Uint64(src[ref+ml:])
			if x != 0 {
				ml += bits.TrailingZeros64(x) >> 3
				goto emit
			}
			ml += 8
		}
		for si+ml < n && src[si+ml] == src[ref+ml] {
			ml++
		}
	emit:
		out = lz4EmitSequence(out, src[anchor:si], si-ref, ml)
		si += ml
		anchor = si
		// Seed the table at si-2 so overlapping repeats are found quickly
		// (the reference implementation's catch-up insert).
		if si < limit && si >= 2 {
			table[lz4Hash(binary.LittleEndian.Uint32(src[si-2:]))] = int32(si - 2 + 1)
		}
	}
	if anchor < n {
		out = lz4EmitLiteralTail(out, src[anchor:])
	}
	return out
}

// lz4EmitSequence appends one token: literals followed by a match of
// length ml at the given offset.
func lz4EmitSequence(out []byte, lits []byte, offset, ml int) []byte {
	litLen := len(lits)
	mlCode := ml - lz4MinMatch
	token := byte(0)
	if litLen >= 15 {
		token = 15 << 4
	} else {
		token = byte(litLen) << 4
	}
	if mlCode >= 15 {
		token |= 15
	} else {
		token |= byte(mlCode)
	}
	out = append(out, token)
	out = lz4AppendExt(out, litLen)
	out = append(out, lits...)
	out = append(out, byte(offset), byte(offset>>8))
	out = lz4AppendExt(out, mlCode)
	return out
}

// lz4EmitLiteralTail appends a final literals-only token (match nibble
// zero, no offset follows — the decoder stops when the declared length
// is reached).
func lz4EmitLiteralTail(out []byte, lits []byte) []byte {
	litLen := len(lits)
	if litLen == 0 {
		return out
	}
	token := byte(0)
	if litLen >= 15 {
		token = 15 << 4
	} else {
		token = byte(litLen) << 4
	}
	out = append(out, token)
	out = lz4AppendExt(out, litLen)
	return append(out, lits...)
}

// lz4AppendExt appends the 255-run extension bytes for a length whose
// nibble saturated at 15.
func lz4AppendExt(out []byte, v int) []byte {
	if v < 15 {
		return out
	}
	v -= 15
	for v >= 255 {
		out = append(out, 255)
		v -= 255
	}
	return append(out, byte(v))
}

// lz4Decompress decodes a stream produced by lz4Compress over dst (from its
// start), growing it to the declared length where it is smaller. Malformed
// input — truncated streams, forged lengths, out-of-window offsets —
// returns ErrCorrupt; the output allocation is bounded by the declared
// length, which itself is capped relative to the input size.
func lz4Decompress(dst, data []byte) ([]byte, error) {
	un, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("%w: bad length header", ErrCorrupt)
	}
	data = data[k:]
	if un > uint64(len(data))*lz4MaxExpansion+16 {
		return nil, fmt.Errorf("%w: declared %d bytes for %d input bytes", ErrCorrupt, un, len(data))
	}
	n := int(un)
	if n == 0 {
		if len(data) != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data))
		}
		return []byte{}, nil
	}
	out := slices.Grow(dst[:0], n)
	pos := 0
	readExt := func(base int) (int, error) {
		if base < 15 {
			return base, nil
		}
		v := base
		for {
			if pos >= len(data) {
				return 0, fmt.Errorf("%w: truncated length extension", ErrCorrupt)
			}
			b := data[pos]
			pos++
			v += int(b)
			// The accumulated length can never validly exceed the
			// declared output size; bail before it overflows.
			if v > n+255 {
				return 0, fmt.Errorf("%w: runaway length", ErrCorrupt)
			}
			if b != 255 {
				return v, nil
			}
		}
	}
	for {
		if pos >= len(data) {
			return nil, fmt.Errorf("%w: truncated at output byte %d", ErrCorrupt, len(out))
		}
		token := data[pos]
		pos++
		litLen, err := readExt(int(token >> 4))
		if err != nil {
			return nil, err
		}
		if pos+litLen > len(data) {
			return nil, fmt.Errorf("%w: %d literal bytes declared, %d remain", ErrCorrupt, litLen, len(data)-pos)
		}
		if len(out)+litLen > n {
			return nil, fmt.Errorf("%w: literals overflow declared size", ErrCorrupt)
		}
		out = append(out, data[pos:pos+litLen]...)
		pos += litLen
		if len(out) == n {
			if pos != len(data) {
				return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-pos)
			}
			return out, nil
		}
		if pos+2 > len(data) {
			return nil, fmt.Errorf("%w: truncated match offset", ErrCorrupt)
		}
		offset := int(data[pos]) | int(data[pos+1])<<8
		pos += 2
		if offset == 0 || offset > len(out) {
			return nil, fmt.Errorf("%w: offset %d at output byte %d", ErrCorrupt, offset, len(out))
		}
		mlCode, err := readExt(int(token & 15))
		if err != nil {
			return nil, err
		}
		ml := mlCode + lz4MinMatch
		if len(out)+ml > n {
			return nil, fmt.Errorf("%w: match overflows declared size", ErrCorrupt)
		}
		start := len(out) - offset
		if offset >= ml {
			out = append(out, out[start:start+ml]...)
		} else {
			// Overlapping match: the copy source grows as the copy runs.
			for i := 0; i < ml; i++ {
				out = append(out, out[start+i])
			}
		}
		// A stream may legitimately end on a match (the encoder only
		// emits a literal tail when bytes remain past the last match).
		if len(out) == n {
			if pos != len(data) {
				return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-pos)
			}
			return out, nil
		}
	}
}
