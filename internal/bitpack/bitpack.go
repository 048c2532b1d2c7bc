// Package bitpack provides the packed bitmap used by the compressor's
// output format (Sasaki et al., IPDPS 2015, §III-D): one bit per
// high-frequency value recording whether that value was quantized/encoded
// (1) or stored verbatim (0), so decompression knows how to interleave the
// code stream with the passthrough stream.
package bitpack

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// ErrFormat indicates malformed serialized bitmap data.
var ErrFormat = errors.New("bitpack: malformed serialized bitmap")

// Bitmap is a fixed-length sequence of bits. The zero value is an empty
// bitmap; use New or FromWords for a sized one.
type Bitmap struct {
	n     int
	words []uint64
}

// New returns an all-zero bitmap of n bits.
func New(n int) *Bitmap {
	if n < 0 {
		panic(fmt.Sprintf("bitpack: negative size %d", n))
	}
	return &Bitmap{n: n, words: make([]uint64, (n+63)/64)}
}

// FromWords wraps words as a bitmap of n bits, bit i at words[i/64]>>(i%64),
// without copying: the caller hands the slice over. Bits beyond n are cleared.
func FromWords(n int, words []uint64) *Bitmap {
	if n < 0 || len(words) != (n+63)/64 {
		panic(fmt.Sprintf("bitpack: %d words for %d bits", len(words), n))
	}
	m := &Bitmap{n: n, words: words}
	m.trimTail()
	return m
}

// Words returns the packed words, bit i at Words()[i/64]>>(i%64) and the bits
// beyond Len clear. The slice is the bitmap's own: read it, do not write it.
func (m *Bitmap) Words() []uint64 { return m.words }

// Len returns the number of bits.
func (m *Bitmap) Len() int { return m.n }

// Get returns bit i.
func (m *Bitmap) Get(i int) bool {
	if i < 0 || i >= m.n {
		panic(fmt.Sprintf("bitpack: index %d out of range [0,%d)", i, m.n))
	}
	return m.words[i/64]&(1<<uint(i%64)) != 0
}

// Set assigns bit i.
func (m *Bitmap) Set(i int, v bool) {
	if i < 0 || i >= m.n {
		panic(fmt.Sprintf("bitpack: index %d out of range [0,%d)", i, m.n))
	}
	if v {
		m.words[i/64] |= 1 << uint(i%64)
	} else {
		m.words[i/64] &^= 1 << uint(i%64)
	}
}

// Count returns the number of set bits.
func (m *Bitmap) Count() int {
	c := 0
	for _, w := range m.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// AllTrue reports whether every bit is set. An empty bitmap is all-true.
func (m *Bitmap) AllTrue() bool { return m.Count() == m.n }

// Equal reports whether two bitmaps have identical length and contents.
func (m *Bitmap) Equal(o *Bitmap) bool {
	if m.n != o.n {
		return false
	}
	for i, w := range m.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Serialized layout (little-endian):
//
//	uint64 bit count
//	uint8  flag: 0 = packed words follow, 1 = all-true (no payload),
//	             2 = all-false (no payload)
//	uint64 words (only when flag == 0)
//
// The flags implement the design note in DESIGN.md §5: the simple
// quantization method encodes every value, so its all-ones bitmap costs one
// byte instead of n/8 bytes.
const (
	flagPacked   = 0
	flagAllTrue  = 1
	flagAllFalse = 2
)

// AppendTo appends the serialized bitmap to dst and returns the extended
// slice.
func (m *Bitmap) AppendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.n))
	switch count := m.Count(); {
	case count == m.n:
		return append(dst, flagAllTrue)
	case count == 0:
		return append(dst, flagAllFalse)
	}
	dst = append(dst, flagPacked)
	for _, word := range m.words {
		dst = binary.LittleEndian.AppendUint64(dst, word)
	}
	return dst
}

// WriteTo serializes the bitmap. It implements io.WriterTo.
func (m *Bitmap) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(m.AppendTo(make([]byte, 0, m.SerializedSize())))
	return int64(n), err
}

// Read deserializes a bitmap written by WriteTo, with a permissive size
// cap. Callers that know the expected bit count should prefer ReadMax: a
// forged header claiming a huge size otherwise forces a large allocation
// before any payload is read.
func Read(r io.Reader) (*Bitmap, error) {
	return ReadMax(r, 1<<33)
}

// ReadMax deserializes a bitmap, rejecting any claimed size above maxBits
// before allocating.
func ReadMax(r io.Reader, maxBits uint64) (*Bitmap, error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrFormat, err)
	}
	n := binary.LittleEndian.Uint64(hdr[0:])
	if n > maxBits {
		return nil, fmt.Errorf("%w: size %d above limit %d", ErrFormat, n, maxBits)
	}
	m := New(int(n))
	switch hdr[8] {
	case flagAllFalse:
		return m, nil
	case flagAllTrue:
		for i := range m.words {
			m.words[i] = ^uint64(0)
		}
		m.trimTail()
		return m, nil
	case flagPacked:
		buf := make([]byte, 8*len(m.words))
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("%w: payload: %v", ErrFormat, err)
		}
		for i := range m.words {
			m.words[i] = binary.LittleEndian.Uint64(buf[8*i:])
		}
		m.trimTail()
		return m, nil
	default:
		return nil, fmt.Errorf("%w: unknown flag %d", ErrFormat, hdr[8])
	}
}

// trimTail clears bits beyond n in the last word so Count and Equal stay
// consistent regardless of input.
func (m *Bitmap) trimTail() {
	if m.n%64 != 0 && len(m.words) > 0 {
		m.words[len(m.words)-1] &= (1 << uint(m.n%64)) - 1
	}
}

// SerializedSize returns the number of bytes WriteTo will produce.
func (m *Bitmap) SerializedSize() int {
	c := m.Count()
	if c == 0 || c == m.n {
		return 9
	}
	return 9 + 8*len(m.words)
}
