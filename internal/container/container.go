// Package container implements stage 4 of the compressor of Sasaki et al.
// (IPDPS 2015): the on-disk format of one lossy-compressed array (§III-D,
// Fig. 5). The formatted stream holds, in order:
//
//	header      — magic, version, pipeline parameters, array shape
//	low band    — the final low-frequency coefficients, raw doubles
//	averages    — the quantizer's representative-value table
//	codes       — one byte per quantized high-frequency value
//	bitmap      — which high-frequency values are codes vs. passthrough
//	passthrough — verbatim high-frequency doubles
//	trailer     — CRC-32 (IEEE) of everything above
//
// The paper then pipes this formatted output through gzip; that stage lives
// in package gzipio and is orchestrated by package core, so the container
// itself stays seekable and checksummable.
//
// Format version 2, the one written, stores each float section (low band,
// averages, passthrough) after its count as eight byte lanes: byte 0 (the
// least significant) of every value of the section, then byte 1 of every
// value, … so that a dictionary coder meets neighbouring signs and exponents
// as runs and the mantissa noise apart from them. Version 1 stored the same
// sections as little-endian 8-byte words and is still read.
package container

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"lossyckpt/internal/bitpack"
	"lossyckpt/internal/encode"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/quant"
	"lossyckpt/internal/wavelet"
)

// Errors returned by this package.
var (
	// ErrFormat indicates structurally malformed container data.
	ErrFormat = errors.New("container: malformed data")
	// ErrChecksum indicates the payload CRC does not match the trailer.
	ErrChecksum = errors.New("container: checksum mismatch")
)

const (
	magic     = 0x504B434C // "LCKP"
	version   = 2          // float sections as byte lanes
	versionV1 = 1          // float sections as 8-byte words; read, never written
)

// PackedWidth is the byte width of one packed value in the serialized
// stream, and so the number of byte lanes of a float section. It is also the
// lane stride of the entropy stage's whole-stream byte-shuffle, which
// predates the lanes (raw arrays and streams already written use it).
func PackedWidth() int { return 8 }

// Params records the pipeline configuration baked into an archive; the
// decompressor needs them to invert the transform.
type Params struct {
	Scheme         wavelet.Scheme
	Method         quant.Method
	Levels         int
	Divisions      int
	SpikeDivisions int
	// PerBand is true when each wavelet sub-band was quantized separately
	// (the per-band ablation); false for the paper's pooled quantization.
	PerBand bool
}

// Archive is the in-memory form of one compressed array: parameters, shape,
// the low band, and one or more encoded high-band sections. The paper's
// pooled quantization produces exactly one section; the per-band ablation
// produces one per wavelet sub-band (in wavelet.Plan.Bands() order,
// excluding the low band).
//
// An archive FromBytes returned shares memory with its input: each band's
// Codes is a view of the bytes parsed, valid until they are next written.
type Archive struct {
	Params Params
	Shape  []int
	Low    []float64
	Bands  []*encode.EncodedBand
}

// Band returns the single band section of a pooled archive; it panics when
// the archive is per-band. It exists for the common pooled case.
func (a *Archive) Band() *encode.EncodedBand {
	if len(a.Bands) != 1 {
		panic(fmt.Sprintf("container: Band() on archive with %d band sections", len(a.Bands)))
	}
	return a.Bands[0]
}

// WriteTo serializes the archive, implementing io.WriterTo. The stream ends
// with a CRC-32 of all preceding bytes.
func (a *Archive) WriteTo(w io.Writer) (int64, error) {
	buf, err := a.Bytes()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// Bytes serializes the archive to a fresh byte slice of exactly its size.
func (a *Archive) Bytes() ([]byte, error) { return a.AppendTo(nil) }

// AppendTo appends the serialized archive to dst and returns the extended
// slice, growing dst at most once.
func (a *Archive) AppendTo(dst []byte) ([]byte, error) {
	if len(a.Bands) == 0 {
		return nil, fmt.Errorf("%w: no band sections", ErrFormat)
	}
	for _, b := range a.Bands {
		if b == nil {
			return nil, fmt.Errorf("%w: nil band section", ErrFormat)
		}
		if err := b.Validate(); err != nil {
			return nil, err
		}
	}
	dst = slices.Grow(dst, a.SerializedSize())
	start := len(dst)
	le := binary.LittleEndian

	// Header.
	dst = le.AppendUint32(dst, magic)
	dst = le.AppendUint16(dst, version)
	dst = le.AppendUint16(dst, uint16(a.Params.Scheme))
	dst = le.AppendUint16(dst, uint16(a.Params.Method))
	dst = le.AppendUint16(dst, uint16(a.Params.Levels))
	dst = le.AppendUint16(dst, uint16(a.Params.Divisions))
	dst = le.AppendUint16(dst, uint16(a.Params.SpikeDivisions))
	var flags uint16
	if a.Params.PerBand {
		flags |= 1
	}
	dst = le.AppendUint16(dst, flags)
	dst = le.AppendUint16(dst, uint16(len(a.Shape)))
	for _, e := range a.Shape {
		dst = le.AppendUint64(dst, uint64(e))
	}

	// Sections, each length-prefixed.
	dst = appendFloats(dst, a.Low)
	dst = le.AppendUint16(dst, uint16(len(a.Bands)))
	for _, b := range a.Bands {
		dst = appendFloats(dst, b.Averages)
		dst = le.AppendUint64(dst, uint64(len(b.Codes)))
		dst = append(dst, b.Codes...)
		dst = le.AppendUint64(dst, uint64(b.N))
		dst = b.Bitmap.AppendTo(dst)
		dst = appendFloats(dst, b.Passthrough)
	}

	// Trailer.
	return le.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:])), nil
}

// appendFloats appends a float section: the count, then the values' bytes
// as PackedWidth lanes of count bytes each, least significant byte first.
func appendFloats(dst []byte, fs []float64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(fs)))
	at := len(dst)
	dst = slices.Grow(dst, 8*len(fs))[:at+8*len(fs)]
	grid.Lanes(dst[at:], grid.FloatBytes(fs), 8)
	return dst
}

// SerializedSize returns the exact number of bytes WriteTo produces.
func (a *Archive) SerializedSize() int {
	n := 4 + 2 + 2 + 2 + 2 + 2 + 2 + 2 + 2 + 8*len(a.Shape) // header (incl. flags)
	n += 8 + 8*len(a.Low)                                   // low band
	n += 2                                                  // band count
	for _, b := range a.Bands {
		n += 8 + 8*len(b.Averages)     // averages
		n += 8 + len(b.Codes)          // codes
		n += 8                         // band N
		n += b.Bitmap.SerializedSize() // bitmap
		n += 8 + 8*len(b.Passthrough)  // passthrough
	}
	n += 4 // crc
	return n
}

// FromBytes deserializes an archive of either format version from a byte
// slice, verifying the trailing checksum. Its Codes are views of raw.
func FromBytes(raw []byte) (*Archive, error) {
	if len(raw) < 4+2+14+2+4 {
		return nil, fmt.Errorf("%w: too short (%d bytes)", ErrFormat, len(raw))
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, ErrChecksum
	}
	rd := &sliceReader{b: body}

	if rd.u32() != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	switch v := rd.u16(); v {
	case version:
		rd.lanes = true
	case versionV1:
	default:
		return nil, fmt.Errorf("%w: unsupported version %d", ErrFormat, v)
	}
	var a Archive
	a.Params.Scheme = wavelet.Scheme(rd.u16())
	a.Params.Method = quant.Method(rd.u16())
	a.Params.Levels = int(rd.u16())
	a.Params.Divisions = int(rd.u16())
	a.Params.SpikeDivisions = int(rd.u16())
	flags := rd.u16()
	a.Params.PerBand = flags&1 != 0
	nd := int(rd.u16())
	if rd.err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrFormat, rd.err)
	}
	if nd == 0 || nd > grid.MaxDims {
		return nil, fmt.Errorf("%w: ndims %d", ErrFormat, nd)
	}
	a.Shape = make([]int, nd)
	elems := uint64(1)
	for d := range a.Shape {
		e := rd.u64()
		if e == 0 || e > math.MaxInt32 {
			return nil, fmt.Errorf("%w: extent %d", ErrFormat, e)
		}
		a.Shape[d] = int(e)
		elems *= e
	}
	// Plausibility cap: every stored value costs at least a bitmap bit,
	// so a genuine archive holds at least elems/8 bytes (64× slack). A
	// forged header cannot make the decompressor allocate arrays vastly
	// larger than the input that claims to describe them.
	if elems/64 > uint64(len(raw)) {
		return nil, fmt.Errorf("%w: shape %v declares %d elements for %d input bytes", ErrFormat, a.Shape, elems, len(raw))
	}

	a.Low = rd.floats()
	numBands := int(rd.u16())
	if rd.err != nil {
		return nil, fmt.Errorf("%w: sections: %v", ErrFormat, rd.err)
	}
	if numBands < 1 || numBands > 1<<12 {
		return nil, fmt.Errorf("%w: band count %d", ErrFormat, numBands)
	}
	a.Bands = make([]*encode.EncodedBand, 0, numBands)
	for bi := 0; bi < numBands; bi++ {
		avgs := rd.floats()
		codes := rd.bytes()
		bandN := rd.u64()
		if rd.err != nil {
			return nil, fmt.Errorf("%w: band %d: %v", ErrFormat, bi, rd.err)
		}
		if bandN > uint64(len(body))*64 { // cheap sanity bound
			return nil, fmt.Errorf("%w: band %d value count %d implausible", ErrFormat, bi, bandN)
		}
		// The band's value count is already known, so cap the bitmap
		// allocation at exactly that many bits.
		bm, err := bitpack.ReadMax(rd, bandN)
		if err != nil {
			return nil, err
		}
		pass := rd.floats()
		if rd.err != nil {
			return nil, fmt.Errorf("%w: band %d passthrough: %v", ErrFormat, bi, rd.err)
		}
		band := &encode.EncodedBand{
			N:           int(bandN),
			Bitmap:      bm,
			Codes:       codes,
			Averages:    avgs,
			Passthrough: pass,
		}
		if err := band.Validate(); err != nil {
			return nil, err
		}
		a.Bands = append(a.Bands, band)
	}
	if rd.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrFormat, rd.remaining())
	}
	return &a, nil
}

// --- little-endian reader -----------------------------------------------

// sliceReader is a cursor over a byte slice that records the first error
// and also satisfies io.Reader for bitpack.Read.
type sliceReader struct {
	b     []byte
	off   int
	err   error
	lanes bool // float sections are byte lanes (version 2), not words
}

func (r *sliceReader) remaining() int { return len(r.b) - r.off }

func (r *sliceReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.remaining() < n {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

func (r *sliceReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *sliceReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *sliceReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *sliceReader) floats() []float64 {
	n := r.u64()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()/8) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	b := r.take(int(n) * 8)
	out := make([]float64, n)
	if r.lanes {
		grid.PutLanes(out, b)
	} else {
		grid.PutFloatBytes(out, b)
	}
	return out
}

// bytes returns a length-prefixed byte section as a view of the input.
func (r *sliceReader) bytes() []byte {
	n := r.u64()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	return slices.Clip(r.take(int(n)))
}
