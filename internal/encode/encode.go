// Package encode implements stage 3 of the lossy checkpoint compressor of
// Sasaki et al. (IPDPS 2015): replacing quantized high-frequency values
// with 1-byte indexes into the average table (paper §III-C), and assembling
// the pieces the output format needs (§III-D) — the code stream, the
// bitmap of which values were encoded, the average table, and the verbatim
// passthrough values.
//
// Encoding is lossless with respect to the quantized stream: decoding an
// EncodedBand reproduces exactly the dequantized values (table averages at
// quantized positions, original values elsewhere).
//
// Cost: none going in — the quantizer's split pass already wrote the codes,
// the bitmap words and the passthrough values where the format wants them, so
// Encode checks lengths and wraps the same memory. Coming back, Decode reads
// the bitmap a word at a time and each code once: runs of codes are table
// lookups, runs of passthrough values are copies.
package encode

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"lossyckpt/internal/bitpack"
	"lossyckpt/internal/quant"
)

// ErrCorrupt indicates an internally inconsistent encoded band.
var ErrCorrupt = errors.New("encode: corrupt encoded band")

// EncodedBand is the encoded form of one array's pooled high-frequency
// coefficients.
type EncodedBand struct {
	// N is the total number of high-frequency values (quantized plus
	// passthrough).
	N int
	// Bitmap has N bits; bit i is set when value i is represented by a
	// code, clear when it is stored verbatim in Passthrough.
	Bitmap *bitpack.Bitmap
	// Codes holds one byte per quantized value, in value order.
	Codes []uint8
	// Averages is the representative-value table the codes index.
	Averages []float64
	// Passthrough holds the verbatim values, in value order.
	Passthrough []float64
}

// Encode assembles an EncodedBand from the raw high-frequency values and
// their quantization. The quantizer already wrote every piece where it ends
// up, so this checks the lengths and wraps them: O(1), no copy — the band
// shares the quantization's memory, and with nothing quantized its
// passthrough is values itself.
func Encode(values []float64, q *quant.Quantization) (*EncodedBand, error) {
	if len(values) != q.Bitmap.Len() {
		return nil, fmt.Errorf("encode: %d values but bitmap of %d", len(values), q.Bitmap.Len())
	}
	pass := q.Passthrough
	if q.NumQuantized == 0 {
		pass = values
	}
	if len(pass) != len(values)-q.NumQuantized {
		return nil, fmt.Errorf("encode: %d passthrough values, %d of %d quantized", len(pass), q.NumQuantized, len(values))
	}
	return &EncodedBand{
		N:           len(values),
		Bitmap:      q.Bitmap,
		Codes:       q.Codes,
		Averages:    q.Averages,
		Passthrough: pass,
	}, nil
}

// Validate checks the band's internal consistency without decoding it.
func (e *EncodedBand) Validate() error {
	if err := e.validateCounts(); err != nil {
		return err
	}
	var top uint8
	for _, c := range e.Codes {
		top = max(top, c)
	}
	return e.checkTopCode(top)
}

// validateCounts is the part of Validate that does not read the codes.
func (e *EncodedBand) validateCounts() error {
	if e.Bitmap == nil {
		return fmt.Errorf("%w: nil bitmap", ErrCorrupt)
	}
	if e.Bitmap.Len() != e.N {
		return fmt.Errorf("%w: bitmap has %d bits for %d values", ErrCorrupt, e.Bitmap.Len(), e.N)
	}
	nq := e.Bitmap.Count()
	if nq != len(e.Codes) {
		return fmt.Errorf("%w: bitmap marks %d encoded values, have %d codes", ErrCorrupt, nq, len(e.Codes))
	}
	if e.N-nq != len(e.Passthrough) {
		return fmt.Errorf("%w: bitmap leaves %d passthrough values, have %d", ErrCorrupt, e.N-nq, len(e.Passthrough))
	}
	return nil
}

// checkTopCode reports the band's largest code when the table is too short
// for it.
func (e *EncodedBand) checkTopCode(top uint8) error {
	if len(e.Codes) > 0 && int(top) >= len(e.Averages) {
		return fmt.Errorf("%w: code %d out of range (%d averages)", ErrCorrupt, top, len(e.Averages))
	}
	return nil
}

// Decode reconstructs the (lossy) high-frequency value stream, appending to
// dst and returning it. It walks the bitmap by runs — a run of clear bits is
// a copy from the passthrough, a run of set bits a loop over as many codes —
// and checks the codes' range as it reads them, so a band that parsed clean is
// not scanned a second time and a forged one is an error all the same.
func (e *EncodedBand) Decode(dst []float64) ([]float64, error) {
	if err := e.validateCounts(); err != nil {
		return nil, err
	}
	dst = slices.Grow(dst, e.N)
	out := dst[len(dst) : len(dst)+e.N]
	var table [256]float64 // any code indexes it; one past the averages is caught below
	copy(table[:], e.Averages)
	codes, pass := e.Codes, e.Passthrough
	var top uint8
	for w, word := range e.Bitmap.Words() {
		chunk := out[w*64 : min(w*64+64, e.N)]
		for j := 0; j < len(chunk); {
			zeros := min(bits.TrailingZeros64(word>>j), len(chunk)-j)
			pass = pass[copy(chunk[j:j+zeros], pass):]
			j += zeros
			ones := bits.TrailingZeros64(^(word >> j))
			for i, c := range codes[:ones] {
				chunk[j+i] = table[c]
				top = max(top, c)
			}
			codes = codes[ones:]
			j += ones
		}
	}
	if err := e.checkTopCode(top); err != nil {
		return nil, err
	}
	return dst[:len(dst)+e.N], nil
}

// PayloadBytes returns the serialized payload size in bytes, before any
// entropy coding: bitmap + 1 byte per code + 8 bytes per average + 8 bytes
// per passthrough value. This is the quantity the paper's compression-rate
// accounting needs prior to the gzip stage.
func (e *EncodedBand) PayloadBytes() int {
	return e.Bitmap.SerializedSize() + len(e.Codes) + 8*len(e.Averages) + 8*len(e.Passthrough)
}

// RawBytes returns the size of the unencoded high-frequency values.
func (e *EncodedBand) RawBytes() int { return 8 * e.N }
