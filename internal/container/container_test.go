package container

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lossyckpt/internal/encode"
	"lossyckpt/internal/quant"
	"lossyckpt/internal/wavelet"
)

func crc32IEEE(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

func sampleArchive(t *testing.T, seed int64) *Archive {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	high := make([]float64, 3000)
	for i := range high {
		if rng.Float64() < 0.9 {
			high[i] = rng.NormFloat64() * 0.01
		} else {
			high[i] = rng.NormFloat64() * 4
		}
	}
	q, err := quant.Quantize(high, quant.Config{Method: quant.Proposed, Divisions: 32})
	if err != nil {
		t.Fatal(err)
	}
	band, err := encode.Encode(high, q)
	if err != nil {
		t.Fatal(err)
	}
	low := make([]float64, 1000)
	for i := range low {
		low[i] = rng.NormFloat64() * 100
	}
	return &Archive{
		Params: Params{
			Scheme:         wavelet.Haar,
			Method:         quant.Proposed,
			Levels:         1,
			Divisions:      32,
			SpikeDivisions: 64,
		},
		Shape: []int{40, 100},
		Low:   low,
		Bands: []*encode.EncodedBand{band},
	}
}

// sameFloats compares bit patterns: a NaN equals itself, 0 differs from -0.
func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func archivesEqual(a, b *Archive) bool {
	if a.Params != b.Params || !slices.Equal(a.Shape, b.Shape) || !sameFloats(a.Low, b.Low) || len(a.Bands) != len(b.Bands) {
		return false
	}
	for bi := range a.Bands {
		ab, bb := a.Bands[bi], b.Bands[bi]
		if ab.N != bb.N || !ab.Bitmap.Equal(bb.Bitmap) || !bytes.Equal(ab.Codes, bb.Codes) ||
			!sameFloats(ab.Averages, bb.Averages) || !sameFloats(ab.Passthrough, bb.Passthrough) {
			return false
		}
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	a := sampleArchive(t, 1)
	raw, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != a.SerializedSize() {
		t.Errorf("SerializedSize = %d, actual %d", a.SerializedSize(), len(raw))
	}
	b, err := FromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !archivesEqual(a, b) {
		t.Error("round trip mismatch")
	}
}

func TestWriteToMatchesBytes(t *testing.T) {
	a := sampleArchive(t, 2)
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := FromBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !archivesEqual(a, b) {
		t.Error("reader round trip mismatch")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	a := sampleArchive(t, 3)
	raw, _ := a.Bytes()
	for _, pos := range []int{10, len(raw) / 2, len(raw) - 10} {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0xFF
		if _, err := FromBytes(mut); !errors.Is(err, ErrChecksum) && err == nil {
			t.Errorf("flipping byte %d went undetected", pos)
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	a := sampleArchive(t, 4)
	raw, _ := a.Bytes()
	for _, n := range []int{0, 3, 20, len(raw) / 2, len(raw) - 1} {
		if _, err := FromBytes(raw[:n]); err == nil {
			t.Errorf("truncation to %d bytes went undetected", n)
		}
	}
}

func TestTrailingGarbageDetected(t *testing.T) {
	a := sampleArchive(t, 5)
	raw, _ := a.Bytes()
	mut := append(append([]byte(nil), raw...), 0, 0, 0, 0)
	if _, err := FromBytes(mut); err == nil {
		t.Error("trailing garbage went undetected")
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	a := sampleArchive(t, 6)
	raw, _ := a.Bytes()
	// A corrupted magic also breaks the CRC, so rewrite the CRC too. Easier:
	// hand-build a tiny buffer with a valid CRC but wrong magic.
	body := append([]byte(nil), raw[:len(raw)-4]...)
	body[0] ^= 1 // corrupt magic
	mut := appendCRC(body)
	if _, err := FromBytes(mut); err == nil || errors.Is(err, ErrChecksum) {
		t.Errorf("bad magic: got %v, want format error", err)
	}
	body = append([]byte(nil), raw[:len(raw)-4]...)
	body[4] ^= 0xFF // corrupt version
	mut = appendCRC(body)
	if _, err := FromBytes(mut); err == nil || errors.Is(err, ErrChecksum) {
		t.Errorf("bad version: got %v, want format error", err)
	}
}

func appendCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body[:len(body):len(body)], crc32IEEE(body))
}

func TestNilBandRejected(t *testing.T) {
	a := &Archive{Shape: []int{4}}
	if _, err := a.Bytes(); err == nil {
		t.Error("archive without band sections serialized without error")
	}
	b := &Archive{Shape: []int{4}, Bands: []*encode.EncodedBand{nil}}
	if _, err := b.Bytes(); err == nil {
		t.Error("nil band section serialized without error")
	}
}

func TestEmptySections(t *testing.T) {
	q, _ := quant.Quantize(nil, quant.Config{Method: quant.Simple, Divisions: 1})
	band, _ := encode.Encode(nil, q)
	a := &Archive{
		Params: Params{Scheme: wavelet.Haar, Method: quant.Simple, Levels: 1, Divisions: 1, SpikeDivisions: 64},
		Shape:  []int{1},
		Low:    []float64{3.14},
		Bands:  []*encode.EncodedBand{band},
	}
	raw, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !archivesEqual(a, b) {
		t.Error("empty-band round trip mismatch")
	}
}
