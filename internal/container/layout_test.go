package container

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"lossyckpt/internal/bitpack"
	"lossyckpt/internal/encode"
	"lossyckpt/internal/quant"
	"lossyckpt/internal/wavelet"
)

// TestPackedWidthPinsFloatLayout pins how a float section lies in the
// stream: after its count, PackedWidth() lanes of count bytes each, lane k
// holding byte k (least significant first) of every value in order. It
// serializes an archive with recognizable low-band values and reads the lanes
// at the computed offset, so any change to the lane count, their order or the
// values' endianness fails here and not in a stream nobody can read back.
func TestPackedWidthPinsFloatLayout(t *testing.T) {
	if PackedWidth() != 8 {
		t.Fatalf("PackedWidth() = %d, want 8 (one lane per byte of a float64)", PackedWidth())
	}

	low := []float64{1.5, -2.25, math.Pi, 0, 1e300}
	bm := bitpack.New(2)
	bm.Set(0, true)
	a := &Archive{
		Params: Params{Scheme: wavelet.Haar, Method: quant.Proposed, Levels: 1, Divisions: 4},
		Shape:  []int{2, 4},
		Low:    low,
		Bands: []*encode.EncodedBand{{
			N:           2,
			Bitmap:      bm,
			Codes:       []uint8{0},
			Averages:    []float64{3.5},
			Passthrough: []float64{7.75},
		}},
	}
	raw, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(raw[4:]); v != 2 {
		t.Fatalf("format version %d, want 2", v)
	}

	// Header: u32 magic + 8 u16 fields + one u64 extent per dimension.
	headerLen := 4 + 8*2 + 8*len(a.Shape)
	// Low-band section: u64 count, then the lanes.
	off := headerLen
	if got := binary.LittleEndian.Uint64(raw[off:]); got != uint64(len(low)) {
		t.Fatalf("low-band count at offset %d = %d, want %d", off, got, len(low))
	}
	off += 8
	w := PackedWidth()
	for i, f := range low {
		for k := 0; k < w; k++ {
			if got, want := raw[off+k*len(low)+i], byte(math.Float64bits(f)>>(8*k)); got != want {
				t.Fatalf("byte %d of low[%d] at offset %d = %#x, want %#x (lane %d of %d)",
					k, i, off+k*len(low)+i, got, want, k, w)
			}
		}
	}

	// The accessor must agree with SerializedSize's accounting: each float
	// costs exactly PackedWidth() bytes.
	sizeWith := a.SerializedSize()
	a.Low = append(a.Low, 42)
	if diff := a.SerializedSize() - sizeWith; diff != w {
		t.Fatalf("one extra low float costs %d bytes, want PackedWidth()=%d", diff, w)
	}
}

// referenceBytes is the serializer as it stood before the bulk stores: one
// bytes.Buffer write per field, per float byte and per bitmap word. For
// version 2 it is the layout AppendTo is held to, byte by byte; for version 1,
// which nothing writes any more, it makes the streams FromBytes must still read.
func referenceBytes(a *Archive, version uint16) []byte {
	var buf bytes.Buffer
	u16 := func(v uint16) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	u32 := func(v uint32) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	u64 := func(v uint64) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	floats := func(fs []float64) {
		u64(uint64(len(fs)))
		if version == versionV1 {
			for _, f := range fs {
				u64(math.Float64bits(f))
			}
			return
		}
		for k := 0; k < 8; k++ {
			for _, f := range fs {
				buf.WriteByte(byte(math.Float64bits(f) >> (8 * k)))
			}
		}
	}
	u32(magic)
	u16(version)
	u16(uint16(a.Params.Scheme))
	u16(uint16(a.Params.Method))
	u16(uint16(a.Params.Levels))
	u16(uint16(a.Params.Divisions))
	u16(uint16(a.Params.SpikeDivisions))
	var flags uint16
	if a.Params.PerBand {
		flags |= 1
	}
	u16(flags)
	u16(uint16(len(a.Shape)))
	for _, e := range a.Shape {
		u64(uint64(e))
	}
	floats(a.Low)
	u16(uint16(len(a.Bands)))
	for _, b := range a.Bands {
		floats(b.Averages)
		u64(uint64(len(b.Codes)))
		buf.Write(b.Codes)
		u64(uint64(b.N))
		u64(uint64(b.Bitmap.Len()))
		switch b.Bitmap.Count() {
		case b.Bitmap.Len():
			buf.WriteByte(1)
		case 0:
			buf.WriteByte(2)
		default:
			buf.WriteByte(0)
			for w := 0; w < (b.N+63)/64; w++ {
				var word uint64
				for i := w * 64; i < min(w*64+64, b.N); i++ {
					if b.Bitmap.Get(i) {
						word |= 1 << (i % 64)
					}
				}
				u64(word)
			}
		}
		floats(b.Passthrough)
	}
	u32(crc32.ChecksumIEEE(buf.Bytes()))
	return buf.Bytes()
}

// layoutBand makes a band of n values, each a code with probability p.
func layoutBand(n int, p float64, rng *rand.Rand) *encode.EncodedBand {
	b := &encode.EncodedBand{N: n, Bitmap: bitpack.New(n), Averages: []float64{math.Copysign(0, -1), math.NaN(), 1e-300, rng.NormFloat64()}}
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			b.Bitmap.Set(i, true)
			b.Codes = append(b.Codes, uint8(rng.Intn(len(b.Averages))))
		} else {
			b.Passthrough = append(b.Passthrough, rng.NormFloat64())
		}
	}
	return b
}

// TestBytesMatchesReferenceWriter: pooled, per-band, all-true, all-false and
// empty archives serialize to the reference writer's version 2 bytes, parse
// back to themselves from those and from the reference writer's version 1
// bytes, and AppendTo writes the same after whatever its destination held.
func TestBytesMatchesReferenceWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	low := make([]float64, 37)
	for i := range low {
		low[i] = rng.NormFloat64()
	}
	params := Params{Scheme: wavelet.Haar, Method: quant.Proposed, Levels: 2, Divisions: 128, SpikeDivisions: 65535}
	perBand := params
	perBand.PerBand = true
	for name, a := range map[string]*Archive{
		"pooled":            {Params: params, Shape: []int{10, 20}, Low: low, Bands: []*encode.EncodedBand{layoutBand(163, 0.8, rng)}},
		"pooled word-sized": {Params: params, Shape: []int{16, 16}, Low: low, Bands: []*encode.EncodedBand{layoutBand(128, 0.5, rng)}},
		"per-band": {Params: perBand, Shape: []int{4, 5, 6}, Low: low, Bands: []*encode.EncodedBand{
			layoutBand(70, 0.9, rng), layoutBand(1, 0, rng), layoutBand(64, 1, rng), layoutBand(200, 0.1, rng)}},
		"all-true":          {Params: params, Shape: []int{9}, Low: low, Bands: []*encode.EncodedBand{layoutBand(99, 1, rng)}},
		"all-false":         {Params: params, Shape: []int{9}, Low: low[:1], Bands: []*encode.EncodedBand{layoutBand(99, 0, rng)}},
		"empty passthrough": {Params: params, Shape: []int{1}, Low: nil, Bands: []*encode.EncodedBand{layoutBand(0, 1, rng)}},
	} {
		want := referenceBytes(a, version)
		got, err := a.Bytes()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: Bytes differs from the reference writer (%d vs %d bytes)", name, len(got), len(want))
		}
		if len(got) != a.SerializedSize() {
			t.Errorf("%s: %d bytes, SerializedSize %d", name, len(got), a.SerializedSize())
		}
		appended, err := a.AppendTo([]byte("prefix"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(appended[:6]) != "prefix" || !bytes.Equal(appended[6:], want) {
			t.Errorf("%s: AppendTo after a prefix differs from the reference writer", name)
		}
		for v, stream := range map[uint16][]byte{version: got, versionV1: referenceBytes(a, versionV1)} {
			if back, err := FromBytes(stream); err != nil {
				t.Errorf("%s: version %d does not parse back: %v", name, v, err)
			} else if !archivesEqual(a, back) {
				t.Errorf("%s: version %d parses back to another archive", name, v)
			}
		}
	}
}
