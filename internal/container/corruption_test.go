package container

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// failCleanly asserts FromBytes rejects data with one of the package's
// typed errors and never panics.
func failCleanly(t *testing.T, data []byte, what string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: FromBytes panicked: %v", what, r)
		}
	}()
	_, err := FromBytes(data)
	if err == nil {
		t.Fatalf("%s: FromBytes accepted corrupt input", what)
	}
	if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrChecksum) {
		// encode.EncodedBand.Validate and bitpack wrap their own typed
		// errors; anything fmt-wrapped around them is still structured.
		// Only a raw runtime error would indicate a missing guard.
		t.Logf("%s: non-container error (acceptable if typed): %v", what, err)
	}
}

// TestFromBytesTruncationSweep feeds every truncation of a valid
// archive into FromBytes: the trailing CRC guarantees all of them are
// rejected, and none may panic.
func TestFromBytesTruncationSweep(t *testing.T) {
	raw, err := sampleArchive(t, 1).Bytes()
	if err != nil {
		t.Fatal(err)
	}
	step := 1
	if len(raw) > 4096 {
		step = len(raw) / 4096
	}
	for cut := 0; cut < len(raw); cut += step {
		failCleanly(t, raw[:cut], "truncation")
	}
	if _, err := FromBytes(raw); err != nil {
		t.Fatalf("intact archive failed: %v", err)
	}
}

// TestFromBytesBitFlipSweep flips single bits across the archive; the
// trailing CRC-32 catches every one of them (single-bit errors are
// CRC-32's easy case), so the decode must return ErrChecksum — or
// ErrFormat for flips in the CRC trailer itself.
func TestFromBytesBitFlipSweep(t *testing.T) {
	raw, err := sampleArchive(t, 2).Bytes()
	if err != nil {
		t.Fatal(err)
	}
	positions := make([]int, 0, 600)
	for i := 0; i < len(raw) && i < 48; i++ {
		positions = append(positions, i)
	}
	for i := 48; i < len(raw); i += len(raw)/512 + 1 {
		positions = append(positions, i)
	}
	positions = append(positions, len(raw)-1)
	for _, pos := range positions {
		for bit := uint(0); bit < 8; bit++ {
			mut := append([]byte(nil), raw...)
			mut[pos] ^= 1 << bit
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("bit %d of byte %d: panic: %v", bit, pos, r)
					}
				}()
				if _, err := FromBytes(mut); !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrFormat) {
					t.Fatalf("bit %d of byte %d: err = %v, want ErrChecksum/ErrFormat", bit, pos, err)
				}
			}()
		}
	}
}

// TestShapePlausibilityCap forges a header that declares a huge element
// count over a small input; the decoder must reject it before any
// proportional allocation.
func TestShapePlausibilityCap(t *testing.T) {
	a := sampleArchive(t, 3)
	a.Shape = []int{1 << 30, 1 << 10} // 2^40 elements
	raw, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromBytes(raw); !errors.Is(err, ErrFormat) {
		t.Fatalf("implausible shape: err = %v, want ErrFormat", err)
	}
}

// forgedLowCounts rewrites the low band's count in a valid archive, under a
// valid CRC so the parser is reached: a count whose lanes end past the input,
// one whose eightfold wraps around, and the true count off by one either way,
// which splits the section's bytes into lanes that are not the writer's and
// leaves every later section misplaced.
func forgedLowCounts(raw []byte, shapeDims int) [][]byte {
	at := 4 + 8*2 + 8*shapeDims
	n := binary.LittleEndian.Uint64(raw[at:])
	var out [][]byte
	for _, forged := range []uint64{uint64(len(raw)), 1 << 61, 1<<61 + n, n + 1, n - 1} {
		body := append([]byte(nil), raw[:len(raw)-4]...)
		binary.LittleEndian.PutUint64(body[at:], forged)
		out = append(out, appendCRC(body))
	}
	return out
}

// TestForgedFloatSectionCounts: a float section's count is checked against
// the bytes left before anything is sized by it, in both format versions.
func TestForgedFloatSectionCounts(t *testing.T) {
	a := sampleArchive(t, 7)
	v2, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	for v, raw := range map[uint16][]byte{version: v2, versionV1: referenceBytes(a, versionV1)} {
		for i, forged := range forgedLowCounts(raw, len(a.Shape)) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			_, err := FromBytes(forged)
			runtime.ReadMemStats(&m1)
			if err == nil || errors.Is(err, ErrChecksum) {
				t.Errorf("version %d, forged count %d: err = %v, want a format error", v, i, err)
			}
			// An off-by-one count parses a section or two before the damage
			// shows; nothing may be sized beyond what the input can hold.
			if got := m1.TotalAlloc - m0.TotalAlloc; got > 2*uint64(len(forged)) {
				t.Errorf("version %d, forged count %d: allocated %d bytes for %d of input", v, i, got, len(forged))
			}
		}
	}
}

// TestCodesViewInput: the archive's Codes alias the parsed bytes — the one
// section FromBytes does not copy — and nothing else of it does.
func TestCodesViewInput(t *testing.T) {
	a := sampleArchive(t, 8)
	raw, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	codes := back.Band().Codes
	if len(codes) == 0 || cap(codes) != len(codes) {
		t.Fatalf("codes: len %d cap %d, want a clipped non-empty view", len(codes), cap(codes))
	}
	for i := range raw {
		raw[i] = 0xA5
	}
	if !bytes.Equal(codes, bytes.Repeat([]byte{0xA5}, len(codes))) {
		t.Error("codes were copied out of the input")
	}
	back.Band().Codes = a.Band().Codes
	if !archivesEqual(a, back) {
		t.Error("overwriting the input changed more of the archive than its codes")
	}
}
