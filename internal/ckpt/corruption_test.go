package ckpt

import (
	"bytes"
	"errors"
	"testing"
)

// checkpointStream builds one valid multi-array stream in the given layout
// version for corruption sweeps: v2 as Checkpoint writes it, v1 off the
// reference writer.
func checkpointStream(t *testing.T, codec Codec, version int) ([]byte, *Manager) {
	t.Helper()
	mgr := NewManager(codec, 1)
	registerSample(t, mgr)
	if version == fileVersion {
		return v1Stream(t, mgr, 11), mgr
	}
	var buf bytes.Buffer
	if _, err := mgr.Checkpoint(&buf, 11); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), mgr
}

// streamVersions are the layouts the sweeps run over: the one read only and
// the one written.
var streamVersions = []int{fileVersion, fileVersionStream}

// restoreMustFailCleanly asserts Restore rejects data with one of the
// package's typed errors — and, above all, does not panic.
func restoreMustFailCleanly(t *testing.T, mgr *Manager, data []byte, what string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: Restore panicked: %v", what, r)
		}
	}()
	_, err := mgr.Restore(bytes.NewReader(data))
	if err == nil {
		t.Fatalf("%s: Restore accepted corrupt input", what)
	}
	if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrMismatch) && !errors.Is(err, ErrCodec) {
		t.Fatalf("%s: Restore returned untyped error %v", what, err)
	}
}

// TestRestoreTruncationSweep feeds every prefix of a valid stream of
// either version (in byte steps near boundaries, coarser inside payloads)
// into Restore.
func TestRestoreTruncationSweep(t *testing.T) {
	for _, codecName := range []string{"none", "gzip"} {
		codec, err := CodecByName(codecName)
		if err != nil {
			t.Fatal(err)
		}
		for _, version := range streamVersions {
			data, mgr := checkpointStream(t, codec, version)
			step := 1
			if len(data) > 4096 {
				step = len(data) / 4096
			}
			for cut := 0; cut < len(data); cut += step {
				restoreMustFailCleanly(t, mgr, data[:cut], codecName)
			}
			// And the exact stream still restores (sweep sanity).
			if _, err := mgr.Restore(bytes.NewReader(data)); err != nil {
				t.Fatalf("%s v%d: intact stream failed: %v", codecName, version, err)
			}
		}
	}
}

// TestRestoreBitFlipSweep flips single bits across a stream of either
// version — dense over the header and frame metadata, sampled inside
// payloads — and requires a typed error (or, for payload bits, either an
// error or a detected CRC mismatch; silence is the only failure).
func TestRestoreBitFlipSweep(t *testing.T) {
	for _, version := range streamVersions {
		data, mgr := checkpointStream(t, None{}, version)
		bitFlipSweep(t, data, mgr)
	}
}

func bitFlipSweep(t *testing.T, data []byte, mgr *Manager) {
	// The header's step counter is plain data with no stream-level CRC
	// (the store's whole-file CRC covers it); a flip there is accepted
	// by Restore, so the sweep skips those eight bytes.
	stepOff := 4 + 2 + 2 + len("none")
	inStep := func(i int) bool { return i >= stepOff && i < stepOff+8 }
	positions := make([]int, 0, 512)
	for i := 0; i < len(data) && i < 64; i++ {
		positions = append(positions, i) // dense: header + first frame header
	}
	for i := 64; i < len(data); i += len(data)/256 + 1 {
		positions = append(positions, i)
	}
	positions = append(positions, len(data)-1)
	for _, pos := range positions {
		if inStep(pos) {
			continue
		}
		for bit := uint(0); bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[pos] ^= 1 << bit
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("bit %d of byte %d: panic: %v", bit, pos, r)
					}
				}()
				if _, err := mgr.Restore(bytes.NewReader(mut)); err == nil {
					t.Fatalf("bit %d of byte %d: flip accepted silently", bit, pos)
				} else if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrMismatch) && !errors.Is(err, ErrCodec) {
					t.Fatalf("bit %d of byte %d: untyped error %v", bit, pos, err)
				}
			}()
		}
	}
}

// TestRestorePartialNeverPanics runs the same sweeps through the
// lenient path: RestorePartial may succeed or fail, but must not panic
// and must never report arrays it did not verify.
func TestRestorePartialNeverPanics(t *testing.T) {
	for _, version := range streamVersions {
		data, mgr := checkpointStream(t, None{}, version)
		partialSweep(t, data, mgr)
	}
}

func partialSweep(t *testing.T, data []byte, mgr *Manager) {
	step := len(data)/512 + 1
	for cut := 0; cut < len(data); cut += step {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("cut %d: panic: %v", cut, r)
				}
			}()
			rep, _, err := mgr.RestorePartial(bytes.NewReader(data[:cut]))
			if err == nil && len(rep.Entries) == 0 {
				t.Fatalf("cut %d: success with zero entries", cut)
			}
		}()
	}
	for pos := 0; pos < len(data); pos += step {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x10
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("flip %d: panic: %v", pos, r)
				}
			}()
			_, _, _ = mgr.RestorePartial(bytes.NewReader(mut))
		}()
	}
}

// TestHeaderDeclaredSizeCaps forges v1 headers that declare absurd sizes
// and checks they are rejected before any large allocation could
// happen (the test would OOM otherwise).
func TestHeaderDeclaredSizeCaps(t *testing.T) {
	data, mgr := checkpointStream(t, None{}, fileVersion)

	// Variable count beyond cap.
	mut := append([]byte(nil), data...)
	// Header: magic(4) version(2) str(2+len) step(8) count(4).
	codecLen := int(uint16(mut[6]) | uint16(mut[7])<<8)
	countOff := 4 + 2 + 2 + codecLen + 8
	for i := 0; i < 4; i++ {
		mut[countOff+i] = 0xFF
	}
	if _, err := mgr.Restore(bytes.NewReader(mut)); !errors.Is(err, ErrFormat) && !errors.Is(err, ErrMismatch) {
		t.Fatalf("absurd variable count: %v", err)
	}

	// Entry length beyond cap.
	mut = append([]byte(nil), data...)
	entryLenOff := countOff + 4 + 4 // skip count and entry CRC
	for i := 0; i < 8; i++ {
		mut[entryLenOff+i] = 0xFF
	}
	if _, err := mgr.Restore(bytes.NewReader(mut)); !errors.Is(err, ErrFormat) {
		t.Fatalf("absurd entry length: %v", err)
	}

	// Payload length larger than the entry that contains it.
	mut = append([]byte(nil), data...)
	nameLen := int(uint16(mut[entryLenOff+8]) | uint16(mut[entryLenOff+9])<<8)
	// Entry body: name(2+len) nd(2) extents(3*8) payloadLen(8).
	payloadLenOff := entryLenOff + 8 + 2 + nameLen + 2 + 3*8
	for i := 0; i < 8; i++ {
		mut[payloadLenOff+i] = 0xFE
	}
	if _, err := mgr.Restore(bytes.NewReader(mut)); err == nil {
		t.Fatal("oversized payload length accepted")
	}
}

// TestParseEntryBodyCaps drives the frame-body parser directly with
// forged declared sizes: each must fail with ErrFormat before any
// allocation proportional to the declared size.
func TestParseEntryBodyCaps(t *testing.T) {
	var good bytes.Buffer
	writeString(&good, "temp")
	writeU16(&good, 1)
	writeU64(&good, 8)
	writeU64(&good, 3)
	good.Write([]byte{1, 2, 3})
	if _, err := parseEntryBody(good.Bytes(), 0); err != nil {
		t.Fatalf("valid body rejected: %v", err)
	}

	cases := map[string]func(*bytes.Buffer){
		"payload-exceeds-remaining": func(b *bytes.Buffer) {
			writeString(b, "temp")
			writeU16(b, 1)
			writeU64(b, 8)
			writeU64(b, 1<<50) // declares a petabyte, 0 bytes follow
		},
		"huge-name": func(b *bytes.Buffer) {
			writeU16(b, uint16(maxNameLen+1))
			b.Write(bytes.Repeat([]byte{'x'}, maxNameLen+1))
			writeU16(b, 1)
			writeU64(b, 8)
			writeU64(b, 0)
		},
		"zero-dims": func(b *bytes.Buffer) {
			writeString(b, "t")
			writeU16(b, 0)
		},
		"extent-overflow": func(b *bytes.Buffer) {
			writeString(b, "t")
			writeU16(b, 1)
			writeU64(b, 1<<40)
			writeU64(b, 0)
		},
		"trailing-garbage": func(b *bytes.Buffer) {
			writeString(b, "t")
			writeU16(b, 1)
			writeU64(b, 8)
			writeU64(b, 0)
			b.Write([]byte{0xAA})
		},
	}
	for name, build := range cases {
		var b bytes.Buffer
		build(&b)
		if _, err := parseEntryBody(b.Bytes(), 0); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", name, err)
		}
	}
}
