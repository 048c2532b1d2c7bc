package guard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// The guard envelope wraps a codec payload with the guarantee that was
// established for it, so inspect/restore can report what a generation
// actually carries without decoding it:
//
//	magic   u32  "GRD1"
//	version u16
//	mode    u8   Mode
//	verify  u8   VerifyMode that accepted the result
//	flags   u8   bit0: an attempt/time budget ran out (read only: Encode
//	             has no such budget and writes 0)
//	policy  3×f64  MaxAbs, MaxRel, PSNRFloor as enforced (0 = unset)
//	achieved 3×f64 AchievedMaxAbs, AchievedMaxRel, AchievedPSNR
//	escalations u16
//	attempts    u16
//	innerLen    u64
//	inner       innerLen bytes (core stream, or gzip-only when Lossless)
//	crc     u32  IEEE CRC32 over everything above
//
// All integers little-endian; floats as IEEE-754 bits.
const (
	envMagic   = 0x31445247 // "GRD1" little-endian
	envVersion = 1

	envHeaderLen  = 4 + 2 + 1 + 1 + 1 + 6*8 + 2 + 2 + 8
	envTrailerLen = 4

	flagBudgetExhausted = 1 << 0
)

// ErrEnvelope indicates a malformed or corrupt guard envelope.
var ErrEnvelope = errors.New("guard: invalid envelope")

// Annotation is the per-variable guarantee record carried in the envelope
// and surfaced by inspect/restore.
type Annotation struct {
	// Mode is the ladder rung the variable finally shipped at.
	Mode Mode
	// Verified is the verification mode that accepted the result
	// (meaningful for Bounded/LosslessBands; Lossless needs none).
	Verified VerifyMode
	// BudgetExhausted reports that an attempt/time budget ran out and the
	// guard jumped straight to the lossless rung. Only envelopes written by
	// builds whose Policy had such a budget carry it; Encode never sets it.
	BudgetExhausted bool
	// MaxAbs/MaxRel/PSNRFloor echo the policy as enforced (0 = unset).
	MaxAbs, MaxRel, PSNRFloor float64
	// AchievedMaxAbs/AchievedMaxRel are the guaranteed error ceilings:
	// measured when Verified == VerifyDecode, a conservative analytic
	// bound otherwise; exactly 0 for Lossless. NaN when no guarantee was
	// established (Unbounded).
	AchievedMaxAbs, AchievedMaxRel float64
	// AchievedPSNR is the matching PSNR floor in dB (+Inf when exact,
	// NaN when not established).
	AchievedPSNR float64
	// Escalations is how many ladder rungs were abandoned before the
	// final one; Attempts is how many compressions were spent in total.
	Escalations, Attempts int
}

// Guaranteed reports whether the annotation carries an enforced bound:
// every mode except Unbounded does.
func (a Annotation) Guaranteed() bool { return a.Mode != Unbounded }

// String renders the guarantee the way the CLI reports it.
func (a Annotation) String() string {
	switch a.Mode {
	case Lossless:
		s := "lossless (bit-exact"
		if a.BudgetExhausted {
			s += ", budget exhausted"
		}
		if a.Escalations > 0 {
			s += fmt.Sprintf(", after %d escalations", a.Escalations)
		}
		return s + ")"
	case LosslessBands, Bounded:
		s := fmt.Sprintf("%s: max-abs ≤ %.6g", a.Mode, a.AchievedMaxAbs)
		if a.MaxRel > 0 || a.PSNRFloor > 0 {
			s += fmt.Sprintf(", max-rel ≤ %.6g", a.AchievedMaxRel)
		}
		if a.PSNRFloor > 0 && !math.IsNaN(a.AchievedPSNR) {
			s += fmt.Sprintf(", PSNR ≥ %.4g dB", a.AchievedPSNR)
		}
		return s + fmt.Sprintf(" (%s-verified)", a.Verified)
	default:
		return "unbounded (no guarantee requested)"
	}
}

// wrap serializes the annotation around an inner payload.
func wrap(a Annotation, inner []byte) []byte {
	buf := make([]byte, 0, envHeaderLen+len(inner)+envTrailerLen)
	var tmp [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:4], v)
		buf = append(buf, tmp[:4]...)
	}
	put16 := func(v uint16) {
		binary.LittleEndian.PutUint16(tmp[:2], v)
		buf = append(buf, tmp[:2]...)
	}
	put64f := func(v float64) {
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
		buf = append(buf, tmp[:]...)
	}
	put32(envMagic)
	put16(envVersion)
	buf = append(buf, byte(a.Mode), byte(a.Verified), 0) // flags: none written
	for _, v := range []float64{a.MaxAbs, a.MaxRel, a.PSNRFloor,
		a.AchievedMaxAbs, a.AchievedMaxRel, a.AchievedPSNR} {
		put64f(v)
	}
	put16(clamp16(a.Escalations))
	put16(clamp16(a.Attempts))
	binary.LittleEndian.PutUint64(tmp[:], uint64(len(inner)))
	buf = append(buf, tmp[:]...)
	buf = append(buf, inner...)
	put32(crc32.ChecksumIEEE(buf[:len(buf)]))
	return buf
}

func clamp16(v int) uint16 {
	if v < 0 {
		return 0
	}
	if v > math.MaxUint16 {
		return math.MaxUint16
	}
	return uint16(v)
}

// unwrap validates the envelope and returns the annotation plus the inner
// payload (aliasing the input).
func unwrap(payload []byte) (Annotation, []byte, error) {
	var a Annotation
	if len(payload) < envHeaderLen+envTrailerLen {
		return a, nil, fmt.Errorf("%w: %d bytes, need ≥ %d", ErrEnvelope, len(payload), envHeaderLen+envTrailerLen)
	}
	if binary.LittleEndian.Uint32(payload) != envMagic {
		return a, nil, fmt.Errorf("%w: bad magic", ErrEnvelope)
	}
	if v := binary.LittleEndian.Uint16(payload[4:]); v != envVersion {
		return a, nil, fmt.Errorf("%w: version %d", ErrEnvelope, v)
	}
	body := len(payload) - envTrailerLen
	want := binary.LittleEndian.Uint32(payload[body:])
	if got := crc32.ChecksumIEEE(payload[:body]); got != want {
		return a, nil, fmt.Errorf("%w: crc mismatch (%08x != %08x)", ErrEnvelope, got, want)
	}
	a.Mode = Mode(payload[6])
	a.Verified = VerifyMode(payload[7])
	a.BudgetExhausted = payload[8]&flagBudgetExhausted != 0
	if a.Mode > Lossless || a.Verified > VerifyDecode {
		return a, nil, fmt.Errorf("%w: mode %d / verify %d", ErrEnvelope, a.Mode, a.Verified)
	}
	off := 9
	next := func() float64 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
		off += 8
		return v
	}
	a.MaxAbs, a.MaxRel, a.PSNRFloor = next(), next(), next()
	a.AchievedMaxAbs, a.AchievedMaxRel, a.AchievedPSNR = next(), next(), next()
	a.Escalations = int(binary.LittleEndian.Uint16(payload[off:]))
	a.Attempts = int(binary.LittleEndian.Uint16(payload[off+2:]))
	innerLen := binary.LittleEndian.Uint64(payload[off+4:])
	if innerLen != uint64(body-envHeaderLen) {
		return a, nil, fmt.Errorf("%w: inner length %d, have %d", ErrEnvelope, innerLen, body-envHeaderLen)
	}
	return a, payload[envHeaderLen:body], nil
}

// ParseAnnotation reads the guarantee record off an enveloped payload
// without decoding the inner stream (inspect's fast path).
func ParseAnnotation(payload []byte) (Annotation, error) {
	a, _, err := unwrap(payload)
	return a, err
}

// IsEnveloped reports whether the payload starts with the guard magic —
// a cheap sniff for inspect-style tooling (the envelope CRC still decides
// validity).
func IsEnveloped(payload []byte) bool {
	return len(payload) >= 4 && binary.LittleEndian.Uint32(payload) == envMagic
}

// InnerPayload validates the envelope and returns the wrapped compressed
// stream (aliasing the input) — inspect-style tooling uses it to sniff
// the entropy framing under the guarantee record.
func InnerPayload(payload []byte) ([]byte, error) {
	_, inner, err := unwrap(payload)
	return inner, err
}
