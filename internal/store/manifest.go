package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// ErrManifest indicates a structurally invalid or checksum-failing
// manifest. Open treats it as a lost manifest and rebuilds from a
// directory scan; the error surfaces only from DecodeManifest itself.
var ErrManifest = errors.New("store: malformed manifest")

const (
	manifestMagic   = 0x4D534B4C // "LKSM"
	manifestVersion = 1
	// manifestVersionTTL extends each entry with an expire_at timestamp.
	// encode only emits it when some generation actually carries one, so
	// TTL-free stores stay byte-identical to version 1.
	manifestVersionTTL = 2
	// manifestVersionFlags extends each entry with a flags word (dedup
	// bit). Again emitted only when some generation carries a flag, so
	// stores that never dedup stay byte-identical to earlier releases.
	manifestVersionFlags = 3
	// maxManifestGens bounds the generation count a manifest header may
	// declare, so a corrupt count cannot force a huge allocation.
	maxManifestGens = 1 << 16
	manifestHeader  = 4 + 2 + 8 + 4       // magic, version, nextSeq, count
	manifestEntry   = 8 + 8 + 8 + 4       // seq, step, size, crc
	manifestEntryV2 = manifestEntry + 8   // + expire_at
	manifestEntryV3 = manifestEntryV2 + 4 // + flags
)

// Generation flags.
const (
	// GenFlagDedup marks a generation whose payload object is a cas
	// recipe: the manifest Size/CRC still describe the LOGICAL payload
	// (what ReadGeneration returns), and the physical bytes live in
	// refcounted chunks the recipe references.
	GenFlagDedup uint32 = 1 << 0
)

// Generation is one retained checkpoint: its monotonically increasing
// sequence number, the application step stored in it, and the size and
// CRC-32 (IEEE) of its payload file.
type Generation struct {
	Seq  uint64
	Step uint64
	Size uint64
	CRC  uint32
	// ExpireAt is the unix second after which TTL retention may prune
	// this generation (0 = never expires). It is assigned once by the
	// commit coordinator, so every replica records the identical value
	// and quorum voting stays byte-exact.
	ExpireAt int64
	// Flags carries per-generation format bits (GenFlagDedup). Content-
	// defined chunking is deterministic, so replicas of one commit derive
	// the identical flag word and quorum voting stays byte-exact.
	Flags uint32
}

// Dedup reports whether this generation's payload object is a recipe of
// content-addressed chunks rather than the logical bytes themselves.
func (g Generation) Dedup() bool { return g.Flags&GenFlagDedup != 0 }

// ttlSkewSeconds is the clock-skew tolerance for TTL pruning: a generation
// is only pruned once now > expire_at + ttlSkewSeconds, so replicas with
// slightly disagreeing clocks do not ping-pong prune/repair.
const ttlSkewSeconds = 30

// Expired reports whether the generation's TTL has elapsed at time
// nowUnix, tolerating ttlSkewSeconds of clock disagreement.
func (g Generation) Expired(nowUnix int64) bool {
	return g.ExpireAt != 0 && nowUnix > g.ExpireAt+ttlSkewSeconds
}

// manifest is the store's CRC-protected index: the next sequence number
// to allocate and the retained generations, oldest first.
type manifest struct {
	NextSeq uint64
	Gens    []Generation
}

// latest returns the newest generation, if any.
func (m *manifest) latest() (Generation, bool) {
	if len(m.Gens) == 0 {
		return Generation{}, false
	}
	return m.Gens[len(m.Gens)-1], true
}

// without returns the manifest less seq's record, and that record.
func (m *manifest) without(seq uint64) (manifest, Generation, bool) {
	i := slices.IndexFunc(m.Gens, func(g Generation) bool { return g.Seq == seq })
	if i < 0 {
		return manifest{}, Generation{}, false
	}
	return manifest{NextSeq: m.NextSeq, Gens: slices.Delete(slices.Clone(m.Gens), i, i+1)}, m.Gens[i], true
}

// encode serializes the manifest with a trailing CRC-32 of everything
// before it. The version is 1 unless some generation carries an
// expire_at stamp, so stores that never use TTL retention produce
// byte-identical manifests to every earlier release.
func (m *manifest) encode() []byte {
	version, entry := uint16(manifestVersion), manifestEntry
	for _, g := range m.Gens {
		if g.Flags != 0 {
			version, entry = manifestVersionFlags, manifestEntryV3
			break
		}
		if g.ExpireAt != 0 {
			version, entry = manifestVersionTTL, manifestEntryV2
		}
	}
	out := make([]byte, 0, manifestHeader+entry*len(m.Gens)+4)
	var b8 [8]byte
	var b4 [4]byte
	var b2 [2]byte

	binary.LittleEndian.PutUint32(b4[:], manifestMagic)
	out = append(out, b4[:]...)
	binary.LittleEndian.PutUint16(b2[:], version)
	out = append(out, b2[:]...)
	binary.LittleEndian.PutUint64(b8[:], m.NextSeq)
	out = append(out, b8[:]...)
	binary.LittleEndian.PutUint32(b4[:], uint32(len(m.Gens)))
	out = append(out, b4[:]...)
	for _, g := range m.Gens {
		binary.LittleEndian.PutUint64(b8[:], g.Seq)
		out = append(out, b8[:]...)
		binary.LittleEndian.PutUint64(b8[:], g.Step)
		out = append(out, b8[:]...)
		binary.LittleEndian.PutUint64(b8[:], g.Size)
		out = append(out, b8[:]...)
		binary.LittleEndian.PutUint32(b4[:], g.CRC)
		out = append(out, b4[:]...)
		if version >= manifestVersionTTL {
			binary.LittleEndian.PutUint64(b8[:], uint64(g.ExpireAt))
			out = append(out, b8[:]...)
		}
		if version >= manifestVersionFlags {
			binary.LittleEndian.PutUint32(b4[:], g.Flags)
			out = append(out, b4[:]...)
		}
	}
	binary.LittleEndian.PutUint32(b4[:], crc32.ChecksumIEEE(out))
	return append(out, b4[:]...)
}

// DecodeManifest parses and verifies a manifest image. Every
// header-declared size is validated against the remaining input before
// any allocation, and generations must be strictly increasing and below
// NextSeq — corrupt input returns ErrManifest, never panics.
func DecodeManifest(raw []byte) ([]Generation, uint64, error) {
	if len(raw) < manifestHeader+4 {
		return nil, 0, fmt.Errorf("%w: %d bytes", ErrManifest, len(raw))
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrManifest)
	}
	if binary.LittleEndian.Uint32(body[0:4]) != manifestMagic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrManifest)
	}
	v := binary.LittleEndian.Uint16(body[4:6])
	entry := manifestEntry
	switch v {
	case manifestVersion:
	case manifestVersionTTL:
		entry = manifestEntryV2
	case manifestVersionFlags:
		entry = manifestEntryV3
	default:
		return nil, 0, fmt.Errorf("%w: unsupported version %d", ErrManifest, v)
	}
	nextSeq := binary.LittleEndian.Uint64(body[6:14])
	count := binary.LittleEndian.Uint32(body[14:18])
	if count > maxManifestGens {
		return nil, 0, fmt.Errorf("%w: generation count %d exceeds cap", ErrManifest, count)
	}
	if len(body) != manifestHeader+entry*int(count) {
		return nil, 0, fmt.Errorf("%w: %d bytes for %d generations", ErrManifest, len(raw), count)
	}
	gens := make([]Generation, count)
	off := manifestHeader
	for i := range gens {
		gens[i] = Generation{
			Seq:  binary.LittleEndian.Uint64(body[off:]),
			Step: binary.LittleEndian.Uint64(body[off+8:]),
			Size: binary.LittleEndian.Uint64(body[off+16:]),
			CRC:  binary.LittleEndian.Uint32(body[off+24:]),
		}
		if v >= manifestVersionTTL {
			gens[i].ExpireAt = int64(binary.LittleEndian.Uint64(body[off+28:]))
		}
		if v >= manifestVersionFlags {
			gens[i].Flags = binary.LittleEndian.Uint32(body[off+36:])
		}
		if gens[i].Seq >= nextSeq {
			return nil, 0, fmt.Errorf("%w: generation %d not below next sequence %d", ErrManifest, gens[i].Seq, nextSeq)
		}
		if i > 0 && gens[i].Seq <= gens[i-1].Seq {
			return nil, 0, fmt.Errorf("%w: generations not strictly increasing", ErrManifest)
		}
		off += entry
	}
	return gens, nextSeq, nil
}
