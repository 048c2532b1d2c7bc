// delta.go is the manager half of delta checkpointing. With
// Manager.SetDelta(true), each checkpoint carries every registered array's
// state from the previous one and skips the compression work that cannot
// have changed:
//
//   - a codec that compresses in slabs (the chunked lossy pipeline) is
//     handed the variable's core.SlabCache (Entry.Slabs) and reuses
//     per-slab compressed frames, so compression CPU scales with the
//     mutated fraction of each array; it says so in Encoded.SlabsTotal;
//   - every other codec gets whole-variable reuse — an unchanged array
//     re-emits its cached compressed payload without encoding at all.
//
// Either way the emitted stream is byte-identical to a non-delta
// checkpoint of the same state (per-slab and per-array compression are
// deterministic), so restore, verification and the store layer are
// untouched. Restore invalidates all caches: the live state jumped to a
// checkpoint, and the next delta must re-baseline against it.
//
// Both caches tell a changed array from an unchanged one by a 128-bit
// in-process fingerprint (grid.FingerprintKey), two maphash sums under seeds
// drawn whenever a cache is built — on a reset too — so a change is missed
// only if two independently seeded keyed hashes both collide (≈ 2⁻¹²⁸). The
// fingerprint is never stored; stored bytes are named by SHA-256 (internal/cas).
package ckpt

import (
	"io"

	"lossyckpt/internal/core"
	"lossyckpt/internal/grid"
)

// varDelta is one variable's carried-over state: the slab cache for a
// codec that compresses in slabs, or the whole-array fingerprint plus
// cached encoding for everything else.
type varDelta struct {
	slabs core.SlabCache
	key   grid.FingerprintKey
	sum   [2]uint64
	enc   *Encoded
	have  bool
}

// SetDelta enables or disables delta checkpointing. Enabling starts
// with cold caches (the first checkpoint afterwards compresses
// everything); disabling drops all cached state.
func (m *Manager) SetDelta(on bool) {
	if !on {
		m.delta = nil
		return
	}
	if m.delta == nil {
		m.delta = make(map[string]*varDelta)
	}
}

// DeltaEnabled reports whether delta checkpointing is on.
func (m *Manager) DeltaEnabled() bool { return m.delta != nil }

// resetDelta invalidates every per-variable cache: the registered state
// no longer descends from the last checkpoint (a restore overwrote it).
func (m *Manager) resetDelta() {
	if m.delta != nil {
		m.delta = make(map[string]*varDelta)
	}
}

// primeDelta creates this checkpoint's missing per-variable delta slots
// up front, so the concurrent entry encodes only ever read the map. A
// no-op when delta is off.
func (m *Manager) primeDelta() {
	if m.delta == nil {
		return
	}
	for _, name := range m.names {
		if m.delta[name] == nil {
			m.delta[name] = &varDelta{key: grid.NewFingerprintKey()}
		}
	}
}

// encodeEntry encodes one registered array: streaming into w when w is
// non-nil and the codec can, else buffered into Encoded.Payload; under delta
// rules when delta is on. Delta mode trades the zero-buffer streaming encode
// for payload reuse: the entry is encoded, or served from cache, buffered.
// So does quality telemetry, which decodes the payload once it is written.
//
// The whole-array fingerprint is taken only where a whole-array encoding is
// held to compare it with, or has just been made to keep: a codec that
// used the slab cache fingerprinted per slab, and hashing the array again
// would read it twice. Exactly one goroutine touches one varDelta, so no
// locking.
func (m *Manager) encodeEntry(w io.Writer, name string, f *grid.Field) (*Encoded, error) {
	e := Entry{Name: name, Field: f, W: w}
	if m.measuresQuality() {
		e.W = nil
	}
	vd := m.delta[name]
	var sum [2]uint64
	if vd != nil {
		e.W, e.Slabs = nil, &vd.slabs
		if vd.have {
			if sum = vd.key.Sum(f.Data()); sum == vd.sum {
				// Unchanged variable: re-emit the cached encoding. The copy
				// keeps callers from sharing Timings mutations with the cache.
				enc := *vd.enc
				enc.Reused = true
				return &enc, nil
			}
		}
	}
	var enc *Encoded
	var err error
	if ee, ok := m.codec.(EntryEncoder); ok {
		enc, err = ee.EncodeEntry(e)
	} else {
		enc, err = m.codec.Encode(f)
	}
	if err != nil || vd == nil || enc.SlabsTotal > 0 {
		return enc, err
	}
	if !vd.have {
		sum = vd.key.Sum(f.Data())
	}
	cached := *enc
	cached.Timings = core.Timings{}
	cached.ChunkTimings = nil
	vd.sum, vd.enc, vd.have = sum, &cached, true
	return enc, nil
}

// addReuse folds one entry's delta accounting into the report.
func (r *Report) addReuse(enc *Encoded) {
	if enc.Reused {
		r.ReusedEntries++
	}
	r.DeltaSlabsReused += enc.SlabsReused
	if enc.SlabsTotal > 0 {
		r.DeltaSlabsCompressed += enc.SlabsTotal - enc.SlabsReused
	}
}
