// delta.go is the manager half of delta checkpointing. With
// Manager.SetDelta(true), each checkpoint fingerprints every registered
// array against the previous checkpoint and skips the compression work
// that cannot have changed:
//
//   - codecs implementing DeltaEncoder (the chunked lossy pipeline)
//     reuse per-slab compressed frames through a core.SlabCache, so
//     compression CPU scales with the mutated fraction of each array;
//   - every other codec gets whole-variable reuse — an unchanged array
//     re-emits its cached compressed payload without encoding at all.
//
// Either way the emitted stream is byte-identical to a non-delta
// checkpoint of the same state (per-slab and per-array compression are
// deterministic), so restore, verification and the store layer are
// untouched. Restore invalidates all caches: the live state jumped to a
// checkpoint, and the next delta must re-baseline against it.
package ckpt

import (
	"crypto/sha256"

	"lossyckpt/internal/core"
	"lossyckpt/internal/grid"
)

// DeltaEncoder is an optional Codec extension for codecs that can reuse
// slab-level compression work between checkpoints of the same variable.
type DeltaEncoder interface {
	// DeltaCapable reports whether this configuration actually supports
	// slab reuse (e.g. the lossy codec only in chunked mode). When false
	// the manager falls back to whole-variable reuse.
	DeltaCapable() bool
	// EncodeNamedDelta is EncodeNamed with a slab cache carried between
	// calls: clean slabs re-emit their cached frame, dirty slabs run the
	// pipeline. The payload must be byte-identical to EncodeNamed's.
	EncodeNamedDelta(name string, f *grid.Field, cache *core.SlabCache) (*Encoded, error)
}

// DeltaCapable implements DeltaEncoder: slab reuse requires the chunked
// engine — whole-array streams have no per-slab frames to reuse.
func (c *Lossy) DeltaCapable() bool { return c.ChunkExtent > 0 }

// EncodeNamedDelta implements DeltaEncoder.
func (c *Lossy) EncodeNamedDelta(name string, f *grid.Field, cache *core.SlabCache) (*Encoded, error) {
	if c.ChunkExtent <= 0 {
		return c.EncodeNamed(name, f)
	}
	opts := c.optionsFor(name, f)
	res, err := core.CompressChunkedDelta(f, opts, c.ChunkExtent, cache)
	if err != nil {
		return nil, err
	}
	enc := &Encoded{
		Payload:      res.Data,
		RawBytes:     res.RawBytes,
		Timings:      res.Timings,
		ChunkTimings: res.PerChunk,
		SlabsReused:  res.SlabsReused,
		SlabsTotal:   res.Chunks,
	}
	c.annotate(enc, opts)
	c.feedback(name, enc)
	return enc, nil
}

// varDelta is one variable's carried-over state: the slab cache for
// DeltaEncoder codecs, or the whole-array fingerprint plus cached
// encoding for everything else.
type varDelta struct {
	slabs core.SlabCache
	sum   [sha256.Size]byte
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
			m.delta[name] = &varDelta{}
		}
	}
}

// encodeDelta encodes one variable under delta rules. vd must be this
// variable's slot (non-nil); de is the codec's DeltaEncoder extension
// or nil. Exactly one goroutine touches one vd, so no locking.
func (m *Manager) encodeDelta(name string, f *grid.Field, vd *varDelta, de DeltaEncoder) (*Encoded, error) {
	if de != nil && de.DeltaCapable() {
		// Slab-level reuse: the cache fingerprints per slab, a
		// whole-variable fingerprint would just hash everything twice.
		return de.EncodeNamedDelta(name, f, &vd.slabs)
	}
	sum := sha256.Sum256(grid.FloatBytes(f.Data())) // the array hashed where it lies
	if vd.have && vd.sum == sum {
		// Unchanged variable: re-emit the cached encoding. The copy keeps
		// callers from sharing Timings mutations with the cache.
		enc := *vd.enc
		enc.Reused = true
		return &enc, nil
	}
	enc, err := m.encodePlain(name, f)
	if err != nil {
		return nil, err
	}
	if enc.Payload == nil {
		// Whole-entry reuse needs the payload bytes; a codec that only
		// streams cannot be cached. Serve the encode, skip the cache.
		return enc, nil
	}
	cached := *enc
	cached.Timings = core.Timings{}
	cached.ChunkTimings = nil
	vd.sum = sum
	vd.enc = &cached
	vd.have = true
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

// encodePlain is the non-delta single-variable encode (buffered).
func (m *Manager) encodePlain(name string, f *grid.Field) (*Encoded, error) {
	if named, ok := m.codec.(NamedEncoder); ok {
		return named.EncodeNamed(name, f)
	}
	return m.codec.Encode(f)
}
