// Package incr implements incremental checkpointing — storing only the
// difference against the previous checkpoint — the alternative
// size-reduction technique the reproduced paper's introduction dismisses
// for mesh-based scientific applications: "the effectiveness of these
// approaches are limited in real applications … since the majority of the
// memory footprint is frequently updated" (§I, citing Plank et al. and
// Sancho et al.). Experiment X11 (DESIGN.md) quantifies that claim by
// comparing incremental against lossy compression on the climate workload
// (where every value changes every step) and on a sparse-update workload
// (where incremental shines).
//
// The Tracker keeps, per registered array, the value bits of the last
// checkpoint. A diff XORs current against previous bits — unchanged
// values become zero words, which DEFLATE collapses — and updates the
// baseline. Diffs are strictly ordered: each one applies on top of the
// previous, so restoring checkpoint k requires replaying diffs 1…k, the
// restart-cost drawback the paper's §V also notes.
package incr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"lossyckpt/internal/entropy"
	"lossyckpt/internal/grid"
)

// Errors returned by this package.
var (
	ErrUnknown  = errors.New("incr: unknown array")
	ErrSequence = errors.New("incr: diff applied out of sequence")
	ErrFormat   = errors.New("incr: malformed diff")
)

// Tracker produces and applies incremental checkpoints for a set of named
// arrays. It is not safe for concurrent use.
type Tracker struct {
	level int
	base  map[string][]uint64
	seq   map[string]uint64
}

// NewTracker returns a tracker compressing diffs at the given DEFLATE
// level (use gzipio.Default normally).
func NewTracker(level int) *Tracker {
	return &Tracker{
		level: level,
		base:  make(map[string][]uint64),
		seq:   make(map[string]uint64),
	}
}

// diff layout (little-endian):
//
//	uint64 sequence number (1 for the first diff after Register)
//	uint64 element count
//	gzip(XOR words)
const diffHeader = 16

// Register records the array's current content as the baseline. The first
// EncodeDiff after Register emits diff #1 against this state.
func (t *Tracker) Register(name string, f *grid.Field) {
	words := make([]uint64, f.Len())
	for i, v := range f.Data() {
		words[i] = math.Float64bits(v)
	}
	t.base[name] = words
	t.seq[name] = 0
}

// Registered reports whether name has a baseline.
func (t *Tracker) Registered(name string) bool {
	_, ok := t.base[name]
	return ok
}

// Rebase resets name's baseline to the array's current content and
// restarts its diff chain at sequence 0 — the escape hatch from the
// replay-cost drawback: after a full (non-incremental) checkpoint or a
// restore, the next EncodeDiff is #1 against the fresh state instead of
// extending an ever-longer chain. Unlike Register it refuses unknown
// names, so a typo cannot silently fork a second chain.
func (t *Tracker) Rebase(name string, f *grid.Field) error {
	if _, ok := t.base[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	t.Register(name, f)
	return nil
}

// EncodeDiff produces the incremental checkpoint of the array against the
// last baseline and advances the baseline to the current content.
func (t *Tracker) EncodeDiff(name string, f *grid.Field) ([]byte, error) {
	base, ok := t.base[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	if len(base) != f.Len() {
		return nil, fmt.Errorf("incr: %q changed size: baseline %d, field %d", name, len(base), f.Len())
	}
	xored := make([]byte, 8*len(base))
	for i, v := range f.Data() {
		bits := math.Float64bits(v)
		binary.LittleEndian.PutUint64(xored[8*i:], bits^base[i])
		base[i] = bits
	}
	gz, err := entropy.Compress(xored, entropy.Params{GzipLevel: t.level})
	if err != nil {
		return nil, err
	}
	t.seq[name]++
	out := make([]byte, diffHeader+len(gz.Compressed))
	binary.LittleEndian.PutUint64(out[0:], t.seq[name])
	binary.LittleEndian.PutUint64(out[8:], uint64(len(base)))
	copy(out[diffHeader:], gz.Compressed)
	return out, nil
}

// Restorer replays a chain of diffs on top of a baseline to reconstruct
// the state at any checkpoint. It is the decode-side counterpart of
// Tracker and is not safe for concurrent use.
type Restorer struct {
	state map[string][]uint64
	seq   map[string]uint64
}

// NewRestorer starts from the same baseline contents the Tracker was
// registered with.
func NewRestorer() *Restorer {
	return &Restorer{
		state: make(map[string][]uint64),
		seq:   make(map[string]uint64),
	}
}

// Register records the baseline state for name (the content the matching
// Tracker.Register saw).
func (r *Restorer) Register(name string, f *grid.Field) {
	words := make([]uint64, f.Len())
	for i, v := range f.Data() {
		words[i] = math.Float64bits(v)
	}
	r.state[name] = words
	r.seq[name] = 0
}

// Rebase resets name's reconstructed state to the array's current
// content and restarts the expected diff sequence at 0 — the restore
// side of Tracker.Rebase. It refuses unknown names.
func (r *Restorer) Rebase(name string, f *grid.Field) error {
	if _, ok := r.state[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	r.Register(name, f)
	return nil
}

// ApplyDiff advances the named state by one diff. Diffs must be applied in
// the order they were encoded.
func (r *Restorer) ApplyDiff(name string, diff []byte) error {
	state, ok := r.state[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	if len(diff) < diffHeader {
		return fmt.Errorf("%w: %d bytes", ErrFormat, len(diff))
	}
	seq := binary.LittleEndian.Uint64(diff[0:])
	count := binary.LittleEndian.Uint64(diff[8:])
	if seq != r.seq[name]+1 {
		return fmt.Errorf("%w: %q diff #%d after #%d", ErrSequence, name, seq, r.seq[name])
	}
	if count != uint64(len(state)) {
		return fmt.Errorf("%w: %q diff covers %d elements, state has %d", ErrFormat, name, count, len(state))
	}
	xored, err := entropy.Decompress(diff[diffHeader:], 1)
	if err != nil {
		return err
	}
	if len(xored) != 8*len(state) {
		return fmt.Errorf("%w: %q payload %d bytes for %d elements", ErrFormat, name, len(xored), len(state))
	}
	for i := range state {
		state[i] ^= binary.LittleEndian.Uint64(xored[8*i:])
	}
	r.seq[name] = seq
	return nil
}

// State writes the current reconstructed values of name into f, which must
// have the registered length.
func (r *Restorer) State(name string, f *grid.Field) error {
	state, ok := r.state[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	if f.Len() != len(state) {
		return fmt.Errorf("incr: %q state has %d elements, field %d", name, len(state), f.Len())
	}
	for i, w := range state {
		f.Data()[i] = math.Float64frombits(w)
	}
	return nil
}
