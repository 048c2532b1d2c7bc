package ckpt

import (
	"bytes"
	"io"
	"math"
	"testing"

	"lossyckpt/internal/grid"
)

// deltaManager builds a manager over two smooth 3-D fields.
func deltaManager(t *testing.T, codec Codec) (*Manager, *grid.Field, *grid.Field) {
	t.Helper()
	m := NewManager(codec, 2)
	mk := func(phase float64) *grid.Field {
		f, err := grid.New(16, 10, 8)
		if err != nil {
			t.Fatal(err)
		}
		d := f.Data()
		for i := range d {
			d[i] = math.Sin(float64(i)/53.0 + phase)
		}
		return f
	}
	a, b := mk(0), mk(1.5)
	if err := m.Register("temp", a); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("vel", b); err != nil {
		t.Fatal(err)
	}
	return m, a, b
}

// TestDeltaCheckpointByteIdentical: with delta on, checkpoints must produce
// byte-identical output to a delta-off manager over the same state — cold,
// clean re-checkpoint, and after a sparse mutation — and restore.
func TestDeltaCheckpointByteIdentical(t *testing.T) {
	lossy := func() *Lossy {
		c := NewLossy()
		c.ChunkExtent = 4
		return c
	}
	mDelta, a, _ := deltaManager(t, lossy())
	mPlain, pa, _ := deltaManager(t, lossy())
	mDelta.SetDelta(true)

	snapshot := func(m *Manager) []byte {
		var buf bytes.Buffer
		if _, err := m.Checkpoint(&buf, 1); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// Cold: everything compresses, identical output.
	d0, p0 := snapshot(mDelta), snapshot(mPlain)
	if !bytes.Equal(d0, p0) {
		t.Fatal("cold delta checkpoint differs from plain")
	}

	// Clean re-checkpoint (same step: it is in the header): full reuse,
	// still identical.
	var buf bytes.Buffer
	rep, err := mDelta.Checkpoint(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeltaSlabsReused == 0 || rep.DeltaSlabsCompressed != 0 {
		t.Fatalf("clean re-checkpoint: reused %d, compressed %d", rep.DeltaSlabsReused, rep.DeltaSlabsCompressed)
	}
	if !bytes.Equal(buf.Bytes(), snapshot(mPlain)) {
		t.Fatal("reused checkpoint differs from plain")
	}

	// Sparse mutation: one slab of one variable dirtied.
	planeElems := a.Len() / 16
	for i := 0; i < planeElems; i++ {
		a.Data()[i] += 0.25
		pa.Data()[i] += 0.25
	}
	var mbuf bytes.Buffer
	mrep, err := mDelta.Checkpoint(&mbuf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mbuf.Bytes(), snapshot(mPlain)) {
		t.Fatal("mutated delta checkpoint differs from plain")
	}
	if mrep.DeltaSlabsCompressed != 1 {
		t.Fatalf("one dirty slab but %d compressed (%d reused)", mrep.DeltaSlabsCompressed, mrep.DeltaSlabsReused)
	}

	// A later step reuses everything and restores.
	var sbuf bytes.Buffer
	srep, err := mDelta.Checkpoint(&sbuf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if srep.DeltaSlabsReused == 0 {
		t.Fatal("the later delta checkpoint reused nothing")
	}
	// Restore the stream into a fresh manager: byte-correct state.
	mR, ra, rb := deltaManager(t, lossy())
	_ = rb
	if _, err := mR.Restore(bytes.NewReader(sbuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !ra.SameShape(a) {
		t.Fatal("restored shape mismatch")
	}
}

// TestDeltaWholeEntryReuse: codecs without slab support (gzip) reuse
// whole unchanged variables, skipping their encode entirely.
func TestDeltaWholeEntryReuse(t *testing.T) {
	m, a, _ := deltaManager(t, NewGzip())
	m.SetDelta(true)

	var b1 bytes.Buffer
	if _, err := m.Checkpoint(&b1, 1); err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	rep, err := m.Checkpoint(&b2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReusedEntries != 2 {
		t.Fatalf("clean re-checkpoint reused %d entries, want 2", rep.ReusedEntries)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("reused checkpoint differs")
	}
	for _, e := range rep.Entries {
		if !e.Reused {
			t.Fatalf("entry %s not marked reused", e.Name)
		}
		if e.Timings.Gzip != 0 {
			t.Fatalf("reused entry %s reports encode CPU", e.Name)
		}
	}

	// Mutate one variable: exactly one entry re-encodes.
	a.Data()[0] += 1
	var b3 bytes.Buffer
	rep3, err := m.Checkpoint(&b3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.ReusedEntries != 1 {
		t.Fatalf("one mutated variable but %d entries reused", rep3.ReusedEntries)
	}

	// The stream restores byte-correct (lossless codec).
	before := append([]float64(nil), a.Data()...)
	a.Apply(func(float64) float64 { return -7 })
	if _, err := m.Restore(bytes.NewReader(b3.Bytes())); err != nil {
		t.Fatal(err)
	}
	for i, v := range a.Data() {
		if v != before[i] {
			t.Fatalf("restored[%d] = %v, want %v", i, v, before[i])
		}
	}
}

// TestDeltaResetOnRestore: a restore invalidates the baseline, so the
// next checkpoint recompresses (correctness over reuse) and delta
// re-engages on the one after.
func TestDeltaResetOnRestore(t *testing.T) {
	lossy := NewLossy()
	lossy.ChunkExtent = 4
	m, _, _ := deltaManager(t, lossy)
	m.SetDelta(true)

	var b1 bytes.Buffer
	if _, err := m.Checkpoint(&b1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Restore(bytes.NewReader(b1.Bytes())); err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	rep, err := m.Checkpoint(&b2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeltaSlabsReused != 0 {
		t.Fatalf("post-restore checkpoint reused %d slabs from a stale cache", rep.DeltaSlabsReused)
	}
	var b3 bytes.Buffer
	rep3, err := m.Checkpoint(&b3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.DeltaSlabsReused == 0 {
		t.Fatal("delta did not re-engage after re-baselining")
	}
	if !bytes.Equal(b2.Bytes(), b3.Bytes()) {
		t.Fatal("clean re-checkpoint after restore differs")
	}
}

// TestDeltaDisabled: SetDelta(false) drops state and restores the plain
// path (no reuse accounting).
func TestDeltaDisabled(t *testing.T) {
	m, _, _ := deltaManager(t, NewGzip())
	m.SetDelta(true)
	var b bytes.Buffer
	if _, err := m.Checkpoint(&b, 1); err != nil {
		t.Fatal(err)
	}
	m.SetDelta(false)
	if m.DeltaEnabled() {
		t.Fatal("delta still enabled")
	}
	var b2 bytes.Buffer
	rep, err := m.Checkpoint(&b2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReusedEntries != 0 || rep.DeltaSlabsReused != 0 {
		t.Fatalf("delta-off checkpoint reports reuse: %+v", rep)
	}
	if !bytes.Equal(b.Bytes(), b2.Bytes()) {
		t.Fatal("delta on/off outputs differ")
	}
}

// TestDeltaLosslessRoundTripAllCodecs: every generation of a mutating
// series restores byte-correct through a delta manager (core acceptance:
// delta must never change restored bytes).
func TestDeltaLosslessRoundTripAllCodecs(t *testing.T) {
	for _, name := range []string{"none", "gzip", "fpc"} {
		t.Run(name, func(t *testing.T) {
			codec, err := CodecByName(name)
			if err != nil {
				t.Fatal(err)
			}
			m, a, b := deltaManager(t, codec)
			m.SetDelta(true)
			var gens [][]byte
			var states [][]float64
			for step := 0; step < 4; step++ {
				if step > 0 {
					// Sparse mutation: one plane of one variable.
					plane := a.Len() / 16
					for i := step * plane; i < (step+1)*plane; i++ {
						a.Data()[i] *= 1.01
					}
				}
				var buf bytes.Buffer
				if _, err := m.Checkpoint(&buf, step); err != nil {
					t.Fatal(err)
				}
				gens = append(gens, buf.Bytes())
				snap := append([]float64(nil), a.Data()...)
				snap = append(snap, b.Data()...)
				states = append(states, snap)
			}
			for gi, g := range gens {
				if _, err := m.Restore(bytes.NewReader(g)); err != nil {
					t.Fatalf("restore gen %d: %v", gi, err)
				}
				got := append([]float64(nil), a.Data()...)
				got = append(got, b.Data()...)
				for i, v := range got {
					if v != states[gi][i] {
						t.Fatalf("gen %d element %d: %v != %v", gi, i, v, states[gi][i])
					}
				}
			}
		})
	}
}

// TestDeltaWholeArrayFingerprint: under a whole-array codec, a change the
// fingerprint must see however small — one ULP at the last element, +0 to −0,
// one NaN payload for another — re-encodes the variable instead of reusing it,
// and the checkpoint is a delta-off manager's. A restore re-baselines with new
// seeds, and the caches reuse again from the save after it.
func TestDeltaWholeArrayFingerprint(t *testing.T) {
	m, a, b := deltaManager(t, NewGzip())
	plain, pa, pb := deltaManager(t, NewGzip())
	m.SetDelta(true)
	last := a.Len() - 1
	for _, f := range []*grid.Field{a, pa} {
		f.Data()[10], f.Data()[20] = 0, math.Float64frombits(0x7ff8_0000_0000_0001)
	}
	copy(pb.Data(), b.Data())
	save := func(what string, wantReused bool) []byte {
		t.Helper()
		var got, want bytes.Buffer
		rep, err := m.Checkpoint(&got, 1)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if _, err := plain.Checkpoint(&want, 1); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: delta checkpoint differs from delta-off", what)
		}
		if e := rep.Entries[0]; e.Name != "temp" || e.Reused != wantReused || !rep.Entries[1].Reused {
			t.Fatalf("%s: temp reused %v (want %v), vel reused %v", what, e.Reused, wantReused, rep.Entries[1].Reused)
		}
		return got.Bytes()
	}
	if _, err := m.Checkpoint(io.Discard, 1); err != nil { // cold: both variables encode
		t.Fatal(err)
	}
	save("clean", true)
	for _, change := range []struct {
		what string
		at   int
		to   float64
	}{
		{"one ULP at the last element", last, math.Nextafter(a.Data()[last], math.Inf(1))},
		{"+0 to -0", 10, math.Copysign(0, -1)},
		{"another NaN payload", 20, math.Float64frombits(0x7ff8_0000_0000_0002)},
	} {
		if math.Float64bits(a.Data()[change.at]) == math.Float64bits(change.to) {
			t.Fatalf("%s: the bits do not change", change.what)
		}
		a.Data()[change.at], pa.Data()[change.at] = change.to, change.to
		save(change.what, false)
		save(change.what+", again", true)
	}

	key := m.delta["temp"].key
	stream := save("before the restore", true)
	if _, err := m.Restore(bytes.NewReader(stream)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Checkpoint(io.Discard, 1); err != nil {
		t.Fatal(err)
	}
	if m.delta["temp"].key == key {
		t.Fatal("the restore kept the whole-array cache's seeds")
	}
	save("after the restore", true)
}
