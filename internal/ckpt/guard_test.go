package ckpt

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"lossyckpt/internal/guard"
	"lossyckpt/internal/stats"
	"lossyckpt/internal/store"
)

// guardManager builds a Manager over the guard codec with the given
// base policy.
func guardManager(pol guard.Policy, workers int) *Manager {
	return NewManager(NewGuard(pol), workers)
}

// TestGuardRestoreReportsBound is the restore-side guarantee contract:
// a generation checkpointed under an enforced bound restores with every
// entry annotated, and the decoded data actually honors the bound the
// annotation advertises.
func TestGuardRestoreReportsBound(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 3)
	const bound = 1e-3
	mgr := guardManager(guard.Policy{MaxAbs: bound, Verify: guard.VerifyDecode}, 2)
	fields := registerSample(t, mgr)
	want := snapshot(fields)

	crep, _, err := mgr.CheckpointTo(st, 11)
	if err != nil {
		t.Fatalf("CheckpointTo: %v", err)
	}
	for _, e := range crep.Entries {
		if e.Guarantee == nil {
			t.Fatalf("checkpoint entry %q has no guarantee", e.Name)
		}
		if !e.Guarantee.Guaranteed() {
			t.Fatalf("entry %q not guaranteed under enforced policy: %+v", e.Name, e.Guarantee)
		}
	}

	scramble(fields)
	res, err := mgr.RestoreLatest(st)
	if err != nil {
		t.Fatalf("RestoreLatest: %v", err)
	}
	for _, e := range res.Report.Entries {
		g := e.Guarantee
		if g == nil {
			t.Fatalf("restore entry %q lost its guarantee annotation", e.Name)
		}
		if g.MaxAbs != bound {
			t.Fatalf("restore entry %q reports bound %v, want %v", e.Name, g.MaxAbs, bound)
		}
		if g.String() == "" {
			t.Fatalf("entry %q guarantee renders empty", e.Name)
		}
	}
	// The restored data really is within the advertised bound.
	for name, f := range fields {
		maxAbs, err := stats.MaxAbsError(want[name], f.Data())
		if err != nil {
			t.Fatal(err)
		}
		if maxAbs > bound {
			t.Fatalf("%s restored with error %v > declared bound %v", name, maxAbs, bound)
		}
	}
}

// TestGuardLosslessFallbackRestoresBitExact: non-finite data forces the
// guard down to the gzip-only rung; the generation must restore
// bit-identically and say so in its annotation.
func TestGuardLosslessFallbackRestoresBitExact(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 3)
	mgr := guardManager(guard.Policy{MaxAbs: 1e-6, Verify: guard.VerifyAnalytic}, 1)

	f := smoothField(24, 18)
	f.Data()[7] = math.NaN()
	f.Data()[100] = math.Inf(1)
	if err := mgr.Register("poisoned", f); err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), f.Data()...)

	crep, _, err := mgr.CheckpointTo(st, 1)
	if err != nil {
		t.Fatalf("CheckpointTo: %v", err)
	}
	g := crep.Entries[0].Guarantee
	if g == nil || g.Mode != guard.Lossless {
		t.Fatalf("non-finite data guarantee = %+v, want lossless fallback", g)
	}

	for i := range f.Data() {
		f.Data()[i] = -1
	}
	res, err := mgr.RestoreLatest(st)
	if err != nil {
		t.Fatalf("RestoreLatest: %v", err)
	}
	rg := res.Report.Entries[0].Guarantee
	if rg == nil || rg.Mode != guard.Lossless {
		t.Fatalf("restore reports %+v, want lossless", rg)
	}
	for i, v := range f.Data() {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("lossless-fallback restore not bit-exact at %d: %x != %x",
				i, math.Float64bits(v), math.Float64bits(want[i]))
		}
	}
}

// TestLoadLatestCarriesGuarantee: the registration-free loader surfaces
// annotations too.
func TestLoadLatestCarriesGuarantee(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 3)
	mgr := guardManager(guard.Policy{PSNRFloor: 60, Verify: guard.VerifyDecode}, 1)
	registerSample(t, mgr)
	if _, _, err := mgr.CheckpointTo(st, 3); err != nil {
		t.Fatal(err)
	}
	lc, err := LoadLatest(st, 1)
	if err != nil {
		t.Fatalf("LoadLatest: %v", err)
	}
	for _, lf := range lc.Fields {
		if lf.Guarantee == nil {
			t.Fatalf("loaded field %q has no guarantee", lf.Name)
		}
		if lf.Guarantee.PSNRFloor != 60 {
			t.Fatalf("loaded field %q PSNR floor %v, want 60", lf.Name, lf.Guarantee.PSNRFloor)
		}
	}
}

// TestInspectAndVerifyStream covers the registration-free auditors the
// store scrubber plugs in, over the stream Checkpoint writes and over the
// same arrays in the v1 layout.
func TestInspectAndVerifyStream(t *testing.T) {
	mgr := guardManager(guard.Policy{MaxAbs: 1e-2}, 1)
	registerSample(t, mgr)
	var buf bytes.Buffer
	if _, err := mgr.Checkpoint(&buf, 9); err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{buf.Bytes(), v1Stream(t, mgr, 9)} {
		info, err := InspectStream(data)
		if err != nil {
			t.Fatalf("InspectStream: %v", err)
		}
		if info.Codec != "guard" || info.Step != 9 || len(info.Entries) != 3 {
			t.Fatalf("info %+v", info)
		}
		for _, e := range info.Entries {
			if e.Guarantee == nil || !e.Guarantee.Guaranteed() {
				t.Fatalf("inspected entry %q guarantee %+v", e.Name, e.Guarantee)
			}
		}
		if err := VerifyStream(data, false, 1); err != nil {
			t.Fatalf("VerifyStream(frame-level): %v", err)
		}
		if err := VerifyStream(data, true, 1); err != nil {
			t.Fatalf("VerifyStream(decode): %v", err)
		}

		// Any flipped byte in the stream must be caught by frame CRCs.
		corrupt := append([]byte(nil), data...)
		corrupt[len(corrupt)/2] ^= 0x40
		if err := VerifyStream(corrupt, false, 1); err == nil {
			t.Fatal("VerifyStream accepted a flipped byte")
		}
	}
	if err := VerifyStream(nil, false, 1); err == nil {
		t.Fatal("VerifyStream accepted an empty stream")
	}
}

// TestScrubWithStoreVerifier wires ckpt.StoreVerifier into store.Scrub:
// a generation whose manifest CRC is intact (committed that way) but
// whose content is not a valid checkpoint stream is quarantined with
// reason "verify" — corruption the store's own size/CRC check cannot
// see.
func TestScrubWithStoreVerifier(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 3)
	mgr := guardManager(guard.Policy{MaxAbs: 1e-3}, 1)
	registerSample(t, mgr)
	if _, _, err := mgr.CheckpointTo(st, 1); err != nil {
		t.Fatal(err)
	}
	// Commit junk as a "generation": the store happily CRCs it, only the
	// stream-level verifier knows it is not a checkpoint.
	if _, err := st.Commit(2, []byte("not a checkpoint stream at all")); err != nil {
		t.Fatal(err)
	}

	rep, err := st.Scrub(store.ScrubOptions{Verify: StoreVerifier(true, 1)})
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Seq != 2 || rep.Quarantined[0].Reason != "verify" {
		t.Fatalf("scrub report %+v, want gen 2 quarantined with reason verify", rep)
	}
	if !rep.ManifestRebuilt {
		t.Fatal("newest generation quarantined but manifest not rebuilt")
	}
	// The good guard generation survived and still restores.
	if _, err := mgr.RestoreLatest(st); err != nil {
		t.Fatalf("RestoreLatest after scrub: %v", err)
	}
	if _, err := filepath.Glob(filepath.Join(dir, store.QuarantineDir, "*")); err != nil {
		t.Fatal(err)
	}
}

// TestGuardCodecByName: the registry knows the guard codec so
// registration-free loaders can decode guard streams.
func TestGuardCodecByName(t *testing.T) {
	c, err := CodecByName("guard")
	if err != nil {
		t.Fatalf("CodecByName(guard): %v", err)
	}
	if c.Name() != "guard" || c.Lossless() {
		t.Fatalf("guard codec identity: name=%q lossless=%v", c.Name(), c.Lossless())
	}
	// CodecNames is the list the CLI's help prints: each name on it resolves
	// to the codec of that name, and the error for any other prints it.
	for _, name := range strings.Split(CodecNames, ", ") {
		if c, err := CodecByName(name); err != nil || c.Name() != name {
			t.Errorf("CodecByName(%q) = %v, %v", name, c, err)
		}
	}
	if _, err := CodecByName("nonesuch"); !errors.Is(err, ErrCodec) || !strings.Contains(err.Error(), CodecNames) {
		t.Fatalf("unknown codec error = %v", err)
	}
}

// TestEntryGuaranteeSniff: non-guard payloads and corrupt envelopes
// yield nil, never an error.
func TestEntryGuaranteeSniff(t *testing.T) {
	if g := entryGuarantee([]byte("plain gzip payload")); g != nil {
		t.Fatalf("non-envelope payload sniffed as %+v", g)
	}
	c := NewGuard(guard.Policy{MaxAbs: 1e-2})
	f := smoothField(16, 16)
	enc, err := c.EncodeEntry(Entry{Name: "x", Field: f})
	if err != nil {
		t.Fatal(err)
	}
	if g := entryGuarantee(enc.Payload); g == nil || g.MaxAbs != 1e-2 {
		t.Fatalf("sniffed %+v, want MaxAbs 1e-2", g)
	}
	bad := append([]byte(nil), enc.Payload...)
	bad[len(bad)-1] ^= 0xFF // break the envelope CRC
	if g := entryGuarantee(bad); g != nil {
		t.Fatalf("corrupt envelope sniffed as %+v", g)
	}
}
