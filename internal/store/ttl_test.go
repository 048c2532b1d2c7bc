package store

import (
	"testing"
	"time"
)

// fakeClock is an injectable wall clock for TTL tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock(sec int64) *fakeClock      { return &fakeClock{t: time.Unix(sec, 0)} }
func ttlOpts(c *fakeClock, ttl time.Duration) Options {
	return Options{Sleep: noSleep, Now: c.now, TTL: ttl, Keep: -1}
}

func TestTTLStampSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock(1_000_000)
	s := openTest(t, dir, ttlOpts(clk, time.Hour))
	gen, err := s.Commit(1, payload(1, 256))
	if err != nil {
		t.Fatal(err)
	}
	want := clk.t.Add(time.Hour).Unix()
	if gen.ExpireAt != want {
		t.Fatalf("ExpireAt = %d, want %d", gen.ExpireAt, want)
	}
	// The stamp must round-trip through the versioned manifest.
	s2 := openTest(t, dir, Options{Sleep: noSleep})
	if s2.Rebuilt() {
		t.Fatal("TTL manifest did not decode on reopen")
	}
	g, ok := s2.Record(gen.Seq)
	if !ok || g.ExpireAt != want {
		t.Fatalf("reopened record = %+v (ok=%v), want ExpireAt %d", g, ok, want)
	}
}

// TestManifestStaysV1WithoutTTL pins the default manifest layout: with
// no expiry stamps anywhere, encode must produce the exact version-1
// image earlier releases wrote.
func TestManifestStaysV1WithoutTTL(t *testing.T) {
	m := manifest{NextSeq: 3, Gens: []Generation{{Seq: 1, Step: 10, Size: 64, CRC: 7}, {Seq: 2, Step: 20, Size: 128, CRC: 9}}}
	raw := m.encode()
	if got, want := len(raw), manifestHeader+2*manifestEntry+4; got != want {
		t.Fatalf("v1 manifest is %d bytes, want %d", got, want)
	}
	gens, next, err := DecodeManifest(raw)
	if err != nil || next != 3 || len(gens) != 2 || gens[1].ExpireAt != 0 {
		t.Fatalf("v1 round trip: gens=%v next=%d err=%v", gens, next, err)
	}

	m.Gens[0].ExpireAt = 12345
	raw2 := m.encode()
	if got, want := len(raw2), manifestHeader+2*manifestEntryV2+4; got != want {
		t.Fatalf("v2 manifest is %d bytes, want %d", got, want)
	}
	gens2, _, err := DecodeManifest(raw2)
	if err != nil || gens2[0].ExpireAt != 12345 || gens2[1].ExpireAt != 0 {
		t.Fatalf("v2 round trip: gens=%v err=%v", gens2, err)
	}
}

func TestScrubPrunesExpired(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock(1_000_000)
	s := openTest(t, dir, ttlOpts(clk, time.Minute))
	for step := 1; step <= 3; step++ {
		if _, err := s.Commit(step, payload(step, 256)); err != nil {
			t.Fatal(err)
		}
		clk.advance(10 * time.Second)
	}
	// Nothing is expired yet: scrub is a no-op.
	rep, err := s.Scrub(ScrubOptions{})
	if err != nil || len(rep.Expired) != 0 {
		t.Fatalf("premature expiry: %+v err=%v", rep.Expired, err)
	}
	// Jump past every TTL (plus the default 30s skew): gens 1 and 2 go,
	// gen 3 survives as the newest verified generation.
	clk.advance(2 * time.Hour)
	rep, err = s.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Expired) != 2 || rep.Expired[0] != 1 || rep.Expired[1] != 2 {
		t.Fatalf("Expired = %v, want [1 2]", rep.Expired)
	}
	gens := s.Generations()
	if len(gens) != 1 || gens[0].Seq != 3 {
		t.Fatalf("survivors = %+v, want only gen 3", gens)
	}
	if _, err := s.ReadGeneration(3); err != nil {
		t.Fatalf("newest generation must stay readable: %v", err)
	}
	// The pruned payloads are destroyed, and a reopen agrees.
	s2 := openTest(t, dir, Options{Sleep: noSleep})
	if g := s2.Generations(); len(g) != 1 || g[0].Seq != 3 {
		t.Fatalf("reopened survivors = %+v", g)
	}
}

// TestScrubSkewTolerance: a generation expired by less than the skew
// window must not be pruned — replicas with slightly disagreeing clocks
// would otherwise prune/repair ping-pong.
func TestScrubSkewTolerance(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock(1_000_000)
	s := openTest(t, dir, ttlOpts(clk, time.Minute))
	if _, err := s.Commit(1, payload(1, 128)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(2, payload(2, 128)); err != nil {
		t.Fatal(err)
	}
	// 10s past gen 1's expiry but inside the 30s skew window.
	clk.advance(time.Minute + 10*time.Second)
	rep, err := s.Scrub(ScrubOptions{})
	if err != nil || len(rep.Expired) != 0 {
		t.Fatalf("pruned inside skew window: %+v err=%v", rep.Expired, err)
	}
	// 31s past expiry: outside the window, pruned.
	clk.advance(21 * time.Second)
	rep, err = s.Scrub(ScrubOptions{})
	if err != nil || len(rep.Expired) != 1 || rep.Expired[0] != 1 {
		t.Fatalf("Expired = %v err=%v, want [1]", rep.Expired, err)
	}
}

// TestTTLKeepInteraction: the keep ring still prunes at commit time;
// TTL prunes the rest at scrub time; together the retained set is the
// intersection of both policies (plus the newest-survivor guarantee).
func TestTTLKeepInteraction(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock(1_000_000)
	opts := ttlOpts(clk, time.Minute)
	opts.Keep = 3
	s := openTest(t, dir, opts)
	for step := 1; step <= 5; step++ {
		if _, err := s.Commit(step, payload(step, 128)); err != nil {
			t.Fatal(err)
		}
		clk.advance(time.Second)
	}
	if gens := s.Generations(); len(gens) != 3 {
		t.Fatalf("keep ring holds %d generations, want 3", len(gens))
	}
	clk.advance(time.Hour)
	rep, err := s.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Expired) != 2 {
		t.Fatalf("Expired = %v, want the 2 non-newest ring members", rep.Expired)
	}
	gens := s.Generations()
	if len(gens) != 1 || gens[0].Seq != 5 {
		t.Fatalf("survivors = %+v, want only gen 5", gens)
	}
}

// TestScrubNeverPrunesNewestEvenIfExpired pins the fail-safe: a fully
// expired store still restores from its newest generation.
func TestScrubNeverPrunesNewestEvenIfExpired(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock(1_000_000)
	s := openTest(t, dir, ttlOpts(clk, time.Second))
	if _, err := s.Commit(1, payload(1, 128)); err != nil {
		t.Fatal(err)
	}
	clk.advance(24 * time.Hour)
	for pass := 0; pass < 3; pass++ {
		rep, err := s.Scrub(ScrubOptions{})
		if err != nil || len(rep.Expired) != 0 {
			t.Fatalf("pass %d pruned the last generation: %+v err=%v", pass, rep.Expired, err)
		}
	}
	if _, err := s.ReadGeneration(1); err != nil {
		t.Fatalf("newest generation gone: %v", err)
	}
}

// TestReplicatedTTLStampIdentical: the coordinator assigns one expiry
// for the whole fan-out, so replica records stay byte-identical and
// quorum reads keep working under TTL.
func TestReplicatedTTLStampIdentical(t *testing.T) {
	root := t.TempDir()
	clk := newFakeClock(1_000_000)
	opts := ttlOpts(clk, time.Hour)
	r, err := OpenReplicated(root, ReplicaDirs(root, 3), 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := r.Commit(1, payload(1, 256))
	if err != nil {
		t.Fatal(err)
	}
	r.Wait()
	want := clk.t.Add(time.Hour).Unix()
	if gen.ExpireAt != want {
		t.Fatalf("quorum record ExpireAt = %d, want %d", gen.ExpireAt, want)
	}
	for i := 0; i < r.Replicas(); i++ {
		st, _ := r.Replica(i)
		g, ok := st.Record(gen.Seq)
		if !ok || g != gen {
			t.Fatalf("replica %d record %+v diverges from quorum %+v", i, g, gen)
		}
	}
	if d := r.Divergence(); d != 0 {
		t.Fatalf("divergence = %d after TTL commit", d)
	}
}

// TestRescanPreservesExpireAt: losing the manifest must not turn the
// expiry stamps into prune orders or lose them silently — a rescan
// keeps the stamp when the payload still matches the old record.
func TestRescanPreservesExpireAt(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock(1_000_000)
	s := openTest(t, dir, ttlOpts(clk, time.Hour))
	gen, err := s.Commit(1, payload(1, 256))
	if err != nil {
		t.Fatal(err)
	}
	// Force a rescan through the scrub path (manifest intact): the
	// rebuilt index must carry the stamp forward.
	s.mu.Lock()
	if err := s.rescan(0); err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	g := s.man.Gens[0]
	s.mu.Unlock()
	if g.Seq != gen.Seq || g.ExpireAt != gen.ExpireAt {
		t.Fatalf("rescan record = %+v, want ExpireAt %d", g, gen.ExpireAt)
	}
}
