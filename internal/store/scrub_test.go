package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lossyckpt/internal/obs"
)

// scrubStore opens a store over a FaultFS (so tests can corrupt files
// at rest) and commits n generations with distinguishable payloads.
func scrubStore(t *testing.T, dir string, n int, opts Options) (*Store, *FaultFS) {
	t.Helper()
	ffs := NewFaultFS(OsFS{})
	opts.FS = ffs
	s := openTest(t, dir, opts)
	for i := 1; i <= n; i++ {
		if _, err := s.Commit(i*10, payload(i, 2048)); err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
	}
	return s, ffs
}

func TestScrubCleanStore(t *testing.T) {
	dir := t.TempDir()
	s, _ := scrubStore(t, dir, 3, Options{Keep: -1})
	verifyCalls := 0
	rep, err := s.Scrub(ScrubOptions{Verify: func(data []byte) error {
		verifyCalls++
		return nil
	}})
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if !rep.Clean() || rep.Checked != 3 {
		t.Fatalf("clean store scrub = %+v, want clean with 3 checked", rep)
	}
	if verifyCalls != 3 {
		t.Fatalf("Verify called %d times, want 3", verifyCalls)
	}
	// Zero false quarantines: everything still restores.
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := s.ReadGeneration(seq); err != nil {
			t.Fatalf("gen %d unreadable after clean scrub: %v", seq, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("clean scrub created quarantine dir (stat err %v)", err)
	}
}

// TestScrubQuarantineProperty is the acceptance property: for every
// retained generation and every at-rest corruption kind, a scrub
// quarantines exactly the corrupted generation — 100% detection, zero
// false quarantines — and the file survives in quarantine/ rather than
// being deleted. Quarantining the newest generation rebuilds the
// manifest with NextSeq still monotonic.
func TestScrubQuarantineProperty(t *testing.T) {
	faults := []Fault{
		{Kind: BitFlip, FlipByte: 0, FlipBit: 0},
		{Kind: BitFlip, FlipByte: 1027, FlipBit: 6},
		{Kind: BitFlip, FlipByte: 1 << 20, FlipBit: 3}, // clamped to last byte
		{Kind: Truncate, TornBytes: 0},
		{Kind: Truncate, TornBytes: 1},
		{Kind: Truncate, TornBytes: 2047},
	}
	const nGens = 3
	for victim := uint64(1); victim <= nGens; victim++ {
		for _, fault := range faults {
			fault := fault
			t.Run(fmt.Sprintf("gen%d_%s_%d", victim, fault.Kind, fault.TornBytes+fault.FlipByte), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				s, ffs := scrubStore(t, dir, nGens, Options{Keep: -1})
				preNext := s.man.NextSeq
				if err := ffs.CorruptAtRest(filepath.Join(dir, genName(victim)), fault); err != nil {
					t.Fatalf("CorruptAtRest: %v", err)
				}
				rep, err := s.Scrub(ScrubOptions{})
				if err != nil {
					t.Fatalf("Scrub: %v", err)
				}
				if len(rep.Quarantined) != 1 || rep.Quarantined[0].Seq != victim {
					t.Fatalf("quarantined %+v, want exactly gen %d", rep.Quarantined, victim)
				}
				if len(rep.Missing) != 0 {
					t.Fatalf("unexpected missing gens %v", rep.Missing)
				}
				// Never deleted: the corrupt file lives on in quarantine/.
				qpath := filepath.Join(dir, rep.Quarantined[0].Path)
				if _, err := os.Stat(qpath); err != nil {
					t.Fatalf("quarantined file %s: %v", qpath, err)
				}
				// And it is out of the main directory.
				if _, err := os.Stat(filepath.Join(dir, genName(victim))); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("corrupt gen file still in store root (stat err %v)", err)
				}
				// Zero false quarantines: the survivors still verify.
				for seq := uint64(1); seq <= nGens; seq++ {
					if seq == victim {
						if _, err := s.ReadGeneration(seq); !errors.Is(err, ErrNoGeneration) {
							t.Fatalf("quarantined gen %d read = %v, want ErrNoGeneration", seq, err)
						}
						continue
					}
					got, err := s.ReadGeneration(seq)
					if err != nil {
						t.Fatalf("surviving gen %d: %v", seq, err)
					}
					if !bytes.Equal(got, payload(int(seq), 2048)) {
						t.Fatalf("surviving gen %d payload mutated", seq)
					}
				}
				if wantRebuild := victim == nGens; rep.ManifestRebuilt != wantRebuild {
					t.Fatalf("ManifestRebuilt = %v, want %v (victim %d of %d)", rep.ManifestRebuilt, wantRebuild, victim, nGens)
				}
				// NextSeq stays monotonic even across a rebuild, so a new
				// commit can never reuse the quarantined sequence number.
				gen, err := s.Commit(99, payload(9, 512))
				if err != nil {
					t.Fatalf("Commit after scrub: %v", err)
				}
				if gen.Seq < preNext {
					t.Fatalf("post-scrub commit got seq %d, want >= %d", gen.Seq, preNext)
				}
				// A second pass over the repaired store finds nothing.
				rep2, err := s.Scrub(ScrubOptions{})
				if err != nil || !rep2.Clean() {
					t.Fatalf("second scrub = %+v, %v; want clean", rep2, err)
				}
				// A fresh Open agrees with the scrubbed state.
				s2 := openTest(t, dir, Options{Keep: -1})
				if _, err := s2.ReadGeneration(victim); !errors.Is(err, ErrNoGeneration) {
					t.Fatalf("reopened store still indexes quarantined gen %d", victim)
				}
			})
		}
	}
}

func TestScrubVerifyCallbackQuarantines(t *testing.T) {
	dir := t.TempDir()
	s, _ := scrubStore(t, dir, 3, Options{Keep: -1})
	// The size/CRC check passes (the file is exactly what was committed);
	// only the content-level verifier knows gen 2's payload is bad.
	bad := payload(2, 2048)
	rep, err := s.Scrub(ScrubOptions{Verify: func(data []byte) error {
		if bytes.Equal(data, bad) {
			return errors.New("stream fails content verification")
		}
		return nil
	}})
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Seq != 2 || rep.Quarantined[0].Reason != "verify" {
		t.Fatalf("quarantined %+v, want gen 2 with reason verify", rep.Quarantined)
	}
}

func TestScrubMissingFileDropped(t *testing.T) {
	dir := t.TempDir()
	s, _ := scrubStore(t, dir, 3, Options{Keep: -1})
	if err := os.Remove(filepath.Join(dir, genName(2))); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if len(rep.Missing) != 1 || rep.Missing[0] != 2 || len(rep.Quarantined) != 0 {
		t.Fatalf("report %+v, want gen 2 missing and nothing quarantined", rep)
	}
	if _, err := s.ReadGeneration(2); !errors.Is(err, ErrNoGeneration) {
		t.Fatalf("missing gen still indexed: %v", err)
	}
	if _, err := s.ReadGeneration(3); err != nil {
		t.Fatalf("survivor unreadable: %v", err)
	}
}

func TestScrubQuarantineNameCollision(t *testing.T) {
	dir := t.TempDir()
	s, ffs := scrubStore(t, dir, 2, Options{Keep: -1})
	// A previous incident already parked a file under this generation's
	// quarantine name.
	qdir := filepath.Join(dir, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(qdir, genName(1)), []byte("earlier resident"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ffs.CorruptAtRest(filepath.Join(dir, genName(1)), Fault{Kind: BitFlip}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("quarantined %+v, want 1", rep.Quarantined)
	}
	want := filepath.Join(QuarantineDir, genName(1)+".1")
	if rep.Quarantined[0].Path != want {
		t.Fatalf("collision path %q, want %q", rep.Quarantined[0].Path, want)
	}
	// The earlier resident was not clobbered.
	got, err := os.ReadFile(filepath.Join(qdir, genName(1)))
	if err != nil || string(got) != "earlier resident" {
		t.Fatalf("earlier quarantine resident damaged: %q, %v", got, err)
	}
}

func TestScrubMetrics(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	defer obs.SetDefault(obs.SetDefault(reg))
	ffs := NewFaultFS(OsFS{})
	s := openTest(t, dir, Options{Keep: -1, FS: ffs})
	for i := 1; i <= 2; i++ {
		if _, err := s.Commit(i, payload(i, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ffs.CorruptAtRest(filepath.Join(dir, genName(2)), Fault{Kind: Truncate, TornBytes: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Scrub(ScrubOptions{}); err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	found := map[string]bool{}
	for _, m := range reg.Snapshot().Metrics {
		found[m.Name] = true
	}
	for _, name := range []string{MetricScrubRuns, MetricScrubChecked, MetricScrubQuarantined, MetricManifestRebuilds} {
		if !found[name] {
			t.Errorf("metric %s not recorded; have %v", name, found)
		}
	}
}

// TestScrubberConcurrentWithCommits runs the interval scrubber against a
// committing store under the race detector: the shared mutex must keep
// the manifest coherent, and a clean store must never be quarantined.
func TestScrubberConcurrentWithCommits(t *testing.T) {
	dir := t.TempDir()
	s, _ := scrubStore(t, dir, 1, Options{Keep: 4})
	var reports []*ScrubReport
	stop := s.StartScrubber(500*time.Microsecond, ScrubOptions{Verify: func(data []byte) error {
		if len(data) == 0 {
			return errors.New("empty generation")
		}
		return nil
	}})
	for i := 2; i <= 40; i++ {
		if _, err := s.Commit(i, payload(i, 1024)); err != nil {
			t.Fatalf("Commit %d under scrubber: %v", i, err)
		}
		if i%10 == 0 {
			rep, err := s.Scrub(ScrubOptions{})
			if err != nil {
				t.Fatalf("inline Scrub: %v", err)
			}
			reports = append(reports, rep)
		}
	}
	// Give the interval scrubber at least one firing.
	time.Sleep(5 * time.Millisecond)
	stop()
	stop() // idempotent
	for _, rep := range reports {
		if !rep.Clean() {
			t.Fatalf("clean store scrub under load reported %+v", rep)
		}
	}
	latest, ok := s.Latest()
	if !ok || latest.Seq != 40 {
		t.Fatalf("latest = %+v ok=%v, want seq 40", latest, ok)
	}
	if _, err := s.ReadGeneration(latest.Seq); err != nil {
		t.Fatalf("latest unreadable after scrubber run: %v", err)
	}
}

// TestScrubberCatchesRot proves the interval scrubber (not just manual
// passes) detects at-rest corruption.
func TestScrubberCatchesRot(t *testing.T) {
	dir := t.TempDir()
	s, ffs := scrubStore(t, dir, 3, Options{Keep: -1})
	stop := s.StartScrubber(200*time.Microsecond, ScrubOptions{})
	defer stop()
	if err := ffs.CorruptAtRest(filepath.Join(dir, genName(2)), Fault{Kind: BitFlip, FlipByte: 17}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := s.ReadGeneration(2); errors.Is(err, ErrNoGeneration) {
			return // quarantined by the background pass
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("interval scrubber never quarantined the rotted generation")
}

func TestCorruptAtRestRejectsBadKinds(t *testing.T) {
	dir := t.TempDir()
	_, ffs := scrubStore(t, dir, 1, Options{})
	name := filepath.Join(dir, genName(1))
	if err := ffs.CorruptAtRest(name, Fault{Kind: Crash}); err == nil {
		t.Fatal("CorruptAtRest accepted Crash kind")
	}
	if err := ffs.CorruptAtRest(name, Fault{Kind: Truncate, TornBytes: 1 << 30}); err == nil {
		t.Fatal("CorruptAtRest accepted no-op truncation")
	}
	// The file is untouched after rejected corruptions.
	if got, err := os.ReadFile(name); err != nil || !bytes.Equal(got, payload(1, 2048)) {
		t.Fatalf("rejected corruption mutated the file: %v", err)
	}
}
