package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// payload fabricates a distinguishable checkpoint payload.
func payload(gen int, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(gen*31 + i)
	}
	return b
}

func noSleep(time.Duration) {}

func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	opts.Sleep = noSleep
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func TestCommitReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	want := payload(1, 4096)
	gen, err := s.Commit(7, want)
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if gen.Seq != 1 || gen.Step != 7 {
		t.Fatalf("gen = %+v, want seq 1 step 7", gen)
	}
	got, err := s.ReadGeneration(gen.Seq)
	if err != nil {
		t.Fatalf("ReadGeneration: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("payload mismatch after round trip")
	}

	// A fresh Open sees the same state.
	s2 := openTest(t, dir, Options{})
	if s2.Rebuilt() {
		t.Fatal("clean reopen should not need a manifest rebuild")
	}
	latest, ok := s2.Latest()
	if !ok || latest.Seq != 1 || latest.Step != 7 {
		t.Fatalf("reopened latest = %+v ok=%v", latest, ok)
	}
	got, err = s2.ReadGeneration(1)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("reopened read: %v", err)
	}
}

func TestRetentionRing(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Keep: 3})
	for i := 1; i <= 5; i++ {
		if _, err := s.Commit(i, payload(i, 512)); err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
	}
	gens := s.Generations()
	if len(gens) != 3 {
		t.Fatalf("retained %d generations, want 3", len(gens))
	}
	for i, g := range gens {
		wantSeq := uint64(i + 3)
		if g.Seq != wantSeq {
			t.Fatalf("gens[%d].Seq = %d, want %d", i, g.Seq, wantSeq)
		}
	}
	// Pruned files are actually gone.
	if _, err := os.Stat(filepath.Join(dir, genName(1))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("pruned generation 1 still on disk: %v", err)
	}
	// Retained payloads intact.
	for i := 3; i <= 5; i++ {
		got, err := s.ReadGeneration(uint64(i))
		if err != nil || !bytes.Equal(got, payload(i, 512)) {
			t.Fatalf("generation %d: %v", i, err)
		}
	}
}

func TestManifestLossRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	want := payload(2, 2048)
	if _, err := s.Commit(1, payload(1, 1024)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(2, want); err != nil {
		t.Fatal(err)
	}

	for name, corrupt := range map[string]func() error{
		"deleted": func() error { return os.Remove(filepath.Join(dir, manifestName)) },
		"truncated": func() error {
			raw, err := os.ReadFile(filepath.Join(dir, manifestName))
			if err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dir, manifestName), raw[:len(raw)/2], 0o644)
		},
		"bitflipped": func() error {
			raw, err := os.ReadFile(filepath.Join(dir, manifestName))
			if err != nil {
				return err
			}
			raw[len(raw)/2] ^= 0x40
			return os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644)
		},
	} {
		t.Run(name, func(t *testing.T) {
			if err := corrupt(); err != nil {
				t.Fatal(err)
			}
			s2 := openTest(t, dir, Options{})
			if !s2.Rebuilt() {
				t.Fatal("expected a manifest rebuild")
			}
			latest, ok := s2.Latest()
			if !ok || latest.Seq != 2 {
				t.Fatalf("latest after rebuild = %+v ok=%v", latest, ok)
			}
			got, err := s2.ReadGeneration(2)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("read after rebuild: %v", err)
			}
		})
	}
}

func TestBitFlipDetected(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OsFS{})
	s := openTest(t, dir, Options{FS: ffs})
	if _, err := s.Commit(1, payload(1, 1024)); err != nil {
		t.Fatal(err)
	}
	// Commit op sequence: create, write, sync, close, rename, syncdir,
	// then the manifest's own six. Flip a bit mid-payload (op +2).
	ffs.FailAt(ffs.Ops()+2, Fault{Kind: BitFlip, FlipByte: 512, FlipBit: 2})
	if _, err := s.Commit(2, payload(2, 1024)); err != nil {
		t.Fatalf("BitFlip commit should succeed silently: %v", err)
	}
	if _, err := s.ReadGeneration(2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadGeneration on flipped payload = %v, want ErrCorrupt", err)
	}
	// Raw read still yields the bytes for forensic/partial use.
	raw, verified, err := s.ReadGenerationRaw(2)
	if err != nil || verified || len(raw) != 1024 {
		t.Fatalf("ReadGenerationRaw = (%d bytes, %v, %v)", len(raw), verified, err)
	}
	// The intact previous generation still verifies.
	if _, err := s.ReadGeneration(1); err != nil {
		t.Fatalf("generation 1 should be intact: %v", err)
	}
}

func TestTransientRetry(t *testing.T) {
	dir := t.TempDir()
	slept := 0
	ffs := NewFaultFS(OsFS{})
	opts := Options{FS: ffs, Sleep: func(time.Duration) { slept++ }}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Fail several upcoming ops once each; the commit must ride through.
	base := ffs.Ops()
	for _, off := range []int{1, 3, 5} {
		ffs.FailAt(base+off, Fault{Kind: ErrorOnce})
	}
	want := payload(1, 1024)
	if _, err := s.Commit(1, want); err != nil {
		t.Fatalf("Commit with transient faults: %v", err)
	}
	if slept == 0 {
		t.Fatal("expected backoff sleeps")
	}
	got, err := s.ReadGeneration(1)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read after transient faults: %v", err)
	}
}

func TestRetryGivesUpOnPermanentError(t *testing.T) {
	s := &Store{opts: Options{Sleep: noSleep}.withDefaults()}
	calls := 0
	err := s.retry("op", func() error { calls++; return errors.New("permanent") })
	if err == nil || calls != 1 {
		t.Fatalf("permanent error retried %d times (err %v)", calls, err)
	}
	calls = 0
	err = s.retry("op", func() error {
		calls++
		if calls < 3 {
			return transientErr{errors.New("flaky")}
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("transient error: calls=%d err=%v", calls, err)
	}
	calls = 0
	err = s.retry("op", func() error { calls++; return transientErr{errors.New("always")} })
	if !IsTransient(err) || calls != maxRetries+1 {
		t.Fatalf("exhausted retries: calls=%d err=%v", calls, err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := WriteFileAtomicOS(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomicOS(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v2" {
		t.Fatalf("read back %q, %v", got, err)
	}
	// A crash mid-write must leave the old contents.
	ffs := NewFaultFS(OsFS{})
	ffs.FailAt(2, Fault{Kind: TornWrite, TornBytes: 1}) // op1 create, op2 write
	if err := WriteFileAtomic(ffs, path, []byte("v3-much-longer")); err == nil {
		t.Fatal("torn atomic write should fail")
	}
	got, err = os.ReadFile(path)
	if err != nil || string(got) != "v2" {
		t.Fatalf("after torn write: %q, %v (old contents must survive)", got, err)
	}
}

func TestOpenSweepsLeftovers(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	if _, err := s.Commit(1, payload(1, 256)); err != nil {
		t.Fatal(err)
	}
	// Simulate crash debris: a temp file and a renamed-but-unindexed
	// generation.
	if err := os.WriteFile(filepath.Join(dir, genName(9)+tmpSuffix), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, genName(7)), []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, Options{})
	if s2.Rebuilt() {
		t.Fatal("manifest is intact; no rebuild expected")
	}
	for _, name := range []string{genName(9) + tmpSuffix, genName(7)} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s not swept: %v", name, err)
		}
	}
	if got, err := s2.ReadGeneration(1); err != nil || !bytes.Equal(got, payload(1, 256)) {
		t.Fatalf("indexed generation harmed by sweep: %v", err)
	}
}

func TestCommitPartsAndChunkedPayload(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	// Payload larger than one commit chunk exercises the chunked write
	// loop.
	want := payload(3, commitChunk+commitChunk/2)
	half := len(want) / 2
	gen, err := s.CommitCtx(context.Background(), 3, want[:half], want[half:])
	if err != nil {
		t.Fatalf("CommitCtx: %v", err)
	}
	got, err := s.ReadGeneration(gen.Seq)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("chunked payload round trip: %v", err)
	}
}

func TestParseGenName(t *testing.T) {
	for _, tc := range []struct {
		name string
		seq  uint64
		ok   bool
	}{
		{genName(12), 12, true},
		{"gen-00000001.ckpt", 1, true},
		{"gen-.ckpt", 0, false},
		{"gen-12abc.ckpt", 0, false},
		{"MANIFEST", 0, false},
		{"gen-5.ckpt.tmp", 0, false},
	} {
		seq, ok := parseGenName(tc.name)
		if ok != tc.ok || seq != tc.seq {
			t.Errorf("parseGenName(%q) = (%d, %v), want (%d, %v)", tc.name, seq, ok, tc.seq, tc.ok)
		}
	}
}

func TestCrashKillsFS(t *testing.T) {
	ffs := NewFaultFS(OsFS{})
	dir := t.TempDir()
	s := openTest(t, dir, Options{FS: ffs})
	ffs.FailAt(ffs.Ops()+1, Fault{Kind: Crash})
	if _, err := s.Commit(1, payload(1, 64)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Commit after crash = %v, want ErrCrashed", err)
	}
	if _, err := ffs.Create(filepath.Join(dir, "x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("dead FS Create = %v, want ErrCrashed", err)
	}
	if !ffs.Crashed() {
		t.Fatal("Crashed() should report true")
	}
}
