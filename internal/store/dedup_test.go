package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lossyckpt/internal/cas"
	"lossyckpt/internal/obs"
)

// testChunkCfg shrinks the chunker so modest test payloads split into
// many chunks.
var testChunkCfg = cas.Config{Min: 1 << 10, Avg: 4 << 10, Max: 16 << 10}

// dedupOpts is the standard dedup-on test configuration.
func dedupOpts() Options {
	return Options{Dedup: true, DedupChunk: testChunkCfg}
}

// genPayload fabricates a pseudo-random payload: incompressible-ish and
// deterministic per seed, so chunk hashes are stable across runs.
func genPayload(seed int64, size int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, size)
	rng.Read(b)
	return b
}

// mutateRegion returns a copy of p with a contiguous frac-sized region
// starting at off overwritten — the sparse-update pattern dedup exists
// to exploit.
func mutateRegion(p []byte, off int, frac float64, seed int64) []byte {
	out := append([]byte(nil), p...)
	n := int(float64(len(p)) * frac)
	if n == 0 {
		n = 1
	}
	if off+n > len(out) {
		off = len(out) - n
	}
	copy(out[off:off+n], genPayload(seed, n))
	return out
}

// fsckClean fails the test when the dedup audit reports any issue.
func fsckClean(t *testing.T, s *Store, ctx string) {
	t.Helper()
	rep, err := s.FsckDedup()
	if err != nil {
		t.Fatalf("%s: FsckDedup: %v", ctx, err)
	}
	if !rep.Clean() {
		t.Fatalf("%s: fsck found %d issues: %+v", ctx, len(rep.Issues), rep.Issues)
	}
}

// TestDedupRoundTrip: commits through the dedup path restore byte-exact
// on both backends, across reopen, and the audit stays clean.
func TestDedupRoundTrip(t *testing.T) {
	for _, backend := range []BackendKind{BackendPosix, BackendObject} {
		t.Run(backend.String(), func(t *testing.T) {
			dir := t.TempDir()
			opts := dedupOpts()
			opts.Backend = backend
			opts.Keep = -1
			s := openTest(t, dir, opts)

			base := genPayload(1, 600<<10)
			payloads := [][]byte{
				base,
				mutateRegion(base, 100<<10, 0.01, 2),
				mutateRegion(base, 300<<10, 0.10, 3),
			}
			for i, p := range payloads {
				gen, err := s.Commit(i+1, p)
				if err != nil {
					t.Fatalf("commit %d: %v", i, err)
				}
				if !gen.Dedup() {
					t.Fatalf("commit %d: generation not flagged dedup", i)
				}
				if gen.Size != uint64(len(p)) {
					t.Fatalf("commit %d: logical size %d, want %d", i, gen.Size, len(p))
				}
			}
			for i, p := range payloads {
				got, err := s.ReadGeneration(uint64(i + 1))
				if err != nil {
					t.Fatalf("read gen %d: %v", i+1, err)
				}
				if !bytes.Equal(got, p) {
					t.Fatalf("gen %d not byte-exact after dedup round trip", i+1)
				}
			}
			fsckClean(t, s, "after commits")

			// Reopen: the ledger rebuilds from recipes and everything still
			// reads byte-exact.
			s2 := openTest(t, dir, opts)
			if s2.Rebuilt() {
				t.Fatal("clean reopen should not rebuild the manifest")
			}
			for i, p := range payloads {
				got, err := s2.ReadGeneration(uint64(i + 1))
				if err != nil || !bytes.Equal(got, p) {
					t.Fatalf("gen %d after reopen: %v", i+1, err)
				}
			}
			fsckClean(t, s2, "after reopen")
		})
	}
}

// TestDedupReuse: a 1%-mutated re-commit must write an order of
// magnitude fewer new chunk bytes than the first commit.
func TestDedupReuse(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	defer obs.SetDefault(obs.SetDefault(reg))
	opts := dedupOpts()
	opts.Keep = -1
	s := openTest(t, dir, opts)

	base := genPayload(7, 1<<20)
	if _, err := s.Commit(1, base); err != nil {
		t.Fatal(err)
	}
	firstNew := reg.Counter(MetricDedupChunksNew).Value()
	firstPhys := reg.Counter(MetricDedupPhysicalBytes).Value()
	if firstNew == 0 {
		t.Fatal("first commit wrote no chunks")
	}

	mut := mutateRegion(base, 512<<10, 0.01, 8)
	if _, err := s.Commit(2, mut); err != nil {
		t.Fatal(err)
	}
	secondNew := reg.Counter(MetricDedupChunksNew).Value() - firstNew
	secondPhys := reg.Counter(MetricDedupPhysicalBytes).Value() - firstPhys
	reusedTotal := reg.Counter(MetricDedupChunksReused).Value()
	if reusedTotal == 0 {
		t.Fatal("1% mutation reused no chunks")
	}
	if secondPhys*10 > firstPhys {
		t.Fatalf("1%% mutation committed %v physical bytes vs %v for the full checkpoint — want >=10x reduction",
			secondPhys, firstPhys)
	}
	t.Logf("dedup reuse: first commit %v chunks / %v bytes, 1%%-mutated commit %v chunks / %v bytes, %v reused",
		firstNew, firstPhys, secondNew, secondPhys, reusedTotal)

	got, err := s.ReadGeneration(2)
	if err != nil || !bytes.Equal(got, mut) {
		t.Fatalf("mutated generation not byte-exact: %v", err)
	}
	if ratio := reg.Gauge(MetricDedupRatio).Value(); ratio <= 1 {
		t.Fatalf("dedup ratio gauge %v, want > 1 after a reusing commit", ratio)
	}
}

// TestDedupDisabledByteIdentical: with Dedup off the store writes the
// exact layout it always has — no cas directory, no flags, a pre-flags
// manifest version.
func TestDedupDisabledByteIdentical(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	want := payload(1, 4096)
	gen, err := s.Commit(1, want)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Flags != 0 {
		t.Fatalf("dedup-off commit carries flags %x", gen.Flags)
	}
	if _, err := os.Stat(filepath.Join(dir, CASDir)); !os.IsNotExist(err) {
		t.Fatalf("dedup-off store grew a %s directory (err=%v)", CASDir, err)
	}
	// The payload object holds the logical bytes themselves, not a recipe.
	data, err := os.ReadFile(filepath.Join(dir, genName(1)))
	if err != nil || !bytes.Equal(data, want) {
		t.Fatalf("payload file is not the raw payload: %v", err)
	}
	// The manifest stays at the pre-flags version (byte-identical to a
	// build without the dedup layer).
	man, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if v := int(man[4]) | int(man[5])<<8; v >= manifestVersionFlags {
		t.Fatalf("dedup-off manifest encoded as version %d", v)
	}
}

// TestDedupMixedGenerations: Dedup can be toggled between opens; reads
// dispatch per generation, so plain and dedup generations coexist.
func TestDedupMixedGenerations(t *testing.T) {
	dir := t.TempDir()
	plain := payload(1, 50<<10)
	s := openTest(t, dir, Options{Keep: -1})
	if _, err := s.Commit(1, plain); err != nil {
		t.Fatal(err)
	}

	opts := dedupOpts()
	opts.Keep = -1
	s2 := openTest(t, dir, opts)
	deduped := genPayload(2, 300<<10)
	gen2, err := s2.Commit(2, deduped)
	if err != nil {
		t.Fatal(err)
	}
	if !gen2.Dedup() {
		t.Fatal("second commit should be dedup")
	}
	for seq, want := range map[uint64][]byte{1: plain, 2: deduped} {
		got, err := s2.ReadGeneration(seq)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("gen %d: %v", seq, err)
		}
	}

	// Reopen with dedup off again: both generations still read.
	s3 := openTest(t, dir, Options{Keep: -1})
	for seq, want := range map[uint64][]byte{1: plain, 2: deduped} {
		got, err := s3.ReadGeneration(seq)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("gen %d with dedup off: %v", seq, err)
		}
	}
}

// TestDedupPruneReleasesChunks: retention pruning decrefs the dropped
// recipe's chunks and deletes the ones nothing else references.
func TestDedupPruneReleasesChunks(t *testing.T) {
	dir := t.TempDir()
	opts := dedupOpts()
	opts.Keep = 2
	s := openTest(t, dir, opts)

	// Three unrelated payloads: once gen 1 is pruned its chunks are dead.
	for i := 1; i <= 3; i++ {
		if _, err := s.Commit(i, genPayload(int64(100+i), 256<<10)); err != nil {
			t.Fatal(err)
		}
	}
	if gens := s.Generations(); len(gens) != 2 || gens[0].Seq != 2 {
		t.Fatalf("retention kept %+v", gens)
	}
	fsckClean(t, s, "after prune")

	st := s.DedupStats()
	// Live chunks must account only the two retained generations; with
	// unrelated payloads that is ~512 KiB, not ~768 KiB.
	if st.ChunkBytes > 600<<10 {
		t.Fatalf("pruned chunks not released: %d chunk bytes live", st.ChunkBytes)
	}
	if st.DedupGens != 2 {
		t.Fatalf("stats report %d dedup gens, want 2", st.DedupGens)
	}
}

// TestDedupDropReleasesChunks: explicit Drop behaves like prune.
func TestDedupDropReleasesChunks(t *testing.T) {
	dir := t.TempDir()
	opts := dedupOpts()
	opts.Keep = -1
	s := openTest(t, dir, opts)
	if _, err := s.Commit(1, genPayload(11, 256<<10)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(2, genPayload(12, 256<<10)); err != nil {
		t.Fatal(err)
	}
	before := s.DedupStats().Chunks
	if err := s.Drop(1); err != nil {
		t.Fatal(err)
	}
	after := s.DedupStats().Chunks
	if after >= before {
		t.Fatalf("Drop released nothing: %d -> %d chunks", before, after)
	}
	fsckClean(t, s, "after drop")
	if got, err := s.ReadGeneration(2); err != nil || !bytes.Equal(got, genPayload(12, 256<<10)) {
		t.Fatalf("surviving generation damaged by Drop: %v", err)
	}
}

// TestDedupQuarantineKeepsSharedChunks: quarantining one dedup
// generation must not take down chunks a surviving generation shares
// with it, and GC afterwards must still keep the survivors readable.
func TestDedupQuarantineKeepsSharedChunks(t *testing.T) {
	dir := t.TempDir()
	opts := dedupOpts()
	opts.Keep = -1
	s := openTest(t, dir, opts)

	base := genPayload(21, 400<<10)
	mut := mutateRegion(base, 0, 0.05, 22)
	if _, err := s.Commit(1, base); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(2, mut); err != nil {
		t.Fatal(err)
	}

	// Corrupt gen 1's recipe object: scrub must quarantine it with the
	// recipe-level reason.
	if err := os.WriteFile(filepath.Join(dir, genName(1)), []byte("not a recipe, definitely"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Reason != "recipe" {
		t.Fatalf("scrub quarantined %+v, want one reason=recipe", rep.Quarantined)
	}
	if rep.GC == nil {
		t.Fatal("dedup scrub ran no GC pass")
	}

	// The shared chunks survive: gen 2 still byte-exact.
	got, err := s.ReadGeneration(2)
	if err != nil || !bytes.Equal(got, mut) {
		t.Fatalf("survivor damaged after quarantine+GC: %v", err)
	}
	fsckClean(t, s, "after quarantine")
}

// TestDedupChunkCorruptionQuarantines: a rotted chunk fails the scrub
// with the chunk-level reason and does not damage generations that do
// not reference it.
func TestDedupChunkCorruptionQuarantines(t *testing.T) {
	dir := t.TempDir()
	opts := dedupOpts()
	opts.Keep = -1
	s := openTest(t, dir, opts)
	if _, err := s.Commit(1, genPayload(31, 300<<10)); err != nil {
		t.Fatal(err)
	}

	casDir := filepath.Join(dir, CASDir)
	ents, err := os.ReadDir(casDir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("no chunks on disk: %v", err)
	}
	victim := filepath.Join(casDir, ents[0].Name())
	if err := os.WriteFile(victim, []byte("bitrot"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Reason != "chunk" {
		t.Fatalf("scrub quarantined %+v, want one reason=chunk", rep.Quarantined)
	}
}

// TestDedupGCSweepsOrphans: chunks referenced by nothing (crash
// leftovers) are swept by GC and by the open-time sweep.
func TestDedupGCSweepsOrphans(t *testing.T) {
	dir := t.TempDir()
	opts := dedupOpts()
	s := openTest(t, dir, opts)
	if _, err := s.Commit(1, genPayload(41, 200<<10)); err != nil {
		t.Fatal(err)
	}

	orphan := cas.Sum([]byte("orphaned chunk"))
	orphanPath := filepath.Join(dir, CASDir, orphan.String()+".chk")
	if err := os.WriteFile(orphanPath, []byte("orphaned chunk"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SweptChunks != 1 {
		t.Fatalf("GC swept %d chunks, want 1", rep.SweptChunks)
	}
	if _, err := os.Stat(orphanPath); !os.IsNotExist(err) {
		t.Fatal("orphan chunk survived GC")
	}
	fsckClean(t, s, "after GC")

	// Same leftover, collected by the reopen sweep instead.
	if err := os.WriteFile(orphanPath, []byte("orphaned chunk"), 0o644); err != nil {
		t.Fatal(err)
	}
	openTest(t, dir, opts)
	if _, err := os.Stat(orphanPath); !os.IsNotExist(err) {
		t.Fatal("orphan chunk survived the open sweep")
	}
}

// TestDedupRescanRecoversFlags: with the manifest gone, the directory
// rescan recognizes recipe payloads and restores the dedup flag plus
// the LOGICAL size/CRC, so restores keep working.
func TestDedupRescanRecoversFlags(t *testing.T) {
	dir := t.TempDir()
	opts := dedupOpts()
	opts.Keep = -1
	s := openTest(t, dir, opts)
	want := genPayload(51, 300<<10)
	if _, err := s.Commit(3, want); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, opts)
	if !s2.Rebuilt() {
		t.Fatal("expected a manifest rebuild")
	}
	latest, ok := s2.Latest()
	if !ok || !latest.Dedup() {
		t.Fatalf("rescan lost the dedup flag: %+v ok=%v", latest, ok)
	}
	if latest.Size != uint64(len(want)) {
		t.Fatalf("rescan recorded physical size %d, want logical %d", latest.Size, len(want))
	}
	got, err := s2.ReadGeneration(latest.Seq)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read after rescan: %v", err)
	}
	fsckClean(t, s2, "after rescan")
}

// TestDedupPhysicalBytes: the quota surface charges recipe+chunk bytes,
// far below logical bytes once generations dedup against each other.
func TestDedupPhysicalBytes(t *testing.T) {
	dir := t.TempDir()
	opts := dedupOpts()
	opts.Keep = -1
	s := openTest(t, dir, opts)
	base := genPayload(61, 512<<10)
	for i := 1; i <= 4; i++ {
		if _, err := s.Commit(i, mutateRegion(base, i*1000, 0.01, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var logical int64
	for _, g := range s.Generations() {
		logical += int64(g.Size)
	}
	phys := s.PhysicalBytes()
	if phys <= 0 || phys >= logical {
		t.Fatalf("physical %d vs logical %d: dedup should store far less", phys, logical)
	}
	st := s.DedupStats()
	if st.Ratio() < 2 {
		t.Fatalf("dedup ratio %.2f, want >= 2 for 1%%-mutated series", st.Ratio())
	}
}

// TestDedupReplicated: a replicated store with dedup on commits
// identical recipes on every replica (deterministic chunking), reads
// through quorum, and scrub-heals a replica that lost a chunk.
func TestDedupReplicated(t *testing.T) {
	root := t.TempDir()
	opts := dedupOpts()
	opts.Sleep = noSleep
	r, err := OpenReplicated(root, ReplicaDirs(root, 3), 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Wait()

	base := genPayload(71, 400<<10)
	mut := mutateRegion(base, 50<<10, 0.02, 72)
	if _, err := r.Commit(1, base); err != nil {
		t.Fatal(err)
	}
	gen, err := r.Commit(2, mut)
	if err != nil {
		t.Fatal(err)
	}
	if !gen.Dedup() {
		t.Fatal("replicated commit lost the dedup flag")
	}
	got, err := r.ReadGeneration(2)
	if err != nil || !bytes.Equal(got, mut) {
		t.Fatalf("replicated read: %v", err)
	}
	r.Wait()

	// Damage one replica: delete a chunk. Scrub must quarantine the
	// affected generation on that replica and read-repair it back.
	casDir := filepath.Join(root, "r0", CASDir)
	ents, err := os.ReadDir(casDir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("replica 0 has no chunks: %v", err)
	}
	if err := os.Remove(filepath.Join(casDir, ents[0].Name())); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Scrub(ScrubOptions{}); err != nil {
		t.Fatal(err)
	}
	// After repair every replica serves both generations byte-exact.
	for i := 0; i < 3; i++ {
		sub, err := Open(filepath.Join(root, "r"+fmt.Sprint(i)), Options{Sleep: noSleep})
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		for seq, want := range map[uint64][]byte{1: base, 2: mut} {
			got, err := sub.ReadGeneration(seq)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("replica %d gen %d after repair: %v", i, seq, err)
			}
		}
	}
	if phys := r.PhysicalBytes(); phys <= 0 {
		t.Fatalf("replicated PhysicalBytes = %d", phys)
	}
}

// TestDedupScrubGCRaceSoak: commits, scrubs (each running a GC pass)
// and reads hammer one store concurrently; under -race this proves the
// GC can never sweep a chunk a concurrent restore is resolving, and
// every read observes a byte-exact generation.
func TestDedupScrubGCRaceSoak(t *testing.T) {
	dir := t.TempDir()
	opts := dedupOpts()
	opts.Keep = 3
	s := openTest(t, dir, opts)

	base := genPayload(81, 256<<10)
	if _, err := s.Commit(0, base); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(800 * time.Millisecond)
	var wg sync.WaitGroup
	errc := make(chan error, 3)

	wg.Add(1)
	go func() { // committer
		defer wg.Done()
		for i := 1; time.Now().Before(deadline); i++ {
			p := mutateRegion(base, (i*7919)%(200<<10), 0.02, int64(i))
			if _, err := s.Commit(i, p); err != nil {
				errc <- fmt.Errorf("commit %d: %w", i, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // scrubber (includes GC)
		defer wg.Done()
		for time.Now().Before(deadline) {
			if _, err := s.Scrub(ScrubOptions{}); err != nil {
				errc <- fmt.Errorf("scrub: %w", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // reader
		defer wg.Done()
		for time.Now().Before(deadline) {
			latest, ok := s.Latest()
			if !ok {
				continue
			}
			if _, verified, err := s.ReadGenerationRaw(latest.Seq); err == nil && !verified {
				// A generation pruned between Latest and the read can
				// legitimately vanish (err != nil); what must never happen
				// is an indexed generation resolving to corrupt bytes.
				if _, stillThere := s.Record(latest.Seq); stillThere {
					errc <- fmt.Errorf("gen %d read unverified while indexed", latest.Seq)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	fsckClean(t, s, "after soak")
}
