package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// openRepl opens an N-way replicated store under root with the usual
// test options; fss, when non-nil, provides per-replica filesystems.
func openRepl(t *testing.T, root string, n, w int, fss []FS) *ReplicatedStore {
	t.Helper()
	opts := Options{Sleep: noSleep}
	var r *ReplicatedStore
	var err error
	if fss != nil {
		r, err = OpenReplicated(root, ReplicaDirs(root, n), w, opts, fss...)
	} else {
		r, err = OpenReplicated(root, ReplicaDirs(root, n), w, opts)
	}
	if err != nil {
		t.Fatalf("OpenReplicated: %v", err)
	}
	return r
}

// commitAtSeq commits payload on one replica under a sequence number the
// test chooses, the way the coordinator's fan-out reaches a single replica.
func commitAtSeq(t *testing.T, st *Store, seq uint64, step int, payload []byte) Generation {
	t.Helper()
	gen, err := st.commit(context.Background(), seq, step, st.opts.expireStamp(), len(payload), feedParts([][]byte{payload}))
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// TestReplicatedCommitAndRead: the happy path — a quorum commit lands
// on every replica, reads verify, and the replicas are byte-identical.
func TestReplicatedCommitAndRead(t *testing.T) {
	root := t.TempDir()
	r := openRepl(t, root, 3, 2, nil)
	defer r.Wait()

	want := payload(1, 5000)
	gen, err := r.Commit(7, want)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Seq != 1 || gen.Step != 7 {
		t.Fatalf("gen = %+v", gen)
	}
	got, err := r.ReadGeneration(gen.Seq)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back: %v", err)
	}
	r.Wait()
	for i := 0; i < 3; i++ {
		data, err := os.ReadFile(filepath.Join(root, fmt.Sprintf("r%d", i), genName(1)))
		if err != nil || !bytes.Equal(data, want) {
			t.Fatalf("replica %d payload differs: %v", i, err)
		}
	}
	if d := r.Divergence(); d != 0 {
		t.Fatalf("divergence = %d after clean commit", d)
	}
}

// TestReplicatedStreamCommit: CommitStream fans one producer stream out
// to all replicas and the record matches a buffered commit of the same
// bytes.
func TestReplicatedStreamCommit(t *testing.T) {
	root := t.TempDir()
	r := openRepl(t, root, 3, 2, nil)
	defer r.Wait()

	want := payload(3, commitChunk*2+123) // cross chunk boundaries
	gen, err := r.CommitStream(9, func(w io.Writer) error {
		half := len(want) / 2
		if _, err := w.Write(want[:half]); err != nil {
			return err
		}
		_, err := w.Write(want[half:])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if gen.Size != uint64(len(want)) {
		t.Fatalf("streamed size %d != %d", gen.Size, len(want))
	}
	got, err := r.ReadGeneration(gen.Seq)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back: %v", err)
	}
}

// TestReplicatedCommitSurvivesOneDeadReplica: W=2 of N=3 — one replica
// crashing mid-commit must not fail the commit, and scrub heals the
// victim afterwards.
func TestReplicatedCommitSurvivesOneDeadReplica(t *testing.T) {
	for victim := 0; victim < 3; victim++ {
		t.Run(fmt.Sprintf("victim%d", victim), func(t *testing.T) {
			root := t.TempDir()
			fss := make([]FS, 3)
			var ffs *FaultFS
			for i := range fss {
				f := NewFaultFS(OsFS{})
				fss[i] = f
				if i == victim {
					ffs = f
				}
			}
			r := openRepl(t, root, 3, 2, fss)
			defer r.Wait()

			want := payload(1, 4000)
			ffs.FailAt(ffs.Ops()+3, Fault{Kind: Crash})
			gen, err := r.Commit(5, want)
			if err != nil {
				t.Fatalf("quorum commit failed with one dead replica: %v", err)
			}
			r.Wait()
			if !ffs.Crashed() {
				t.Fatal("victim never crashed; fault plan missed")
			}
			got, err := r.ReadGeneration(gen.Seq)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("read with dead replica: %v", err)
			}

			// "Reboot" the fleet and scrub: the victim converges.
			r2 := openRepl(t, root, 3, 2, nil)
			defer r2.Wait()
			rep, err := r2.Scrub(ScrubOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Divergent != 0 {
				t.Fatalf("divergence %d after scrub: %+v", rep.Divergent, rep)
			}
			for i := 0; i < 3; i++ {
				data, err := os.ReadFile(filepath.Join(root, fmt.Sprintf("r%d", i), genName(gen.Seq)))
				if err != nil || !bytes.Equal(data, want) {
					t.Fatalf("replica %d not healed: %v", i, err)
				}
			}
		})
	}
}

// TestReplicatedReadRepairsLyingReplica: a replica that silently
// corrupts its payload (bit flip during the write) still acknowledges
// the commit; the read must skip it, serve verified bytes, and push the
// good copy back onto it.
func TestReplicatedReadRepairsLyingReplica(t *testing.T) {
	root := t.TempDir()
	fss := make([]FS, 3)
	var liar *FaultFS
	for i := range fss {
		f := NewFaultFS(OsFS{})
		fss[i] = f
		if i == 0 {
			liar = f
		}
	}
	r := openRepl(t, root, 3, 2, fss)
	defer r.Wait()

	want := payload(1, 2000)
	liar.FailAt(liar.Ops()+2, Fault{Kind: BitFlip, FlipByte: 100})
	gen, err := r.Commit(1, want)
	if err != nil {
		t.Fatal(err)
	}
	r.Wait()

	got, err := r.ReadGeneration(gen.Seq)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read with lying replica: %v", err)
	}
	// The read repaired the liar in-line: its on-disk copy is fixed.
	data, err := os.ReadFile(filepath.Join(root, "r0", genName(gen.Seq)))
	if err != nil || !bytes.Equal(data, want) {
		t.Fatalf("liar not repaired: %v", err)
	}
}

// TestReplicatedSlowReplica: a blanket-slow replica must not fail the
// commit — quorum returns with the two fast replicas — and the
// straggler still converges once its writes finish.
func TestReplicatedSlowReplica(t *testing.T) {
	root := t.TempDir()
	fss := make([]FS, 3)
	var slow *FaultFS
	for i := range fss {
		f := NewFaultFS(OsFS{})
		fss[i] = f
		if i == 2 {
			slow = f
		}
	}
	var stalls int
	var mu sync.Mutex
	slow.SetSleep(func(time.Duration) { mu.Lock(); stalls++; mu.Unlock() })
	slow.SetOpDelay(50 * time.Millisecond)

	r := openRepl(t, root, 3, 2, fss)
	want := payload(1, 3000)
	gen, err := r.Commit(2, want)
	if err != nil {
		t.Fatalf("commit with slow replica: %v", err)
	}
	r.Wait() // drain the straggler before inspecting its directory
	mu.Lock()
	n := stalls
	mu.Unlock()
	if n == 0 {
		t.Fatal("slow replica never stalled; latency plan missed")
	}
	data, err := os.ReadFile(filepath.Join(root, "r2", genName(gen.Seq)))
	if err != nil || !bytes.Equal(data, want) {
		t.Fatalf("slow replica did not converge: %v", err)
	}
}

// TestReplicatedReplicaLossHeals: one replica's directory is wiped
// entirely (disk loss); reopening resurrects it empty and scrub
// re-materializes every quorum-agreed generation onto it.
func TestReplicatedReplicaLossHeals(t *testing.T) {
	root := t.TempDir()
	r := openRepl(t, root, 3, 2, nil)
	var gens []Generation
	var wants [][]byte
	for i := 1; i <= 3; i++ {
		want := payload(i, 1000*i)
		g, err := r.Commit(i, want)
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, g)
		wants = append(wants, want)
	}
	r.Wait()
	if err := os.RemoveAll(filepath.Join(root, "r1")); err != nil {
		t.Fatal(err)
	}

	r2 := openRepl(t, root, 3, 2, nil)
	defer r2.Wait()
	// The quorum view is intact despite the loss.
	latest, ok := r2.Latest()
	if !ok || latest != gens[2] {
		t.Fatalf("latest after loss = %+v ok=%v", latest, ok)
	}
	rep, err := r2.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Divergent != 0 {
		t.Fatalf("divergence %d after heal", rep.Divergent)
	}
	healed := rep.Replicas[1].Repaired
	if len(healed) != 3 {
		t.Fatalf("replica 1 repaired %v, want all three generations", healed)
	}
	for i, g := range gens {
		data, err := os.ReadFile(filepath.Join(root, "r1", genName(g.Seq)))
		if err != nil || !bytes.Equal(data, wants[i]) {
			t.Fatalf("gen %d not re-materialized: %v", g.Seq, err)
		}
	}
}

// TestReplicatedScrubQuarantinesSubQuorumDebris: state a failed quorum
// write left on a single replica is parked in quarantine by the next
// scrub, converging the fleet.
func TestReplicatedScrubQuarantinesSubQuorumDebris(t *testing.T) {
	root := t.TempDir()
	r := openRepl(t, root, 3, 2, nil)
	want := payload(1, 800)
	if _, err := r.Commit(1, want); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	// Simulate a failed quorum write: one replica accepted a gen the
	// others never saw.
	st, _ := r.Replica(0)
	commitAtSeq(t, st, 2, 9, payload(9, 900))

	if d := r.Divergence(); d == 0 {
		t.Fatal("debris not visible as divergence")
	}
	rep, err := r.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Divergent != 0 {
		t.Fatalf("divergence %d after scrub", rep.Divergent)
	}
	found := false
	for _, q := range rep.Quarantined {
		if q.Seq == 2 && q.Reason == "divergent" {
			found = true
		}
	}
	if !found {
		t.Fatalf("debris not quarantined: %+v", rep.Quarantined)
	}
	// The quorum-agreed generation is untouched.
	if got, err := r.ReadGeneration(1); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("agreed gen damaged by convergence: %v", err)
	}
}

// TestReplicatedQuorumFailure: with two of three replicas dead the
// commit must fail with ErrQuorum, and the survivors' store state must
// still serve the previous generation.
func TestReplicatedQuorumFailure(t *testing.T) {
	root := t.TempDir()
	fss := make([]FS, 3)
	ffss := make([]*FaultFS, 3)
	for i := range fss {
		ffss[i] = NewFaultFS(OsFS{})
		fss[i] = ffss[i]
	}
	r := openRepl(t, root, 3, 2, fss)
	defer r.Wait()
	want := payload(1, 1200)
	if _, err := r.Commit(1, want); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	ffss[0].CrashNow()
	ffss[1].CrashNow()
	if _, err := r.Commit(2, payload(2, 1200)); !errors.Is(err, ErrQuorum) {
		t.Fatalf("commit with 2 dead replicas: %v", err)
	}
	r.Wait()
	if got, err := r.ReadGeneration(1); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("previous generation lost after quorum failure: %v", err)
	}
}

// TestReplicatedSingleReplicaLayout: N=1 keeps the unreplicated on-disk
// layout — the store root IS the replica root, byte-identical to a
// plain Store.
func TestReplicatedSingleReplicaLayout(t *testing.T) {
	rootA := t.TempDir()
	rootB := t.TempDir()
	want := payload(1, 2500)

	plain := openTest(t, rootA, Options{})
	if _, err := plain.Commit(3, want); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReplicated(rootB, ReplicaDirs(rootB, 1), 1, Options{Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Commit(3, want); err != nil {
		t.Fatal(err)
	}
	r.Wait()

	for _, name := range []string{manifestName, genName(1)} {
		a, err := os.ReadFile(filepath.Join(rootA, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(rootB, name))
		if err != nil {
			t.Fatalf("single-replica layout misses %s at root: %v", name, err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between plain and 1-replica store", name)
		}
	}
}

// TestJitteredBackoffSeeded: the retry backoff must (a) stay inside
// [b/2, b) per attempt for b = 1, 2, 4, 8 ms — the ladder's constants, seen
// through the injected Sleep — (b) be reproducible under a seeded jitter
// source, and (c) actually vary across different seeds — the regression
// guard for the thundering-herd fix.
func TestJitteredBackoffSeeded(t *testing.T) {
	run := func(seed int64) []time.Duration {
		var sleeps []time.Duration
		rng := rand.New(rand.NewSource(seed))
		s := &Store{opts: Options{
			Sleep:  func(d time.Duration) { sleeps = append(sleeps, d) },
			Jitter: rng.Float64,
		}.withDefaults()}
		calls := 0
		err := s.retry("op", func() error {
			calls++
			if calls <= maxRetries {
				return transientErr{errors.New("flaky")}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("retry gave up: %v", err)
		}
		return sleeps
	}

	a := run(42)
	if len(a) != 4 {
		t.Fatalf("expected 4 backoff sleeps, got %d", len(a))
	}
	for i, backoff := range []time.Duration{1, 2, 4, 8} {
		backoff *= time.Millisecond
		if d := a[i]; d < backoff/2 || d >= backoff {
			t.Fatalf("sleep %d = %v outside [%v, %v)", i, d, backoff/2, backoff)
		}
	}
	b := run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	c := run(1337)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical backoff schedules")
	}
}

// TestStartScrubberCtxDrains: cancelling the context must let an
// in-flight scrub finish (drain), and no new pass may start afterwards.
func TestStartScrubberCtxDrains(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	if _, err := s.Commit(1, payload(1, 300)); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{}, 64)
	release := make(chan struct{})
	var mu sync.Mutex
	finished := 0
	ctx, cancel := context.WithCancel(context.Background())
	stop := s.StartScrubberCtx(ctx, time.Millisecond, ScrubOptions{Verify: func([]byte) error {
		entered <- struct{}{}
		<-release
		mu.Lock()
		finished++
		mu.Unlock()
		return nil
	}})

	<-entered // a pass is mid-flight
	cancel()  // cancel while it runs
	close(release)
	stop() // must block until the in-flight pass drains, then return

	mu.Lock()
	got := finished
	mu.Unlock()
	if got == 0 {
		t.Fatal("in-flight scrub was not drained")
	}
	// No pass may start after cancellation.
	n := len(entered)
	time.Sleep(20 * time.Millisecond)
	if len(entered) != n {
		t.Fatal("scrubber kept running after context cancellation")
	}
}

// TestScrubRacesReplicatedRestore: a scrubber quarantining a corrupt
// generation on one replica while restores stream from the store must
// never fail a restore or deadlock (-race clean is part of the
// acceptance bar).
func TestScrubRacesReplicatedRestore(t *testing.T) {
	root := t.TempDir()
	r := openRepl(t, root, 3, 2, nil)
	defer r.Wait()
	want := payload(1, 4000)
	gen, err := r.Commit(1, want)
	if err != nil {
		t.Fatal(err)
	}
	r.Wait()

	var wg sync.WaitGroup
	stopAt := time.Now().Add(300 * time.Millisecond)
	// Corruptor: keeps re-corrupting replica 0's copy at rest.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ffs := NewFaultFS(OsFS{})
		path := filepath.Join(root, "r0", genName(gen.Seq))
		for time.Now().Before(stopAt) {
			_ = ffs.CorruptAtRest(path, Fault{Kind: BitFlip, FlipByte: 7})
			time.Sleep(2 * time.Millisecond)
		}
	}()
	// Scrubber: audits and heals concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(stopAt) {
			if _, err := r.Scrub(ScrubOptions{}); err != nil {
				t.Errorf("scrub: %v", err)
				return
			}
		}
	}()
	// Restorer: every read must succeed with verified, bit-exact bytes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(stopAt) {
			latest, ok := r.Latest()
			if !ok {
				t.Error("latest vanished during scrub race")
				return
			}
			got, err := r.ReadGeneration(latest.Seq)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("restore during scrub race: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}
