package faultsim

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lossyckpt/internal/ckpt"
	"lossyckpt/internal/climate"
	"lossyckpt/internal/guard"
	"lossyckpt/internal/store"
)

func climateApp(t *testing.T) (App, App) {
	t.Helper()
	cfg := climate.DefaultConfig()
	cfg.Nx, cfg.Nz = 64, 16
	mk := func() App {
		m, err := climate.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return AppFuncs{
			StepFn:         m.Step,
			StepCountFn:    m.StepCount,
			SetStepCountFn: m.SetStepCount,
			FieldsFn:       m.Fields,
		}
	}
	return mk(), mk()
}

func baseConfig(codec ckpt.Codec) Config {
	return Config{
		TotalSteps:      120,
		CheckpointEvery: 20,
		Codec:           codec,
		MTBF:            400 * time.Millisecond, // several failures expected
		StepCost:        10 * time.Millisecond,
		CheckpointCost:  5 * time.Millisecond,
		RestartCost:     8 * time.Millisecond,
		Seed:            7,
	}
}

func TestValidation(t *testing.T) {
	app, ref := climateApp(t)
	bad := []Config{
		{},
		func() Config { c := baseConfig(ckpt.None{}); c.TotalSteps = 0; return c }(),
		func() Config { c := baseConfig(ckpt.None{}); c.CheckpointEvery = 0; return c }(),
		func() Config { c := baseConfig(ckpt.None{}); c.Codec = nil; return c }(),
		func() Config { c := baseConfig(ckpt.None{}); c.MTBF = 0; return c }(),
		func() Config { c := baseConfig(ckpt.None{}); c.StepCost = 0; return c }(),
	}
	for i, c := range bad {
		if _, err := Run(app, ref, c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestLosslessRunMatchesReferenceExactly(t *testing.T) {
	app, ref := climateApp(t)
	res, err := Run(app, ref, baseConfig(ckpt.None{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatal("no failures injected; MTBF too large for the test to be meaningful")
	}
	if res.FinalError.MaxPct != 0 {
		t.Errorf("lossless rollbacks changed the result: %v", res.FinalError)
	}
	if res.ReworkSteps == 0 {
		t.Error("failures without rework")
	}
	if res.VirtualTime <= res.IdealTime {
		t.Error("virtual time not above ideal despite failures and checkpoints")
	}
	if res.OverheadPct() <= 0 {
		t.Error("non-positive overhead")
	}
}

func TestLossyRunSmallBoundedError(t *testing.T) {
	app, ref := climateApp(t)
	res, err := Run(app, ref, baseConfig(ckpt.NewLossy()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatal("no failures injected")
	}
	if res.FinalError.AvgPct == 0 {
		t.Error("lossy rollbacks introduced no error at all")
	}
	if res.FinalError.AvgPct > 1 {
		t.Errorf("final error %.4f%% too large", res.FinalError.AvgPct)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() *Result {
		app, ref := climateApp(t)
		res, err := Run(app, ref, baseConfig(ckpt.NewLossy()))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Failures != b.Failures || a.ReworkSteps != b.ReworkSteps || a.VirtualTime != b.VirtualTime {
		t.Errorf("seeded runs differ: %+v vs %+v", a, b)
	}
	if a.FinalError != b.FinalError {
		t.Errorf("seeded final errors differ: %v vs %v", a.FinalError, b.FinalError)
	}
}

func TestNoFailuresWithHugeMTBF(t *testing.T) {
	app, ref := climateApp(t)
	cfg := baseConfig(ckpt.NewLossy())
	cfg.MTBF = 1000 * time.Hour
	res, err := Run(app, ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 || res.ReworkSteps != 0 {
		t.Errorf("failures under huge MTBF: %+v", res)
	}
	// No rollback ever happened, so even the lossy run matches exactly:
	// checkpoints were written but never read back.
	if res.FinalError.MaxPct != 0 {
		t.Errorf("error without any restore: %v", res.FinalError)
	}
	wantCkpts := 1 + (cfg.TotalSteps-1)/cfg.CheckpointEvery
	if res.Checkpoints != wantCkpts {
		t.Errorf("checkpoints = %d, want %d", res.Checkpoints, wantCkpts)
	}
}

func TestMoreFailuresMoreRework(t *testing.T) {
	overhead := func(mtbf time.Duration) float64 {
		app, ref := climateApp(t)
		cfg := baseConfig(ckpt.NewLossy())
		cfg.MTBF = mtbf
		res, err := Run(app, ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.OverheadPct()
	}
	frequent := overhead(300 * time.Millisecond)
	rare := overhead(30 * time.Second)
	if frequent <= rare {
		t.Errorf("overhead with frequent failures (%.1f%%) not above rare (%.1f%%)", frequent, rare)
	}
}

func TestPathologicalMTBFAborts(t *testing.T) {
	app, ref := climateApp(t)
	cfg := baseConfig(ckpt.None{})
	// Failures ten times faster than a step completes: two steps expect 21
	// of them and would need some 44 000; the run gives up at 210.
	cfg.MTBF = cfg.StepCost / 10
	cfg.TotalSteps = 2
	if _, err := Run(app, ref, cfg); err == nil || !strings.Contains(err.Error(), "exceeded 210 failures") {
		t.Errorf("pathological MTBF: %v, want the run to give up at 210 failures", err)
	}
}

// TestRealIOStoreMatchesInMemory: routing rollbacks through the on-disk
// store must produce the same simulation outcome as the in-memory
// buffer — same failure process, same rework, bit-identical final state
// for a lossless codec.
func TestRealIOStoreMatchesInMemory(t *testing.T) {
	appMem, refMem := climateApp(t)
	resMem, err := Run(appMem, refMem, baseConfig(ckpt.None{}))
	if err != nil {
		t.Fatal(err)
	}

	appIO, refIO := climateApp(t)
	st, err := store.Open(t.TempDir(), store.Options{Keep: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(ckpt.None{})
	cfg.Store = st
	resIO, err := Run(appIO, refIO, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if resIO.Failures != resMem.Failures || resIO.ReworkSteps != resMem.ReworkSteps ||
		resIO.Checkpoints != resMem.Checkpoints {
		t.Fatalf("real-I/O run diverged: mem %+v vs io %+v", resMem, resIO)
	}
	if resIO.FinalError.MaxPct != 0 {
		t.Errorf("lossless real-I/O rollbacks changed the result: %v", resIO.FinalError)
	}
	if resIO.StoreFallbacks != 0 || resIO.PartialRestores != 0 {
		t.Errorf("clean store should need no fallbacks: %+v", resIO)
	}
	// The store retains at most Keep generations.
	if n := len(st.Generations()); n == 0 || n > 3 {
		t.Errorf("store retains %d generations, want 1..3", n)
	}
}

// TestRealIOTransientFaultsRideThrough injects transient errors into
// the store's filesystem during the simulation: the retry layer must
// absorb them with no effect on the run.
func TestRealIOTransientFaultsRideThrough(t *testing.T) {
	app, ref := climateApp(t)
	ffs := store.NewFaultFS(store.OsFS{})
	st, err := store.Open(t.TempDir(), store.Options{
		Keep: 2, FS: ffs, Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sprinkle transient failures over the first few hundred ops.
	for op := 5; op < 400; op += 13 {
		ffs.FailAt(op, store.Fault{Kind: store.ErrorOnce})
	}
	cfg := baseConfig(ckpt.None{})
	cfg.Store = st
	res, err := Run(app, ref, cfg)
	if err != nil {
		t.Fatalf("run with transient store faults: %v", err)
	}
	if res.FinalError.MaxPct != 0 {
		t.Errorf("transient faults corrupted the run: %v", res.FinalError)
	}
}

// TestRealIOFallbackOnCorruptLatest damages the newest generation on
// disk mid-run and lets the next rollback exercise the store's
// generation fallback inside the simulation.
func TestRealIOFallbackOnCorruptLatest(t *testing.T) {
	app, _ := climateApp(t)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Keep: 3})
	if err != nil {
		t.Fatal(err)
	}
	mgr := ckpt.NewManager(ckpt.None{}, 0)
	for _, nf := range app.Fields() {
		if err := mgr.Register(nf.Name, nf.Field); err != nil {
			t.Fatal(err)
		}
	}
	// Two generations; corrupt the newest on disk.
	if _, _, err := mgr.CheckpointTo(st, 0); err != nil {
		t.Fatal(err)
	}
	app.Step()
	if _, _, err := mgr.CheckpointTo(st, app.StepCount()); err != nil {
		t.Fatal(err)
	}
	latest, _ := st.Latest()
	path := filepath.Join(dir, fmt.Sprintf("gen-%08d.ckpt", latest.Seq))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopen so no cached state hides the damage, and restore.
	st2, err := store.Open(dir, store.Options{Keep: 3})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := mgr.RestoreLatest(st2)
	if err != nil {
		t.Fatalf("RestoreLatest with corrupt newest: %v", err)
	}
	if sr.Generation != latest.Seq-1 || sr.Step != 0 {
		t.Fatalf("restored %+v, want full fallback to generation %d", sr, latest.Seq-1)
	}
}

func TestGuardedRunWithScrubber(t *testing.T) {
	app, ref := climateApp(t)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Keep: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(ckpt.NewGuard(guard.Policy{MaxAbs: 1e-2, Verify: guard.VerifyDecode}))
	cfg.Store = st
	cfg.ScrubEvery = 2
	res, err := Run(app, ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatal("no failures injected")
	}
	if res.ScrubRuns == 0 {
		t.Fatalf("ScrubEvery=2 over %d checkpoints ran no scrubs", res.Checkpoints)
	}
	// The store is healthy, so the scrubber must not quarantine anything.
	if res.QuarantinedGens != 0 {
		t.Fatalf("clean run quarantined %d generations", res.QuarantinedGens)
	}
	// Guarded rollbacks honor the bound: the final drift stays small
	// (loose sanity check; the guard property test is the precise one).
	if res.FinalError.MaxPct > 50 {
		t.Fatalf("guarded run drifted wildly: %+v", res.FinalError)
	}
}

func TestGuardLosslessFallbackCounted(t *testing.T) {
	app, ref := climateApp(t)
	// An unmeetably tight bound forces every entry of every checkpoint down
	// to the gzip-only rung.
	pol := guard.Policy{MaxAbs: 1e-300, Verify: guard.VerifyDecode}
	cfg := baseConfig(ckpt.NewGuard(pol))
	res, err := Run(app, ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LosslessFallbacks == 0 {
		t.Fatal("unmeetable bound produced no lossless fallbacks")
	}
	// Lossless fallbacks mean rollbacks were bit-exact.
	if res.FinalError.MaxPct != 0 {
		t.Errorf("all-lossless run still drifted: %+v", res.FinalError)
	}
}

// TestReplicatedRunSurvivesReplicaLoss points the simulation at a 3-way
// replicated store and destroys a rotating replica's newest checkpoint
// copy with every injected failure. Rollbacks must be served by the
// surviving quorum (bit-exact for a lossless codec), periodic scrubs
// heal the losses, and the fleet converges to zero divergence.
func TestReplicatedRunSurvivesReplicaLoss(t *testing.T) {
	app, ref := climateApp(t)
	root := t.TempDir()
	rs, err := store.OpenReplicated(root, store.ReplicaDirs(root, 3), 2, store.Options{Keep: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(ckpt.None{})
	cfg.Store = rs
	cfg.ReplicaLossEvery = 1 // every failure also loses one replica's copy
	cfg.ScrubEvery = 2
	res, err := Run(app, ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs.Wait()
	if res.Failures == 0 {
		t.Fatal("no failures injected")
	}
	if res.ReplicaLosses == 0 {
		t.Fatal("no replica losses injected")
	}
	if res.FinalError.MaxPct != 0 {
		t.Errorf("lossless quorum rollbacks changed the result: %v", res.FinalError)
	}
	// A final scrub converges the fleet; every retained generation must
	// then be byte-identical on all three replicas.
	rep, err := rs.Scrub(store.ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Divergent != 0 {
		t.Fatalf("residual divergence %d after final scrub: %+v", rep.Divergent, rep)
	}
	for _, g := range rs.Generations() {
		var want []byte
		for i := 0; i < 3; i++ {
			data, err := os.ReadFile(filepath.Join(root, fmt.Sprintf("r%d", i), store.GenName(g.Seq)))
			if err != nil {
				t.Fatalf("replica %d gen %d: %v", i, g.Seq, err)
			}
			if want == nil {
				want = data
			} else if string(data) != string(want) {
				t.Fatalf("replica %d gen %d differs after scrub", i, g.Seq)
			}
		}
	}
}

// TestReplicaLossNeedsReplicatedStore rejects ReplicaLossEvery on a
// plain (or absent) store.
func TestReplicaLossNeedsReplicatedStore(t *testing.T) {
	app, ref := climateApp(t)
	cfg := baseConfig(ckpt.None{})
	cfg.ReplicaLossEvery = 1
	if _, err := Run(app, ref, cfg); err == nil {
		t.Fatal("ReplicaLossEvery without a replicated store accepted")
	}
	st, err := store.Open(t.TempDir(), store.Options{Keep: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	if _, err := Run(app, ref, cfg); err == nil {
		t.Fatal("ReplicaLossEvery with a single-root store accepted")
	}
}
