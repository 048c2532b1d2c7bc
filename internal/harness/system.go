package harness

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lossyckpt/internal/cas"
	"lossyckpt/internal/ckpt"
	"lossyckpt/internal/climate"
	"lossyckpt/internal/core"
	"lossyckpt/internal/faultsim"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/gzipio"
	"lossyckpt/internal/incr"
	"lossyckpt/internal/interval"
	"lossyckpt/internal/iomodel"
	"lossyckpt/internal/parallel"
	"lossyckpt/internal/quant"
	"lossyckpt/internal/server"
	"lossyckpt/internal/stats"
	"lossyckpt/internal/store"
)

// cluster is experiment X6: the executed counterpart of Fig. 9 — real
// concurrent per-rank compression on this machine's cores plus the modeled
// 20 GB/s filesystem, for a sweep of rank counts. Unlike the analytic
// estimator it measures CPU contention once ranks outnumber cores.
func cluster(cfg Config, t *Table) error {
	for _, ranks := range []int{1, 2, 4, 8, 16, 32} {
		pc := parallel.DefaultConfig(ranks, ckpt.NewLossy())
		pc.ElemsPerRank = cfg.Nx * cfg.Nz * cfg.Nc
		pc.Seed = cfg.Seed
		out, err := parallel.Run(pc)
		if err != nil {
			return err
		}
		t.AddRow(ranks, out.CompressionRatePct(), ms(out.CompressMakespan),
			ms(out.IOTime), ms(out.TotalWith()), ms(out.TotalWithout()))
	}
	t.Notes = append(t.Notes,
		"compression makespan plateaus at the core count (embarrassingly parallel, paper §IV-D);",
		"verify restartability: parallel.ReplayRank decodes any rank's payload")
	return nil
}

// The interval experiment's operating point: the paper's P=2048 weak-scaling
// point, an exascale-projection MTBF (paper §I: "a few hours") and ten days
// of work.
const (
	intervalProcs = 2048
	intervalMTBF  = 4 * time.Hour
	intervalSolve = 240 * time.Hour
)

// dalyInterval is experiment X7: the paper's §VI future work — re-optimize
// the checkpoint interval (Daly's model) for compressed vs uncompressed
// checkpoints using this machine's measured compression cost and the
// paper's filesystem model, and report the end-to-end runtime saving.
func dalyInterval(cfg Config, t *Table) error {
	timings, rate, rawBytes, err := measureBreakdown(cfg)
	if err != nil {
		return err
	}
	fs := iomodel.PaperFS
	ioWith := fs.WriteTime(int64(float64(rawBytes) * rate * intervalProcs))
	ioWithout := fs.WriteTime(int64(rawBytes) * intervalProcs)
	compCost := timings.Total
	scenarios := []interval.Scenario{
		{Name: "lossy compression", CheckpointCost: compCost + ioWith, RestartCost: compCost + ioWith},
		{Name: "no compression", CheckpointCost: ioWithout, RestartCost: ioWithout},
	}
	plans, err := interval.Compare(intervalSolve, intervalMTBF, scenarios)
	if err != nil {
		return err
	}
	for _, p := range plans {
		t.AddRow(p.Name, p.CheckpointCost.Round(time.Millisecond).String(),
			p.OptimalInterval.Round(time.Second).String(),
			100*p.Waste, p.ExpectedRuntime.Round(time.Minute).String())
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("end-to-end speedup from lossy compression: %.2f%%", interval.SpeedupPct(plans[0], plans[1])),
		"paper §VI lists combining lossy compression with checkpoint-interval models as future work")
	return nil
}

// faults is experiment X10: failure injection in the style of the paper's
// reference [31] (Ni et al., SC 2014) — run the climate workload under an
// exponential failure process with lossy checkpoints, rolling back to the
// last checkpoint on every failure, and report rework, overhead and the
// damage the accumulated lossy restores do to the final state.
func faults(cfg Config, t *Table) error {
	mc := climate.DefaultConfig()
	// Failure injection replays work after every rollback, so it runs on a
	// reduced grid even at paper scale (and respects smaller test configs).
	mc.Nx, mc.Nz, mc.Nc = min(cfg.Nx, 289), min(cfg.Nz, 41), cfg.Nc
	mc.Seed = cfg.Seed
	mkApp := func() (faultsim.App, error) {
		m, err := climate.New(mc)
		if err != nil {
			return nil, err
		}
		return faultsim.AppFuncs{
			StepFn:         m.Step,
			StepCountFn:    m.StepCount,
			SetStepCountFn: m.SetStepCount,
			FieldsFn:       m.Fields,
		}, nil
	}

	for _, codecName := range []string{"gzip", "lossy"} {
		for _, mtbf := range []time.Duration{300 * time.Millisecond, 1 * time.Second, 5 * time.Second} {
			codec, err := ckpt.CodecByName(codecName)
			if err != nil {
				return err
			}
			app, err := mkApp()
			if err != nil {
				return err
			}
			ref, err := mkApp()
			if err != nil {
				return err
			}
			res, err := faultsim.Run(app, ref, faultsim.Config{
				TotalSteps:      150,
				CheckpointEvery: 25,
				Codec:           codec,
				MTBF:            mtbf,
				StepCost:        10 * time.Millisecond,
				CheckpointCost:  5 * time.Millisecond,
				RestartCost:     8 * time.Millisecond,
				Seed:            cfg.Seed,
			})
			if err != nil {
				return err
			}
			t.AddRow(codecName, mtbf.String(), res.Failures, res.ReworkSteps,
				res.OverheadPct(), res.FinalError.AvgPct, res.FinalError.MaxPct)
		}
	}
	t.Notes = append(t.Notes,
		"reference [31] of the paper injects varying failure counts into an N-body code with lossy checkpoints;",
		"lossless rows bound the time cost, lossy rows add the compression error re-injected per rollback")
	return nil
}

// incremental is experiment X11: the paper's §I dismisses incremental
// checkpointing for mesh applications because "the majority of the memory
// footprint is frequently updated". This runner quantifies the claim:
// incremental diffs between consecutive climate checkpoints (every value
// changes every step) against the same data compressed with gzip and with
// the lossy pipeline — plus a sparse-update control workload where
// incremental is expected to win.
func incremental(cfg Config, t *Table) error {
	m, err := cfg.model()
	if err != nil {
		return err
	}
	temp := m.Field("temperature")

	measure := func(name string, prev, cur *grid.Field) error {
		tr := incr.NewTracker(gzipio.Default)
		tr.Register(name, prev)
		diff, err := tr.EncodeDiff(name, cur)
		if err != nil {
			return err
		}
		gz, err := cfg.gzipOnly(cur)
		if err != nil {
			return err
		}
		lossy, err := core.Compress(cur, cfg.options(quant.Proposed, 128))
		if err != nil {
			return err
		}
		t.AddRow(name,
			stats.CompressionRate(len(diff), cur.Bytes()),
			gz.CompressionRatePct(),
			lossy.CompressionRatePct())
		return nil
	}

	// Dense updates: two climate checkpoints one interval apart — the
	// paper's CFD-like regime.
	prev := temp.Clone()
	m.StepN(max(cfg.WarmupSteps/8, 1))
	if err := measure("climate (dense updates)", prev, m.Field("temperature")); err != nil {
		return err
	}

	// Sparse updates: the same array with only 1% of values touched — the
	// regime incremental checkpointing was designed for. The mutation
	// comes from the shared faultsim sparse workload so this control and
	// the dedup experiment (X17) sweep the same update pattern.
	sparsePrev := temp.Clone()
	sparseCur := temp.Clone()
	faultsim.MutateSparse(sparseCur, 0.01, cfg.Seed, 1)
	if err := measure("sparse control (1% updates)", sparsePrev, sparseCur); err != nil {
		return err
	}

	t.Notes = append(t.Notes,
		"paper §I: incremental checkpointing is limited for real applications because the whole footprint updates each step;",
		"the dense row shows the diff compressing no better than gzip, while lossy stays an order of magnitude smaller")
	return nil
}

// serveChaos is experiment X16: the checkpoint daemon under
// multi-tenant load with a kill. Three tenants — one per workload —
// save concurrently through the HTTP gateway for several rounds while
// the admission cap is held below the offered load, so backpressure
// (429 + Retry-After) is exercised, not just configured. Then the
// climate tenant's filesystem crashes mid-save; the daemon is torn
// down and reopened over the same directories, and the experiment
// verifies what the chaos matrix verifies: every tenant restores its
// last committed generation bit-for-bit, fsck reports every store
// clean, and no temp litter survives the restart.
func serveChaos(cfg Config, t *Table) error {
	const rounds = 3

	root, err := os.MkdirTemp(cfg.TmpDir, "lossyckpt-serve-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	fields := map[string][]grid.Named{}
	for _, w := range workloads {
		if fields[w], err = cfg.WorkloadFields(w, cfg.workloadSteps(w)); err != nil {
			return err
		}
	}

	// daemon brings a daemon up over root's tenant directories and returns
	// its clients, one per tenant, and its teardown, which is safe to call
	// twice. The climate tenant runs over fs so that the kill lands under a
	// live daemon; the others run on the real filesystem. Admission cap of 2
	// under 3 concurrent heavy requests: at least one round should shed.
	daemon := func(fs store.FS) (map[string]*server.Client, func(), error) {
		tenants := make([]server.TenantConfig, len(workloads))
		for i, w := range workloads {
			tenants[i] = server.TenantConfig{
				Name: w, Token: "tok-" + w, Dir: filepath.Join(root, w), Keep: rounds + 2,
			}
			if w == "climate" {
				tenants[i].FS = fs
			}
		}
		srv, err := server.New(server.Config{Tenants: tenants, MaxInFlight: 2})
		if err != nil {
			return nil, nil, err
		}
		ts := httptest.NewServer(srv.Handler())
		clients := map[string]*server.Client{}
		for _, w := range workloads {
			clients[w] = &server.Client{BaseURL: ts.URL, Tenant: w, Token: "tok-" + w}
		}
		var once sync.Once
		return clients, func() { once.Do(func() { ts.Close(); srv.Close() }) }, nil
	}

	ffs := store.NewFaultFS(store.OsFS{})
	clients, stop, err := daemon(ffs)
	if err != nil {
		return err
	}
	// Every return from here on leaves no daemon behind: its listener, its
	// tenants' open stores and the FaultFS would otherwise outlive the
	// directories the deferred RemoveAll deletes under them.
	defer stop()

	type tally struct {
		accepted, shed int
	}
	tallies := map[string]*tally{}
	for _, w := range workloads {
		tallies[w] = &tally{}
	}

	// Load phase: every tenant saves each round concurrently; a shed
	// request is retried (sequentially) so each round still commits.
	for round := 1; round <= rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, len(workloads))
		for _, w := range workloads {
			wg.Add(1)
			go func(w string) {
				defer wg.Done()
				for {
					_, err := clients[w].Save(round, "", fields[w])
					var se *server.StatusError
					if errors.As(err, &se) && se.Code == http.StatusTooManyRequests {
						tallies[w].shed++
						continue
					}
					if err != nil {
						errs <- fmt.Errorf("serve: %s round %d: %w", w, round, err)
						return
					}
					tallies[w].accepted++
					return
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			return err
		}
	}

	// Kill phase: the climate filesystem dies partway through the next
	// save — every FS op from the kill point on fails, modelling a
	// power cut mid-request.
	ffs.FailAt(ffs.Ops()+3, store.Fault{Kind: store.Crash})
	_, err = clients["climate"].Save(rounds+1, "", fields["climate"])
	var killed *server.StatusError
	if err == nil {
		return fmt.Errorf("serve: save over crashed filesystem reported success")
	} else if !errors.As(err, &killed) {
		return err
	}
	stop()

	// Restart over the same directories with a healthy filesystem; the
	// startup recovery path owns whatever the kill left behind.
	clients, stop2, err := daemon(store.OsFS{})
	if err != nil {
		return fmt.Errorf("serve: reopen after kill: %w", err)
	}
	defer stop2()

	totalShed := 0
	for _, w := range workloads {
		r, err := clients[w].Restore()
		if err != nil {
			return fmt.Errorf("serve: %s restore after kill: %w", w, err)
		}
		intact := fieldsMatch(r.Fields, fields[w])
		sr, err := clients[w].Fsck(false)
		if err != nil {
			return fmt.Errorf("serve: %s fsck after kill: %w", w, err)
		}

		kill := "-"
		if w == "climate" {
			kill = fmt.Sprintf("mid-save (HTTP %d)", killed.Code)
		}
		tl := tallies[w]
		totalShed += tl.shed
		t.AddRow(w, tl.accepted, tl.shed, kill, r.Generation, yesNo(intact), yesNo(sr.Clean))
		if !intact || !sr.Clean {
			return fmt.Errorf("serve: %s survived the kill dirty (intact=%v clean=%v)", w, intact, sr.Clean)
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("admission cap 2 under 3 concurrent tenants shed %d request(s) with 429 + Retry-After; all were retried to completion", totalShed),
		"the climate tenant's filesystem crashed mid-save; after restart every tenant restored its last committed generation and fsck found every store clean")
	return nil
}

// fieldsMatch reports whether the restored fields are bit-identical to
// the originals (the daemon default codec is lossless).
func fieldsMatch(got, want []grid.Named) bool {
	if len(got) != len(want) {
		return false
	}
	byName := map[string]*grid.Field{}
	for _, nf := range want {
		byName[nf.Name] = nf.Field
	}
	for _, nf := range got {
		if ref := byName[nf.Name]; ref == nil || !ref.Equal(nf.Field) {
			return false
		}
	}
	return true
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// dedup is experiment X17: delta checkpointing through the
// content-addressed chunk store. The sparse-update workload (shared
// with X11's incremental control) is checkpointed for several
// generations at mutation fractions of 0, 1, 10 and 100% of the
// footprint per step; each generation reports the bytes the dedup
// store physically committed (recipe + new chunks), the dedup ratio so
// far, the compression CPU the delta slab cache actually spent, and
// how many slabs it reused. The 1% series is then replayed through a
// dedup tenant of the checkpoint daemon to show the same accounting
// end-to-end over HTTP.
func dedup(cfg Config, t *Table) error {
	const (
		gens  = 3
		elems = 1 << 16 // 512 KiB logical footprint
	)
	fractions := []float64{0, 0.01, 0.10, 1.0}
	// Chunks sized below the compressed slab frames, so one dirty slab
	// dirties a few chunks, not most of the payload.
	chunkCfg := cas.Config{Min: 4 << 10, Avg: 16 << 10, Max: 64 << 10}

	root, err := os.MkdirTemp(cfg.TmpDir, "lossyckpt-dedup-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	for fi, frac := range fractions {
		app, err := faultsim.NewSparseApp(faultsim.SparseConfig{
			Elems: elems, MutateFraction: frac, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		codec := ckpt.NewLossy()
		codec.ChunkExtent = elems / 32 // 32 slabs for the delta cache
		mgr := ckpt.NewManager(codec, 0)
		mgr.SetDelta(true)
		if err := mgr.RegisterAll(app.Fields()); err != nil {
			return err
		}
		st, err := store.Open(filepath.Join(root, fmt.Sprintf("f%d", fi)),
			store.Options{Keep: -1, Dedup: true, DedupChunk: chunkCfg})
		if err != nil {
			return err
		}
		for g := 1; g <= gens; g++ {
			if g > 1 {
				app.Step()
			}
			before := st.PhysicalBytes()
			rep, gen, err := mgr.CheckpointTo(st, app.StepCount())
			if err != nil {
				return err
			}
			committed := st.PhysicalBytes() - before
			agg := rep.AggregateTimings()
			compress := agg.Wavelet + agg.Quantize + agg.Encode + agg.Gzip
			t.AddRow(frac*100, g, float64(gen.Size)/1024, float64(committed)/1024,
				st.DedupStats().Ratio(), ms(compress), rep.DeltaSlabsReused)
		}
		// Every generation must read back byte-exact from the chunk layer
		// — dedup changes storage, never payloads.
		for _, g := range st.Generations() {
			if _, err := st.ReadGeneration(g.Seq); err != nil {
				return fmt.Errorf("dedup: generation %d unreadable at %.0f%% mutation: %w",
					g.Seq, frac*100, err)
			}
		}
	}

	// Daemon leg: the 1% series through a dedup tenant over HTTP.
	if err := dedupDaemonLeg(t, root, cfg.Seed, elems, gens, chunkCfg); err != nil {
		return err
	}

	t.Notes = append(t.Notes,
		"committed bytes are physical (recipe + new chunks); unchanged content-defined chunks are stored once",
		"compress CPU drops with mutation fraction because the delta slab cache skips the pipeline for clean slabs",
		"the daemon row shows the same accounting through a dedup tenant's save/inspect HTTP surface")
	return nil
}

// dedupDaemonLeg replays the 1%-mutation series through a daemon
// tenant with dedup enabled and appends one summary row from the
// inspect endpoint.
func dedupDaemonLeg(t *Table, root string, seed int64, elems, gens int, chunkCfg cas.Config) error {
	srv, err := server.New(server.Config{
		StoreOptions: store.Options{DedupChunk: chunkCfg},
		Tenants: []server.TenantConfig{{
			Name: "dedup", Token: "tok", Dir: filepath.Join(root, "daemon"),
			Keep: -1, Dedup: true,
		}}})
	if err != nil {
		return err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &server.Client{BaseURL: ts.URL, Tenant: "dedup", Token: "tok"}

	app, err := faultsim.NewSparseApp(faultsim.SparseConfig{
		Elems: elems, MutateFraction: 0.01, Seed: seed})
	if err != nil {
		return err
	}
	for g := 1; g <= gens; g++ {
		if g > 1 {
			app.Step()
		}
		if _, err := client.Save(app.StepCount(), "", app.Fields()); err != nil {
			return fmt.Errorf("dedup: daemon save %d: %w", g, err)
		}
	}
	ir, err := client.Inspect()
	if err != nil {
		return err
	}
	if ir.Dedup == nil {
		return fmt.Errorf("dedup: daemon inspect returned no dedup accounting")
	}
	t.AddRow("1 (daemon)", len(ir.Generations), float64(ir.Dedup.LogicalBytes)/1024,
		float64(ir.UsedBytes)/1024, ir.Dedup.Ratio, "-", "-")
	return nil
}
