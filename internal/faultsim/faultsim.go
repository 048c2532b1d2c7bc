// Package faultsim injects failures into a checkpointed application run —
// the methodology of Ni et al. (SC 2014), the lossy-checkpointing
// feasibility study the reproduced paper builds on (its reference [31],
// §V): run an application under a failure process, roll back to the last
// (lossy) checkpoint on every failure, and measure both the time cost and
// the damage the accumulated lossy restarts do to the solution.
//
// The simulation advances an application in virtual time: each model step
// costs StepCost, each checkpoint CheckpointCost, each restart
// RestartCost. Failures arrive by a seeded exponential process with the
// configured MTBF (in virtual time). On failure, the run rolls back to
// the last checkpoint — whose state passed through the configured codec,
// so every rollback of a lossy run re-injects compression error — and
// replays the lost steps. At the end the run's state is compared with a
// failure-free reference.
//
// Applications plug in via the App interface; Adapt wraps the climate
// model's step/fields surface.
package faultsim

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"lossyckpt/internal/ckpt"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/guard"
	"lossyckpt/internal/obs"
	"lossyckpt/internal/obs/journal"
	"lossyckpt/internal/stats"
	"lossyckpt/internal/store"
)

// Metric names recorded by a simulation run. Failures and rollbacks carry
// no labels; checkpoints and rollbacks also appear as ckpt-layer spans.
const (
	MetricFailures    = "lossyckpt_faultsim_failures_total"
	MetricRollbacks   = "lossyckpt_faultsim_rollbacks_total"
	MetricReworkSteps = "lossyckpt_faultsim_rework_steps_total"
	MetricVirtualSec  = "lossyckpt_faultsim_virtual_seconds"
	MetricOverheadPct = "lossyckpt_faultsim_overhead_pct"
)

// ErrConfig indicates invalid simulation parameters.
var ErrConfig = errors.New("faultsim: invalid configuration")

// App is the application surface the simulator drives. Implementations
// must step deterministically given their state and step counter.
type App interface {
	// Step advances the application one step.
	Step()
	// StepCount returns the number of completed steps.
	StepCount() int
	// SetStepCount overrides the step counter after a restore.
	SetStepCount(int)
	// Fields exposes the checkpointable state arrays by name, in a stable
	// order. The returned fields are live: mutating them mutates the app.
	Fields() []grid.Named
}

// Config parameterizes a failure-injected run.
type Config struct {
	// TotalSteps is the amount of useful work to complete.
	TotalSteps int
	// CheckpointEvery is the checkpoint interval in steps.
	CheckpointEvery int
	// Codec compresses checkpoints.
	Codec ckpt.Codec
	// MTBF is the mean time between failures in virtual time.
	MTBF time.Duration
	// StepCost, CheckpointCost and RestartCost are the virtual-time costs
	// charged per step, per checkpoint, and per rollback.
	StepCost, CheckpointCost, RestartCost time.Duration
	// Seed drives the failure process.
	Seed int64
	// Store, when non-nil, switches the run to real-I/O mode: every
	// checkpoint commits atomically to this crash-safe on-disk store and
	// every rollback restores through its generation-by-generation
	// fallback (ckpt.RestoreLatest) instead of an in-memory buffer. The
	// store's fault-injecting FS can then exercise torn writes and
	// crashes inside the failure simulation itself. Any store.Target
	// works: point it at a *store.ReplicatedStore and every checkpoint
	// becomes a quorum commit, every rollback a quorum read.
	Store store.Target
	// ReplicaLossEvery, when positive (requires a replicated Store),
	// destroys the newest generation payload on one replica — rotating
	// the victim — after every ReplicaLossEvery-th failure, modelling a
	// node that loses its local checkpoint copy. Rollbacks must then
	// succeed through the surviving quorum, and read-repair (or an
	// in-run scrub) re-materializes the lost copy.
	ReplicaLossEvery int
	// Observer receives simulation telemetry (failure/rollback counters,
	// virtual-time gauges) and is handed to the checkpoint manager the run
	// creates, so checkpoint/restore spans land in the same registry. nil
	// falls back to the process default.
	Observer *obs.Registry
	// ScrubEvery, when positive (real-I/O mode only), runs a store scrub
	// (framing and envelope CRCs) after every ScrubEvery-th checkpoint,
	// modelling a background integrity auditor sharing the run.
	// Quarantined generations are the retention ring doing its job: the
	// next rollback falls back to an older generation instead of
	// consuming rot.
	ScrubEvery int
}

func (c Config) validate() error {
	if c.TotalSteps < 1 || c.CheckpointEvery < 1 {
		return fmt.Errorf("%w: steps %d, interval %d", ErrConfig, c.TotalSteps, c.CheckpointEvery)
	}
	if c.Codec == nil {
		return fmt.Errorf("%w: nil codec", ErrConfig)
	}
	if c.MTBF <= 0 || c.StepCost <= 0 || c.CheckpointCost < 0 || c.RestartCost < 0 {
		return fmt.Errorf("%w: mtbf %v, step %v, ckpt %v, restart %v",
			ErrConfig, c.MTBF, c.StepCost, c.CheckpointCost, c.RestartCost)
	}
	return nil
}

// Result reports one failure-injected run.
type Result struct {
	// Failures is the number of injected failures.
	Failures int
	// ReworkSteps counts steps that had to be re-executed after rollbacks.
	ReworkSteps int
	// Checkpoints is the number of checkpoints written.
	Checkpoints int
	// VirtualTime is the total simulated wall-clock time (work + rework +
	// checkpoints + restarts).
	VirtualTime time.Duration
	// IdealTime is TotalSteps × StepCost: the failure- and
	// checkpoint-free floor.
	IdealTime time.Duration
	// FinalError compares the run's first state array with the
	// failure-free reference at the same step (zero for lossless codecs).
	FinalError stats.Summary
	// StoreFallbacks counts rollbacks (real-I/O mode only) that could
	// not use the newest generation and fell back to an older one.
	StoreFallbacks int
	// PartialRestores counts rollbacks (real-I/O mode only) that
	// recovered only a subset of the arrays via frame-level recovery.
	PartialRestores int
	// LosslessFallbacks counts checkpoint entries the guard codec had to
	// degrade to bit-exact gzip to honor its bound (guard codec only).
	LosslessFallbacks int
	// ScrubRuns and QuarantinedGens report the in-run scrubber's activity
	// (real-I/O mode with ScrubEvery set).
	ScrubRuns       int
	QuarantinedGens int
	// ReplicaLosses counts replica payloads the run destroyed via
	// Config.ReplicaLossEvery; ReplicaRepairs counts generations in-run
	// scrubs re-materialized onto replicas (replicated mode only).
	ReplicaLosses  int
	ReplicaRepairs int
}

// OverheadPct returns the virtual-time overhead over the ideal run.
func (r *Result) OverheadPct() float64 {
	if r.IdealTime <= 0 {
		return math.NaN()
	}
	return 100 * (float64(r.VirtualTime)/float64(r.IdealTime) - 1)
}

// Run executes the failure-injected simulation on app and compares the
// final state against reference, an identical app instance that is
// stepped without failures or checkpoints.
func Run(app, reference App, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	mgr := ckpt.NewManager(cfg.Codec, 0)
	obsr := cfg.Observer
	if obsr == nil {
		obsr = obs.Default()
	}
	mgr.SetObserver(obsr)
	if err := mgr.RegisterAll(app.Fields()); err != nil {
		return nil, err
	}
	var repl *store.ReplicatedStore
	if cfg.ReplicaLossEvery > 0 {
		r, ok := cfg.Store.(*store.ReplicatedStore)
		if !ok || r.Replicas() < 2 {
			return nil, fmt.Errorf("%w: ReplicaLossEvery requires a replicated store with >=2 replicas", ErrConfig)
		}
		repl = r
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nextFailure := exponential(rng, cfg.MTBF)
	// Ten times the failures the work is expected to meet: past that the
	// run is pathological and aborts.
	maxFailures := 10 * (int(float64(cfg.TotalSteps)*float64(cfg.StepCost)/float64(cfg.MTBF)) + 1)

	res := &Result{IdealTime: time.Duration(cfg.TotalSteps) * cfg.StepCost}
	var clock time.Duration
	var lastCkpt bytes.Buffer
	haveCkpt := false

	checkpoint := func() error {
		var rep *ckpt.Report
		if cfg.Store != nil {
			var err error
			if rep, _, err = mgr.CheckpointTo(cfg.Store, app.StepCount()); err != nil {
				return err
			}
		} else {
			lastCkpt.Reset()
			var err error
			if rep, err = mgr.Checkpoint(&lastCkpt, app.StepCount()); err != nil {
				return err
			}
		}
		for _, e := range rep.Entries {
			if e.Guarantee != nil && e.Guarantee.Mode == guard.Lossless {
				res.LosslessFallbacks++
			}
		}
		haveCkpt = true
		res.Checkpoints++
		clock += cfg.CheckpointCost
		if cfg.Store != nil && cfg.ScrubEvery > 0 && res.Checkpoints%cfg.ScrubEvery == 0 {
			srep, err := cfg.Store.Scrub(store.ScrubOptions{
				Verify: ckpt.StoreVerifier(false, 0)})
			if err != nil {
				return fmt.Errorf("faultsim: scrub after checkpoint %d: %w", res.Checkpoints, err)
			}
			res.ScrubRuns++
			res.QuarantinedGens += len(srep.Quarantined)
			for _, rs := range srep.Replicas {
				res.ReplicaRepairs += len(rs.Repaired)
			}
		}
		return nil
	}
	// rollback restores the last checkpoint and returns the step it
	// rewound to. In real-I/O mode the restore walks the store's
	// retention ring, so a damaged newest generation degrades to an
	// older one instead of failing the run.
	rollback := func() (int, error) {
		if cfg.Store != nil {
			sr, err := mgr.RestoreLatest(cfg.Store)
			if err != nil {
				return 0, err
			}
			if latest, ok := cfg.Store.Latest(); ok && sr.Generation != latest.Seq {
				res.StoreFallbacks++
			}
			if sr.Partial {
				res.PartialRestores++
			}
			return sr.Step, nil
		}
		rep, err := mgr.Restore(bytes.NewReader(lastCkpt.Bytes()))
		if err != nil {
			return 0, err
		}
		return rep.Step, nil
	}
	// Initial checkpoint so a failure before the first interval has a
	// rollback target.
	if err := checkpoint(); err != nil {
		return nil, err
	}
	baseStep := app.StepCount()

	for app.StepCount() < baseStep+cfg.TotalSteps {
		// Fail any number of times before this step completes.
		for clock+cfg.StepCost > nextFailure {
			if res.Failures >= maxFailures {
				return nil, fmt.Errorf("faultsim: exceeded %d failures; MTBF too small for the workload", maxFailures)
			}
			res.Failures++
			clock = nextFailure
			nextFailure = clock + exponential(rng, cfg.MTBF)
			if !haveCkpt {
				return nil, errors.New("faultsim: failure before any checkpoint")
			}
			if repl != nil && res.Failures%cfg.ReplicaLossEvery == 0 {
				// A node loses its local checkpoint copy along with the
				// failure: destroy the newest payload on a rotating victim.
				// The manifest still lists it, so restore sees a missing
				// file there and must fall through to the quorum.
				victim := (res.Failures / cfg.ReplicaLossEvery) % repl.Replicas()
				if st, rerr := repl.Replica(victim); rerr == nil && st != nil {
					if g, ok := st.Latest(); ok {
						if os.Remove(filepath.Join(st.Dir(), store.GenName(g.Seq))) == nil {
							res.ReplicaLosses++
							journal.Note(obsr, "faultsim.replica_loss", "replica", victim, "gen", g.Seq)
						}
					}
				}
			}
			before := app.StepCount()
			step, err := rollback()
			if err != nil {
				return nil, err
			}
			app.SetStepCount(step)
			res.ReworkSteps += before - step
			clock += cfg.RestartCost
			obsr.Counter(MetricFailures).Inc()
			obsr.Counter(MetricRollbacks).Inc()
			obsr.Counter(MetricReworkSteps).Add(float64(before - step))
			journal.Note(obsr, "faultsim.failure",
				"at_step", before, "rolled_back_to", step, "virtual_clock", clock.String())
		}
		app.Step()
		clock += cfg.StepCost
		done := app.StepCount() - baseStep
		if done%cfg.CheckpointEvery == 0 && done < cfg.TotalSteps {
			if err := checkpoint(); err != nil {
				return nil, err
			}
		}
	}
	res.VirtualTime = clock

	// Advance the reference to the same step, failure-free.
	for reference.StepCount() < app.StepCount() {
		reference.Step()
	}
	af, rf := app.Fields(), reference.Fields()
	if len(af) == 0 || len(af) != len(rf) {
		return nil, fmt.Errorf("faultsim: app exposes %d fields, reference %d", len(af), len(rf))
	}
	s, err := stats.Compare(rf[0].Field.Data(), af[0].Field.Data())
	if err != nil {
		return nil, err
	}
	res.FinalError = s
	if obsr != nil {
		obsr.Gauge(MetricVirtualSec).Set(res.VirtualTime.Seconds())
		obsr.Gauge(MetricOverheadPct).Set(res.OverheadPct())
	}
	return res, nil
}

// exponential draws an exponentially distributed interarrival time.
func exponential(rng *rand.Rand, mean time.Duration) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

// AppFuncs adapts any application exposing step/counter/fields functions
// to the App interface, so substrates (climate, heat, nbody) plug in
// without depending on this package.
type AppFuncs struct {
	StepFn         func()
	StepCountFn    func() int
	SetStepCountFn func(int)
	FieldsFn       func() []grid.Named
}

// Step implements App.
func (a AppFuncs) Step() { a.StepFn() }

// StepCount implements App.
func (a AppFuncs) StepCount() int { return a.StepCountFn() }

// SetStepCount implements App.
func (a AppFuncs) SetStepCount(n int) { a.SetStepCountFn(n) }

// Fields implements App.
func (a AppFuncs) Fields() []grid.Named { return a.FieldsFn() }
