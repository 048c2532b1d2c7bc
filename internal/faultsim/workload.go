// workload.go provides the sparse-update synthetic workload shared by
// experiment X11 (incremental-vs-lossy, harness's "incremental") and the
// dedup experiment (its "dedup"): an application whose step touches
// only a configurable fraction of its footprint. The paper's §I argues
// incremental approaches are limited because real mesh codes update the
// whole footprint every step; this workload is the opposing regime —
// localized updates — where both incremental diffs and content-defined
// dedup are expected to win, giving the experiments a controlled axis
// (MutateFraction) to sweep.
package faultsim

import (
	"fmt"
	"math/rand"

	"lossyckpt/internal/grid"
)

// MutateSparse overwrites a contiguous region covering frac of f
// (clamped to [0,1]) with fresh Gaussian values. The region's position
// and content derive only from (seed, step), so a rolled-back
// application replaying the same steps reproduces bit-identical states
// — the determinism the failure simulator requires — and two processes
// (e.g. the harness and a daemon client) can generate the same
// generation series independently.
//
// The region is contiguous rather than scattered on purpose: localized
// updates model a moving front or active subdomain, and they are the
// regime where chunk-level dedup can actually skip work. A scattered
// 1% point-update dirties essentially every content-defined chunk and
// is indistinguishable from a full rewrite to a dedup store.
func MutateSparse(f *grid.Field, frac float64, seed int64, step int) {
	n := f.Len()
	if n == 0 || frac <= 0 {
		return
	}
	if frac > 1 {
		frac = 1
	}
	count := int(frac * float64(n))
	if count < 1 {
		count = 1
	}
	rng := rand.New(rand.NewSource(seed ^ (int64(step)+1)*0x5851f42d4c957f2d))
	start := rng.Intn(n)
	d := f.Data()
	for k := 0; k < count; k++ {
		d[(start+k)%n] = rng.NormFloat64()
	}
}

// SparseConfig parameterizes the synthetic sparse-update application.
type SparseConfig struct {
	// Elems is the footprint size in float64 elements.
	Elems int
	// MutateFraction is the fraction of the footprint each step
	// overwrites (0 = steps only advance the counter; 1 = full rewrite).
	MutateFraction float64
	// Seed drives both the initial state and the per-step mutations.
	Seed int64
}

// SparseApp is a synthetic App whose Step overwrites MutateFraction of
// a single state array at a deterministic, step-dependent location. It
// exists to sweep checkpoint techniques across update density without
// the cost (or the dense-update behaviour) of the climate model.
type SparseApp struct {
	cfg   SparseConfig
	field *grid.Field
	steps int
}

// NewSparseApp builds the workload with a deterministic initial state.
func NewSparseApp(cfg SparseConfig) (*SparseApp, error) {
	if cfg.Elems < 1 {
		return nil, fmt.Errorf("%w: sparse workload needs >=1 element, got %d", ErrConfig, cfg.Elems)
	}
	if cfg.MutateFraction < 0 || cfg.MutateFraction > 1 {
		return nil, fmt.Errorf("%w: mutate fraction %v outside [0,1]", ErrConfig, cfg.MutateFraction)
	}
	f, err := grid.New(cfg.Elems)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := f.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return &SparseApp{cfg: cfg, field: f}, nil
}

// Step advances one step, mutating MutateFraction of the array.
func (a *SparseApp) Step() {
	a.steps++
	MutateSparse(a.field, a.cfg.MutateFraction, a.cfg.Seed, a.steps)
}

// StepCount implements App.
func (a *SparseApp) StepCount() int { return a.steps }

// SetStepCount implements App. The caller must also have restored the
// field contents for the counter to be meaningful (the checkpoint
// manager does both).
func (a *SparseApp) SetStepCount(n int) { a.steps = n }

// Fields implements App.
func (a *SparseApp) Fields() []grid.Named {
	return []grid.Named{{Name: "state", Field: a.field}}
}

// Field returns the workload's single state array.
func (a *SparseApp) Field() *grid.Field { return a.field }
