// Package nbody is the second application substrate: a direct-summation
// gravitational N-body simulation. The related work of the reproduced
// paper (Ni et al., "Lossy compression for checkpointing: Fallible or
// feasible?", SC 2014 — reference [31]) studies lossy checkpoint
// compression on an N-body cosmology code; the paper lists applying its
// own compressor to such applications as future work. This package lets
// experiment X4 (DESIGN.md) do exactly that.
//
// Particle data is the interesting contrast to climate fields: positions
// and velocities of gravitating particles are *not* spatially smooth when
// laid out as 1-D arrays in particle order, so the wavelet compressor's
// core assumption fails and the measured compression rates and errors
// should degrade — which is the point of the experiment.
//
// The integrator is leapfrog (kick-drift-kick) with Plummer softening,
// which conserves energy well enough for checkpoint/restart studies.
package nbody

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"lossyckpt/internal/grid"
)

// ErrConfig indicates an invalid simulation configuration.
var ErrConfig = errors.New("nbody: invalid configuration")

// Config parameterizes the simulation.
type Config struct {
	// N is the particle count.
	N int
	// Seed drives the deterministic initial conditions.
	Seed int64
	// Dt is the leapfrog time step.
	Dt float64
	// Softening is the Plummer softening length.
	Softening float64
	// G is the gravitational constant (model units).
	G float64
}

// DefaultConfig returns a small cold-collapse setup.
func DefaultConfig() Config {
	return Config{N: 512, Seed: 42, Dt: 1e-3, Softening: 0.05, G: 1}
}

func (c Config) validate() error {
	if c.N < 2 {
		return fmt.Errorf("%w: N=%d", ErrConfig, c.N)
	}
	if !(c.Dt > 0) || !(c.Softening > 0) || !(c.G > 0) {
		return fmt.Errorf("%w: dt=%g softening=%g G=%g", ErrConfig, c.Dt, c.Softening, c.G)
	}
	return nil
}

// System is one N-body simulation instance. Not safe for concurrent use.
type System struct {
	cfg  Config
	step int

	// Checkpointable state: seven 1-D arrays of length N.
	posX, posY, posZ *grid.Field
	velX, velY, velZ *grid.Field
	mass             *grid.Field

	// Scratch accelerations.
	accX, accY, accZ []float64
}

// New builds a system with seeded isotropic initial conditions: particles
// uniform in a unit sphere with small virial velocities and equal masses.
func New(cfg Config) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg}
	var err error
	for _, fp := range []**grid.Field{&s.posX, &s.posY, &s.posZ, &s.velX, &s.velY, &s.velZ, &s.mass} {
		if *fp, err = grid.New(cfg.N); err != nil {
			return nil, err
		}
	}
	s.accX = make([]float64, cfg.N)
	s.accY = make([]float64, cfg.N)
	s.accZ = make([]float64, cfg.N)

	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.N; i++ {
		// Uniform in the unit sphere by rejection.
		var x, y, z float64
		for {
			x, y, z = 2*rng.Float64()-1, 2*rng.Float64()-1, 2*rng.Float64()-1
			if x*x+y*y+z*z <= 1 {
				break
			}
		}
		s.posX.Data()[i] = x
		s.posY.Data()[i] = y
		s.posZ.Data()[i] = z
		s.velX.Data()[i] = 0.1 * rng.NormFloat64()
		s.velY.Data()[i] = 0.1 * rng.NormFloat64()
		s.velZ.Data()[i] = 0.1 * rng.NormFloat64()
		s.mass.Data()[i] = 1 / float64(cfg.N)
	}
	s.computeAccelerations()
	return s, nil
}

// computeAccelerations evaluates pairwise softened gravity, O(N²).
func (s *System) computeAccelerations() {
	n := s.cfg.N
	px, py, pz := s.posX.Data(), s.posY.Data(), s.posZ.Data()
	m := s.mass.Data()
	eps2 := s.cfg.Softening * s.cfg.Softening
	for i := 0; i < n; i++ {
		s.accX[i], s.accY[i], s.accZ[i] = 0, 0, 0
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := px[j] - px[i]
			dy := py[j] - py[i]
			dz := pz[j] - pz[i]
			r2 := dx*dx + dy*dy + dz*dz + eps2
			inv := 1 / (r2 * math.Sqrt(r2))
			fij := s.cfg.G * inv
			s.accX[i] += fij * m[j] * dx
			s.accY[i] += fij * m[j] * dy
			s.accZ[i] += fij * m[j] * dz
			s.accX[j] -= fij * m[i] * dx
			s.accY[j] -= fij * m[i] * dy
			s.accZ[j] -= fij * m[i] * dz
		}
	}
}

// Step advances one kick-drift-kick leapfrog step.
func (s *System) Step() {
	n, dt := s.cfg.N, s.cfg.Dt
	vx, vy, vz := s.velX.Data(), s.velY.Data(), s.velZ.Data()
	px, py, pz := s.posX.Data(), s.posY.Data(), s.posZ.Data()
	half := dt / 2
	for i := 0; i < n; i++ {
		vx[i] += half * s.accX[i]
		vy[i] += half * s.accY[i]
		vz[i] += half * s.accZ[i]
		px[i] += dt * vx[i]
		py[i] += dt * vy[i]
		pz[i] += dt * vz[i]
	}
	s.computeAccelerations()
	for i := 0; i < n; i++ {
		vx[i] += half * s.accX[i]
		vy[i] += half * s.accY[i]
		vz[i] += half * s.accZ[i]
	}
	s.step++
}

// StepN advances n steps.
func (s *System) StepN(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// Fields returns the seven checkpointable particle arrays (live state).
func (s *System) Fields() []grid.Named {
	return []grid.Named{
		{Name: "pos_x", Field: s.posX}, {Name: "pos_y", Field: s.posY}, {Name: "pos_z", Field: s.posZ},
		{Name: "vel_x", Field: s.velX}, {Name: "vel_y", Field: s.velY}, {Name: "vel_z", Field: s.velZ},
		{Name: "mass", Field: s.mass},
	}
}

// StepCount returns the number of completed steps.
func (s *System) StepCount() int { return s.step }

// SetStepCount overrides the step counter after a restore.
func (s *System) SetStepCount(n int) { s.step = n }

// RefreshDerived recomputes accelerations from the (possibly restored)
// positions; call it after overwriting particle state.
func (s *System) RefreshDerived() { s.computeAccelerations() }

// Energy returns the total energy (kinetic + softened potential), the
// conservation diagnostic.
func (s *System) Energy() float64 {
	n := s.cfg.N
	px, py, pz := s.posX.Data(), s.posY.Data(), s.posZ.Data()
	vx, vy, vz := s.velX.Data(), s.velY.Data(), s.velZ.Data()
	m := s.mass.Data()
	eps2 := s.cfg.Softening * s.cfg.Softening
	var kin, pot float64
	for i := 0; i < n; i++ {
		kin += 0.5 * m[i] * (vx[i]*vx[i] + vy[i]*vy[i] + vz[i]*vz[i])
		for j := i + 1; j < n; j++ {
			dx := px[j] - px[i]
			dy := py[j] - py[i]
			dz := pz[j] - pz[i]
			pot -= s.cfg.G * m[i] * m[j] / math.Sqrt(dx*dx+dy*dy+dz*dz+eps2)
		}
	}
	return kin + pot
}

// Clone returns a deep copy of the system.
func (s *System) Clone() *System {
	cp := &System{
		cfg:  s.cfg,
		step: s.step,
		posX: s.posX.Clone(), posY: s.posY.Clone(), posZ: s.posZ.Clone(),
		velX: s.velX.Clone(), velY: s.velY.Clone(), velZ: s.velZ.Clone(),
		mass: s.mass.Clone(),
		accX: append([]float64(nil), s.accX...),
		accY: append([]float64(nil), s.accY...),
		accZ: append([]float64(nil), s.accZ...),
	}
	return cp
}
