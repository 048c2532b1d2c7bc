// Package climate is this repository's stand-in for NICAM, the global
// cloud-resolving climate model whose checkpoint arrays Sasaki et al.
// (IPDPS 2015) compress. NICAM itself is a large proprietary-scale Fortran
// code; what the compressor actually consumes is its checkpoint state —
// smooth, spatially correlated 3D double-precision arrays of pressure,
// temperature and wind velocity of shape 1156×82×2 (~1.5 MB each, §IV-A)
// that evolve over time steps.
//
// This package produces exactly that class of data: a deterministic,
// seeded 3D atmospheric solver on the paper's grid shape with five
// physical fields (pressure, temperature, and the u/v/w wind components),
// integrating a damped compressible advection–diffusion system with a
// zonal jet, Coriolis-like rotation, buoyancy coupling and periodic
// thermal forcing. The dynamics are mildly nonlinear, so two runs whose
// states differ slightly (e.g. after a lossy restart) drift apart slowly —
// the behaviour the paper's Fig. 10 studies — while explicit diffusion and
// upwind advection keep the integration stable for thousands of steps.
//
// The grid is periodic along x (index i, the 1156 direction), bounded
// along z (index k, the 82 vertical levels), and carries nc=2 weakly
// coupled components along the third axis, matching the paper's array
// shape. See DESIGN.md §2 for the substitution argument.
package climate

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"lossyckpt/internal/grid"
)

// Paper-shaped grid defaults (§IV-A: arrays of 1156×82×2 doubles).
const (
	DefaultNx = 1156
	DefaultNz = 82
	DefaultNc = 2
)

// ErrConfig indicates an invalid model configuration.
var ErrConfig = errors.New("climate: invalid configuration")

// Config parameterizes the model. The zero value is not valid; start from
// DefaultConfig.
type Config struct {
	Nx, Nz, Nc int     // grid extents (x, z, component)
	Seed       int64   // deterministic initial-condition seed
	Dt         float64 // time step (model units)
}

// DefaultConfig returns the paper-shaped configuration.
func DefaultConfig() Config {
	return Config{Nx: DefaultNx, Nz: DefaultNz, Nc: DefaultNc, Seed: 2015, Dt: 0.05}
}

func (c Config) validate() error {
	if c.Nx < 4 || c.Nz < 4 || c.Nc < 1 {
		return fmt.Errorf("%w: grid %dx%dx%d (need ≥4x4x1)", ErrConfig, c.Nx, c.Nz, c.Nc)
	}
	if !(c.Dt > 0) || c.Dt > 0.2 {
		return fmt.Errorf("%w: dt %g (need 0 < dt ≤ 0.2 for stability)", ErrConfig, c.Dt)
	}
	return nil
}

// Physical constants of the toy dynamics (model units).
const (
	t0        = 288.0 // surface base temperature
	lapse     = 0.65  // vertical temperature lapse per level fraction
	p0        = 1000.0
	scaleH    = 0.35 // pressure scale height as a fraction of Nz
	kappa     = 0.08 // thermal diffusivity
	nu        = 0.08 // viscosity
	coriolis  = 0.02
	buoyancy  = 0.004
	soundSq   = 0.3  // c² of the damped acoustic coupling
	pressDamp = 0.01 // pressure relaxation toward base state
	wDamp     = 0.05 // vertical-velocity damping
	heatAmp   = 0.8  // thermal forcing amplitude
	heatOmega = 0.01 // thermal forcing angular frequency per step
	couple    = 0.02 // inter-component relaxation
)

// Model is one climate-model instance. It is not safe for concurrent use.
type Model struct {
	cfg  Config
	step int

	// The five checkpointable physical fields (paper §IV-A: "3D arrays of
	// pressure, temperature and wind velocity").
	pres, temp, u, v, w *grid.Field

	// Scratch buffers reused across steps.
	scratch [5]*grid.Field

	// Precomputed base profiles.
	tBase, pBase []float64
}

// New constructs a model with smooth, seeded initial conditions.
func New(cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Model{cfg: cfg}
	shape := []int{cfg.Nx, cfg.Nz, cfg.Nc}
	var err error
	for _, fp := range []**grid.Field{&m.pres, &m.temp, &m.u, &m.v, &m.w} {
		if *fp, err = grid.New(shape...); err != nil {
			return nil, err
		}
	}
	for i := range m.scratch {
		if m.scratch[i], err = grid.New(shape...); err != nil {
			return nil, err
		}
	}
	m.tBase = make([]float64, cfg.Nz)
	m.pBase = make([]float64, cfg.Nz)
	for k := 0; k < cfg.Nz; k++ {
		zf := float64(k) / float64(cfg.Nz)
		m.tBase[k] = t0 - lapse*100*zf
		m.pBase[k] = p0 * math.Exp(-zf/scaleH)
	}
	m.initialize()
	return m, nil
}

// initialize fills the fields with a smooth seeded state: base profiles
// plus a superposition of low-wavenumber modes and a zonal jet.
func (m *Model) initialize() {
	rng := rand.New(rand.NewSource(m.cfg.Seed))
	nm := 6 // number of random modes
	type mode struct{ ax, kx, kz, ph float64 }
	modes := make([]mode, nm)
	for i := range modes {
		modes[i] = mode{
			ax: rng.Float64()*2 + 0.5,
			kx: float64(rng.Intn(4) + 1),
			kz: float64(rng.Intn(3) + 1),
			ph: rng.Float64() * 2 * math.Pi,
		}
	}
	nx, nz, nc := m.cfg.Nx, m.cfg.Nz, m.cfg.Nc
	jetCenter := 0.6 * float64(nz)
	jetWidth := 0.15 * float64(nz)
	for i := 0; i < nx; i++ {
		xf := 2 * math.Pi * float64(i) / float64(nx)
		for k := 0; k < nz; k++ {
			zf := math.Pi * float64(k) / float64(nz)
			var pert float64
			for _, md := range modes {
				pert += md.ax * math.Sin(md.kx*xf+md.ph) * math.Cos(md.kz*zf)
			}
			jet := 8 * math.Exp(-sq((float64(k)-jetCenter)/jetWidth))
			for c := 0; c < nc; c++ {
				cph := float64(c) * 0.3 // slight per-component phase shift
				m.temp.Set(m.tBase[k]+pert*math.Cos(cph)+0.01*rng.NormFloat64(), i, k, c)
				m.pres.Set(m.pBase[k]+0.5*pert+0.005*rng.NormFloat64(), i, k, c)
				m.u.Set(jet+0.3*math.Sin(xf+cph)+0.005*rng.NormFloat64(), i, k, c)
				m.v.Set(0.3*math.Cos(2*xf-cph)+0.002*rng.NormFloat64(), i, k, c)
				m.w.Set(0.01*math.Sin(3*xf)+0.0001*rng.NormFloat64(), i, k, c)
			}
		}
	}
}

func sq(x float64) float64 { return x * x }

// Step advances the model by one time step.
func (m *Model) Step() {
	nx, nz, nc := m.cfg.Nx, m.cfg.Nz, m.cfg.Nc
	dt := m.cfg.Dt
	dp, dT, du, dv, dw := m.scratch[0], m.scratch[1], m.scratch[2], m.scratch[3], m.scratch[4]

	phase := heatOmega * float64(m.step)
	for c := 0; c < nc; c++ {
		cph := float64(c) * 0.3
		for i := 0; i < nx; i++ {
			xf := 2 * math.Pi * float64(i) / float64(nx)
			heatX := heatAmp * math.Sin(xf+phase+cph)
			for k := 0; k < nz; k++ {
				uu := m.u.At(i, k, c)
				ww := m.w.At(i, k, c)

				// Thermal forcing decays with height.
				q := heatX * math.Exp(-3*float64(k)/float64(nz))

				lapT := m.laplacian(m.temp, i, k, c)
				lapU := m.laplacian(m.u, i, k, c)
				lapV := m.laplacian(m.v, i, k, c)
				lapW := m.laplacian(m.w, i, k, c)

				advT := uu*m.ddxUpwind(m.temp, i, k, c, uu) + ww*m.ddzUpwind(m.temp, i, k, c, ww)
				advU := uu*m.ddxUpwind(m.u, i, k, c, uu) + ww*m.ddzUpwind(m.u, i, k, c, ww)
				advV := uu*m.ddxUpwind(m.v, i, k, c, uu) + ww*m.ddzUpwind(m.v, i, k, c, ww)
				advW := uu*m.ddxUpwind(m.w, i, k, c, uu) + ww*m.ddzUpwind(m.w, i, k, c, ww)

				dT.Set(-advT+kappa*lapT+q+m.coupleTerm(m.temp, i, k, c), i, k, c)
				dpdx := m.ddxCentral(m.pres, i, k, c)
				du.Set(-advU+nu*lapU-0.001*dpdx+coriolis*m.v.At(i, k, c), i, k, c)
				dv.Set(-advV+nu*lapV-coriolis*uu, i, k, c)
				dw.Set(-advW+nu*lapW+buoyancy*(m.temp.At(i, k, c)-m.tBase[k])-wDamp*ww, i, k, c)

				div := m.ddxCentral(m.u, i, k, c) + m.ddzCentral(m.w, i, k, c)
				dp.Set(-soundSq*div-pressDamp*(m.pres.At(i, k, c)-m.pBase[k]), i, k, c)
			}
		}
	}
	axpy(m.temp, dT, dt)
	axpy(m.u, du, dt)
	axpy(m.v, dv, dt)
	axpy(m.w, dw, dt)
	axpy(m.pres, dp, dt)
	m.step++
}

// axpy: f += a*g, elementwise.
func axpy(f, g *grid.Field, a float64) {
	fd, gd := f.Data(), g.Data()
	for i := range fd {
		fd[i] += a * gd[i]
	}
}

// StepN advances the model by n steps.
func (m *Model) StepN(n int) {
	for i := 0; i < n; i++ {
		m.Step()
	}
}

// --- finite-difference helpers (periodic x, clamped z) -------------------

func (m *Model) at(f *grid.Field, i, k, c int) float64 {
	nx, nz := m.cfg.Nx, m.cfg.Nz
	if i < 0 {
		i += nx
	} else if i >= nx {
		i -= nx
	}
	if k < 0 {
		k = 0
	} else if k >= nz {
		k = nz - 1
	}
	return f.At(i, k, c)
}

func (m *Model) ddxCentral(f *grid.Field, i, k, c int) float64 {
	return (m.at(f, i+1, k, c) - m.at(f, i-1, k, c)) / 2
}

func (m *Model) ddzCentral(f *grid.Field, i, k, c int) float64 {
	return (m.at(f, i, k+1, c) - m.at(f, i, k-1, c)) / 2
}

// ddxUpwind returns the upwind x-derivative for advection velocity vel.
func (m *Model) ddxUpwind(f *grid.Field, i, k, c int, vel float64) float64 {
	if vel >= 0 {
		return f.At(i, k, c) - m.at(f, i-1, k, c)
	}
	return m.at(f, i+1, k, c) - f.At(i, k, c)
}

func (m *Model) ddzUpwind(f *grid.Field, i, k, c int, vel float64) float64 {
	if vel >= 0 {
		return f.At(i, k, c) - m.at(f, i, k-1, c)
	}
	return m.at(f, i, k+1, c) - f.At(i, k, c)
}

func (m *Model) laplacian(f *grid.Field, i, k, c int) float64 {
	return m.at(f, i+1, k, c) + m.at(f, i-1, k, c) +
		m.at(f, i, k+1, c) + m.at(f, i, k-1, c) -
		4*f.At(i, k, c)
}

// coupleTerm relaxes a field toward the mean of the other components,
// giving the nc axis real (but weak) dynamics.
func (m *Model) coupleTerm(f *grid.Field, i, k, c int) float64 {
	nc := m.cfg.Nc
	if nc < 2 {
		return 0
	}
	var mean float64
	for cc := 0; cc < nc; cc++ {
		mean += f.At(i, k, cc)
	}
	mean /= float64(nc)
	return couple * (mean - f.At(i, k, c))
}

// --- state access ---------------------------------------------------------

// Fields returns the five checkpointable arrays. The fields are the live
// model state: mutating them mutates the model (which is exactly what a
// checkpoint restore does).
func (m *Model) Fields() []grid.Named {
	return []grid.Named{
		{Name: "pressure", Field: m.pres},
		{Name: "temperature", Field: m.temp},
		{Name: "wind_u", Field: m.u},
		{Name: "wind_v", Field: m.v},
		{Name: "wind_w", Field: m.w},
	}
}

// Field returns the named field, or nil if unknown.
func (m *Model) Field(name string) *grid.Field {
	for _, nf := range m.Fields() {
		if nf.Name == name {
			return nf.Field
		}
	}
	return nil
}

// StepCount returns the number of completed steps.
func (m *Model) StepCount() int { return m.step }

// SetStepCount overrides the step counter; checkpoint restore uses it so
// time-dependent forcing resumes at the right phase.
func (m *Model) SetStepCount(n int) { m.step = n }

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// Clone returns a deep copy of the model (state and step counter).
func (m *Model) Clone() *Model {
	cp := &Model{
		cfg:   m.cfg,
		step:  m.step,
		pres:  m.pres.Clone(),
		temp:  m.temp.Clone(),
		u:     m.u.Clone(),
		v:     m.v.Clone(),
		w:     m.w.Clone(),
		tBase: append([]float64(nil), m.tBase...),
		pBase: append([]float64(nil), m.pBase...),
	}
	for i := range cp.scratch {
		cp.scratch[i] = m.scratch[i].Clone()
	}
	return cp
}

// Stable reports whether every field value is finite — the integration's
// sanity check.
func (m *Model) Stable() bool {
	for _, nf := range m.Fields() {
		for _, v := range nf.Field.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}
