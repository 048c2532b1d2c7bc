// Package wavelet implements stage 1 of the lossy checkpoint compressor of
// Sasaki et al. (IPDPS 2015): a separable discrete wavelet transform over
// N-dimensional float64 fields.
//
// The paper uses a single-level Haar transform: along each axis, each pair
// of neighbouring values (a, b) is replaced by the low-frequency average
// L = (a+b)/2 and the high-frequency difference H = (a−b)/2 (paper Eqs. 2–3).
// After transforming every axis of a D-dimensional array once, the array is
// partitioned into one low-frequency band (the corner box holding averages
// along every axis) and 2^D − 1 high-frequency bands. Because scientific
// mesh data is spatially smooth, the high-frequency values concentrate near
// zero, which is what makes the downstream quantizer effective.
//
// This package generalizes the paper's transform to any number of
// dimensions (≤ grid.MaxDims), any number of decomposition levels (Mallat
// layout: each level recursively transforms the low band of the previous
// one), odd extents (the trailing unpaired element is carried into the low
// band verbatim), and pluggable kernels (the paper's Haar plus a
// CDF(5/3)-style lifting kernel as an "improved algorithm" extension,
// cf. the paper's future work in §VI). kernels.go holds the passes — one
// over the blocks of a Haar level, or CDF53's lifting passes per axis —,
// bands.go the walks between the transformed layout and the band pools and
// Analyze / Synthesize, the transform straight into and out of those pools.
//
// Floating-point caveat: with IEEE doubles the Haar round trip
// a = L+H, b = L−H is exact only when a+b and a−b round without error; in
// general each level contributes up to ~1 ulp of reconstruction error. The
// paper describes the transform as lossless; we preserve the algorithm and
// document the caveat (see DESIGN.md §5).
package wavelet

import (
	"errors"
	"fmt"

	"lossyckpt/internal/grid"
)

// Scheme selects the wavelet kernel.
type Scheme int

const (
	// Haar is the paper's kernel: L=(a+b)/2, H=(a−b)/2.
	Haar Scheme = iota
	// CDF53 is a Cohen–Daubechies–Feauveau (5,3) lifting kernel, an
	// extension beyond the paper. Its low band is smoother, which typically
	// concentrates high-band energy further.
	CDF53
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case Haar:
		return "haar"
	case CDF53:
		return "cdf53"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ParseScheme converts a string produced by String back into a Scheme.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "haar":
		return Haar, nil
	case "cdf53":
		return CDF53, nil
	default:
		return 0, fmt.Errorf("wavelet: unknown scheme %q", s)
	}
}

// Errors returned by this package.
var (
	// ErrLevels indicates a level count that is zero, negative, or deeper
	// than the field's extents allow.
	ErrLevels = errors.New("wavelet: invalid decomposition level count")
)

// MaxLevels returns the deepest decomposition supported for the shape: a
// level is useful while at least one active extent is ≥ 2 (axes that have
// shrunk to 1 are skipped at that depth, as in standard Mallat handling of
// anisotropic shapes).
func MaxLevels(shape []int) int {
	ext := append([]int(nil), shape...)
	levels := 0
	for {
		any := false
		for _, e := range ext {
			if e >= 2 {
				any = true
			}
		}
		if !any {
			return levels
		}
		for d := range ext {
			ext[d] = (ext[d] + 1) / 2
		}
		levels++
	}
}

// Plan describes a concrete decomposition: shape, level count and the
// per-level active extents. A Plan is required to transform, invert and to
// locate the high-frequency values for quantization. Plans are immutable
// and safe for concurrent use.
type Plan struct {
	shape  []int
	stride []int // row-major, in elements
	levels int
	scheme Scheme
	// ext[k] holds the active extents entering level k (ext[0] == shape);
	// ext[levels] is the final low-band box.
	ext [][]int
	// cutoff is parallelCutoff, except in tests that shard small shapes.
	cutoff int
}

// NewPlan validates the shape/levels pair and precomputes per-level extents.
func NewPlan(shape []int, levels int, scheme Scheme) (*Plan, error) {
	if err := checkShape(shape); err != nil {
		return nil, err
	}
	if levels < 1 || levels > MaxLevels(shape) {
		return nil, fmt.Errorf("%w: %d for shape %v (max %d)", ErrLevels, levels, shape, MaxLevels(shape))
	}
	if scheme != Haar && scheme != CDF53 {
		return nil, fmt.Errorf("wavelet: unknown scheme %d", int(scheme))
	}
	p := &Plan{
		shape:  append([]int(nil), shape...),
		levels: levels,
		scheme: scheme,
		cutoff: parallelCutoff,
	}
	p.stride = make([]int, len(shape))
	for d, acc := len(shape)-1, 1; d >= 0; d-- {
		p.stride[d] = acc
		acc *= shape[d]
	}
	p.ext = make([][]int, levels+1)
	cur := append([]int(nil), shape...)
	p.ext[0] = append([]int(nil), cur...)
	for k := 1; k <= levels; k++ {
		for d := range cur {
			cur[d] = (cur[d] + 1) / 2
		}
		p.ext[k] = append([]int(nil), cur...)
	}
	return p, nil
}

func checkShape(shape []int) error {
	if len(shape) == 0 || len(shape) > grid.MaxDims {
		return fmt.Errorf("wavelet: invalid shape %v", shape)
	}
	for _, e := range shape {
		if e <= 0 {
			return fmt.Errorf("wavelet: invalid shape %v", shape)
		}
	}
	return nil
}

// Shape returns a copy of the planned shape.
func (p *Plan) Shape() []int { return append([]int(nil), p.shape...) }

// Levels returns the decomposition depth.
func (p *Plan) Levels() int { return p.levels }

// Scheme returns the kernel in use.
func (p *Plan) Scheme() Scheme { return p.scheme }

// LowCount returns the number of values in the final low band.
func (p *Plan) LowCount() int {
	n := 1
	for _, e := range p.ext[p.levels] {
		n *= e
	}
	return n
}

// HighCount returns the number of high-frequency values (total minus low).
func (p *Plan) HighCount() int {
	n := 1
	for _, e := range p.shape {
		n *= e
	}
	return n - p.LowCount()
}

// matches reports whether the field is compatible with the plan.
func (p *Plan) matches(f *grid.Field) error {
	if f.Dims() != len(p.shape) {
		return fmt.Errorf("wavelet: field is %d-D, plan is %d-D", f.Dims(), len(p.shape))
	}
	for d, e := range p.shape {
		if f.Extent(d) != e {
			return fmt.Errorf("wavelet: field shape %v does not match plan shape %v", f.Shape(), p.shape)
		}
	}
	return nil
}

// Transform applies the planned forward transform to f in place. Passes of
// parallelCutoff elements or more are sharded across GOMAXPROCS goroutines
// (the blocks of a Haar level, or the lanes of a lifting pass, are
// independent); TransformWorkers bounds that.
func (p *Plan) Transform(f *grid.Field) error { return p.TransformTo(f, f, 0) }

// TransformWorkers is Transform with an explicit parallelism bound:
// workers 0 means GOMAXPROCS, 1 forces the serial path. The result is
// bit-identical for every worker count — every output element is one fixed
// expression of the pass's input, whichever shard computes it.
func (p *Plan) TransformWorkers(f *grid.Field, workers int) error {
	return p.TransformTo(f, f, workers)
}

// TransformTo writes the forward transform of src into dst, which may be
// src itself; a distinct src is only read.
func (p *Plan) TransformTo(dst, src *grid.Field, workers int) error {
	return p.run(dst, src, workers, false)
}

// Inverse applies the planned inverse transform to f in place, undoing
// Transform (up to floating-point rounding; see the package comment).
func (p *Plan) Inverse(f *grid.Field) error { return p.InverseTo(f, f, 0) }

// InverseWorkers is Inverse with an explicit parallelism bound (0 =
// GOMAXPROCS, 1 = serial). Bit-identical for every worker count.
func (p *Plan) InverseWorkers(f *grid.Field, workers int) error { return p.InverseTo(f, f, workers) }

// InverseTo reconstructs the coefficients in coef into dst, which may be
// coef itself. With more than one level a distinct coef is left holding the
// partly inverted low box.
func (p *Plan) InverseTo(dst, coef *grid.Field, workers int) error {
	return p.run(dst, coef, workers, true)
}

// run transforms src into dst level by level: forward from the whole field
// down, each level's low box in place in dst; inverse from the deepest box
// up, in place in src until the last level lands in dst.
func (p *Plan) run(dst, src *grid.Field, workers int, inverse bool) error {
	if err := p.matches(dst); err != nil {
		return err
	}
	if err := p.matches(src); err != nil {
		return err
	}
	tmp := grid.GetScratch(dst.Len())
	defer tmp.Put()
	for k := p.levels - 1; inverse && k > 0; k-- {
		p.level(src.Data(), src.Data(), tmp.S, k, workers, true)
	}
	p.level(dst.Data(), src.Data(), tmp.S, 0, workers, inverse)
	for k := 1; !inverse && k < p.levels; k++ {
		p.level(dst.Data(), dst.Data(), tmp.S, k, workers, false)
	}
	return nil
}

// BandID identifies one sub-band of a single decomposition level: a bitmask
// with bit d set when the band is high-frequency along axis d. BandID 0 is
// the low band (only meaningful at the deepest level).
type BandID uint32

// String renders the band in the paper's LL/LH/HL/HH notation (general-D:
// 'L'/'H' per axis, axis 0 first).
func (b BandID) string(dims int) string {
	s := make([]byte, dims)
	for d := 0; d < dims; d++ {
		if b&(1<<uint(d)) != 0 {
			s[d] = 'H'
		} else {
			s[d] = 'L'
		}
	}
	return string(s)
}

// Band describes one sub-band at one level of the decomposition.
type Band struct {
	Level int    // 1-based decomposition level
	ID    BandID // which axes are high-frequency
	Name  string // e.g. "LH@1"
	Count int    // number of coefficients in the band
}

// Bands enumerates every sub-band of the plan: for each level 1..levels,
// the 2^D−1 high bands; plus the single low band of the deepest level.
// The counts always sum to the total element count.
func (p *Plan) Bands() []Band {
	dims := len(p.shape)
	var out []Band
	for k := 1; k <= p.levels; k++ {
		prev, cur := p.ext[k-1], p.ext[k]
		for id := BandID(1); id < 1<<uint(dims); id++ {
			count := 1
			for d := 0; d < dims; d++ {
				if id&(1<<uint(d)) != 0 {
					count *= prev[d] - cur[d] // high extent along d
				} else {
					count *= cur[d]
				}
			}
			out = append(out, Band{
				Level: k,
				ID:    id,
				Name:  fmt.Sprintf("%s@%d", id.string(dims), k),
				Count: count,
			})
		}
	}
	out = append(out, Band{
		Level: p.levels,
		ID:    0,
		Name:  fmt.Sprintf("%s@%d", BandID(0).string(dims), p.levels),
		Count: p.LowCount(),
	})
	return out
}
