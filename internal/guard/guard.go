// Package guard enforces reconstruction-quality guarantees around the
// lossy compression pipeline. A Policy declares what a variable must
// satisfy (max absolute error, max range-relative error, PSNR floor); the
// guard verifies each compressed result — analytically from the
// quantization tables, or by full decode in paranoid mode — and on
// violation walks a degradation ladder:
//
//  1. choose_divisions  raise the division count via quant.ChooseDivisions
//  2. simple_method     switch proposed → simple quantization
//  3. lossless_bands    per-band lossless passthrough (wavelet kept)
//  4. lossless          whole-variable gzip-only, bit exact
//
// The three lossy rungs differ in stage 2 only, so a variable is transformed
// once (core.Stages), each rung is quantized and judged, and stages 3–4 run
// for the rung that ships. The analytic verdict needs the coefficient error
// alone; decode verification builds the stream of every rung it measures.
//
// The final rung needs no verification, so the ladder can never ship a
// silent violation: a variable either provably meets its declared bound
// or is marked lossless-fallback in its annotation. Tao et al. ("Improving
// Performance of Iterative Methods by Lossy Checkpointing") motivates the
// hard guarantee — restart convergence depends on it — and Z-checker the
// compression-time (not restore-time) assessment.
package guard

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"lossyckpt/internal/core"
	"lossyckpt/internal/entropy"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/obs"
	"lossyckpt/internal/obs/journal"
	"lossyckpt/internal/quant"
	"lossyckpt/internal/stats"
	"lossyckpt/internal/wavelet"
)

// Mode is the ladder rung a variable finally shipped at.
type Mode uint8

const (
	// Unbounded: no bound was requested; plain lossy, no guarantee.
	Unbounded Mode = iota
	// Bounded: the lossy stream provably meets the annotated bounds
	// (ladder rungs 1–2).
	Bounded
	// LosslessBands: every wavelet coefficient passes through verbatim;
	// the only error left is wavelet arithmetic rounding (a few ulps).
	LosslessBands
	// Lossless: whole-variable gzip-only, bit exact.
	Lossless
)

func (m Mode) String() string {
	switch m {
	case Unbounded:
		return "unbounded"
	case Bounded:
		return "bounded"
	case LosslessBands:
		return "lossless-bands"
	case Lossless:
		return "lossless"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// VerifyMode selects how a ladder rung's result is checked against the
// policy.
type VerifyMode uint8

const (
	// VerifyAnalytic accepts a rung when the conservative analytic bound
	// — max coefficient quantization error × inverse-transform
	// amplification + rounding slack — meets the policy. No decode, so it
	// costs nothing extra, but its pessimism can escalate further than a
	// measurement would.
	VerifyAnalytic VerifyMode = iota
	// VerifyDecode decodes the freshly encoded stream and measures the
	// actual reconstruction error (roughly doubles encode cost; never
	// over- or under-estimates). The paranoid mode.
	VerifyDecode
)

func (v VerifyMode) String() string {
	if v == VerifyDecode {
		return "decode"
	}
	return "analytic"
}

// ParseVerifyMode maps the CLI's -guard-mode values.
func ParseVerifyMode(s string) (VerifyMode, error) {
	switch s {
	case "analytic", "":
		return VerifyAnalytic, nil
	case "decode", "paranoid":
		return VerifyDecode, nil
	}
	return 0, fmt.Errorf("guard: unknown verify mode %q (want analytic or decode)", s)
}

// Policy declares the quality guarantee a variable must ship with. The
// zero Policy enforces nothing (Enforced() == false): the guard still
// wraps the payload, annotated Unbounded.
type Policy struct {
	// MaxAbs, when positive, caps the absolute reconstruction error
	// (max_i |x_i − x̃_i|).
	MaxAbs float64
	// MaxRel, when positive, caps the range-normalized relative error
	// (Eq. 6, as a fraction: 0.01 = 1%). For constant or non-finite-range
	// data the divisor falls back to 1, matching stats.MaxRelError.
	MaxRel float64
	// PSNRFloor, when positive, is the minimum PSNR in dB.
	PSNRFloor float64
	// Verify selects analytic (default) or decode-and-check verification.
	Verify VerifyMode
}

// Enforced reports whether the policy demands any guarantee.
func (p Policy) Enforced() bool { return p.MaxAbs > 0 || p.MaxRel > 0 || p.PSNRFloor > 0 }

func (p Policy) validate() error {
	for _, v := range []float64{p.MaxAbs, p.MaxRel, p.PSNRFloor} {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("guard: invalid bound %g", v)
		}
	}
	return nil
}

// Metric names recorded by the guard.
const (
	// MetricEscalations counts abandoned ladder rungs, labeled
	// step=<rung given up on>.
	MetricEscalations = "lossyckpt_guard_escalations_total"
	// MetricViolations counts bound-verification failures.
	MetricViolations = "lossyckpt_guard_violations_total"
	// MetricEncodes counts guarded encodes, labeled mode=<final Mode>.
	MetricEncodes = "lossyckpt_guard_encodes_total"
	// MetricFinalMode is a per-variable gauge of the final Mode ordinal
	// (0 unbounded, 1 bounded, 2 lossless-bands, 3 lossless).
	MetricFinalMode = "lossyckpt_guard_final_mode"
)

// Outcome is one guarded encode: the enveloped payload plus the guarantee
// established for it.
type Outcome struct {
	Payload    []byte
	Annotation Annotation
	// RawBytes is the uncompressed array size (8 bytes per element).
	RawBytes int
}

// rung is one step of the degradation ladder: the base options with stage 2
// changed. ok is false when the rung cannot help (the coefficient target is
// already below arithmetic noise, or the base method is what it would
// switch to).
type rung struct {
	name string
	mode Mode
	opts core.Options
	ok   bool
}

// Encode compresses one variable under the policy. The name labels the
// telemetry; it may be empty.
//
// The returned payload is always a guard envelope (see envelope.go);
// Decode or ckpt's "guard" codec reverses it. Encode never returns a
// stream that silently violates an enforced bound: every failure path
// lands on the bit-exact lossless rung instead.
func Encode(name string, f *grid.Field, base core.Options, pol Policy) (*Outcome, error) {
	if err := pol.validate(); err != nil {
		return nil, err
	}
	o := obs.Default()
	base.LosslessBands = false

	if !pol.Enforced() {
		res, err := core.Compress(f, base)
		if err != nil {
			return nil, err
		}
		nan := math.NaN()
		ann := Annotation{Mode: Unbounded, Attempts: 1,
			AchievedMaxAbs: nan, AchievedMaxRel: nan, AchievedPSNR: nan}
		record(o, name, ann)
		return &Outcome{Payload: wrap(ann, res.Data), Annotation: ann, RawBytes: res.RawBytes}, nil
	}

	rng, maxMag, finite := scan(f.Data())
	effAbs := pol.effectiveAbs(rng)
	amp := amplification(base.Scheme, base.Levels, f.Dims())
	slack := roundingSlack(maxMag, base.Levels, f.Dims())
	ann := Annotation{
		MaxAbs: pol.MaxAbs, MaxRel: pol.MaxRel, PSNRFloor: pol.PSNRFloor,
		Verified: pol.Verify,
	}

	// Coefficient-domain target for the quantizer: what the bound becomes
	// after un-amplifying. Analytic mode reserves the rounding slack;
	// decode mode measures, so it spends the whole budget.
	coeffTarget := effAbs / amp
	if pol.Verify == VerifyAnalytic {
		coeffTarget = (effAbs - slack) / amp
	}
	bounded, bands := base, base
	bounded.ErrorBound = coeffTarget
	bands.ErrorBound, bands.LosslessBands = 0, true
	simple := bounded
	simple.Method = quant.Simple
	ladder := []rung{
		{"choose_divisions", Bounded, bounded, coeffTarget > 0},
		{"simple_method", Bounded, simple, coeffTarget > 0 && base.Method != quant.Simple},
		{"lossless_bands", LosslessBands, bands, true},
	}

	// Non-finite values poison the wavelet transform's neighbours (Inf−Inf
	// → NaN spreads through every lossy rung, lossless-bands included), so
	// the analytic bound cannot vouch for any of them; decode mode would
	// measure the same poisoning and fail each rung in turn. Jump straight
	// to the bit-exact rung either way (the !finite branch of the walk).
	var st *core.Stages // transformed at the first lossy attempt, shared by all
	defer func() {
		if st != nil {
			st.Release()
		}
	}()
	attempt := func(opts core.Options) (res *core.Result, err error) {
		if st == nil {
			if st, err = core.Transform(f, opts); err != nil {
				return nil, err
			}
		}
		if res, err = st.Quantize(opts); err == nil && pol.Verify == VerifyDecode {
			err = st.Encode()
		}
		return res, err
	}
	for _, r := range ladder {
		if !finite {
			escalate(o, name, r.name, "non-finite data")
			ann.Escalations++
			continue
		}
		if !r.ok {
			escalate(o, name, r.name, "rung not applicable")
			ann.Escalations++
			continue
		}
		ann.Attempts++
		res, err := attempt(r.opts)
		if err != nil {
			return nil, fmt.Errorf("guard: rung %s: %w", r.name, err)
		}
		v, err := verify(f, res, r.opts, pol, rng, amp, slack)
		if err != nil {
			return nil, fmt.Errorf("guard: verify %s: %w", r.name, err)
		}
		if v.ok {
			if err := st.Encode(); err != nil {
				return nil, fmt.Errorf("guard: rung %s: %w", r.name, err)
			}
			ann.Mode = r.mode
			ann.AchievedMaxAbs, ann.AchievedMaxRel, ann.AchievedPSNR = v.maxAbs, v.maxRel, v.psnr
			record(o, name, ann)
			return &Outcome{Payload: wrap(ann, res.Data), Annotation: ann, RawBytes: res.RawBytes}, nil
		}
		o.Counter(MetricViolations).Inc()
		escalate(o, name, r.name, "bound violated", "divisions", res.EffectiveDivisions,
			"coeff_err", formatFloat(res.MaxCoeffError), "target", formatFloat(coeffTarget))
		ann.Escalations++
	}

	// Final rung: whole-variable lossless. Bit exact by construction, so
	// it needs no verification — this is what makes a silent violation
	// impossible.
	ann.Attempts++
	res, err := core.CompressGzipOnly(f, entropy.Params{GzipLevel: base.GzipLevel, GzipMode: base.GzipMode, TmpDir: base.TmpDir})
	if err != nil {
		return nil, fmt.Errorf("guard: lossless rung: %w", err)
	}
	ann.Mode = Lossless
	ann.AchievedMaxAbs, ann.AchievedMaxRel = 0, 0
	ann.AchievedPSNR = math.Inf(1)
	record(o, name, ann)
	return &Outcome{Payload: wrap(ann, res.Data), Annotation: ann, RawBytes: res.RawBytes}, nil
}

// Decode is DecodeInto a new field.
func Decode(payload []byte, shape []int, workers int) (*grid.Field, Annotation, error) {
	return DecodeInto(payload, shape, workers, nil)
}

// DecodeInto reverses Encode: it unwraps the envelope and decompresses the
// inner stream by the annotated mode, into the caller's field or, into nil,
// a new one. The expected shape is required for the lossless (gzip-only)
// mode and validated against the container otherwise when non-nil. into is
// written last, by the step that cannot fail: an error leaves it untouched.
func DecodeInto(payload []byte, shape []int, workers int, into *grid.Field) (*grid.Field, Annotation, error) {
	ann, inner, err := unwrap(payload)
	if err != nil {
		return nil, ann, err
	}
	var f *grid.Field
	if ann.Mode == Lossless {
		f, err = core.DecompressGzipOnly(inner, into, shape...)
	} else {
		f, err = core.DecompressTo(inner, workers, func(got ...int) (*grid.Field, error) {
			if len(shape) > 0 && !slices.Equal(got, shape) {
				return nil, fmt.Errorf("guard: decoded shape %v, want %v", got, shape)
			}
			return grid.Dest(into, got...)
		})
	}
	if err != nil {
		return nil, ann, err
	}
	return f, ann, nil
}

// verdict is one rung's verification result. maxAbs/maxRel/psnr are the
// guaranteed (analytic) or measured (decode) quality figures.
type verdict struct {
	ok                   bool
	maxAbs, maxRel, psnr float64
}

// verify checks one rung's result against the policy.
func verify(f *grid.Field, res *core.Result, opts core.Options, pol Policy, rng, amp, slack float64) (verdict, error) {
	if pol.Verify == VerifyDecode {
		g, err := core.DecompressAnyParallel(res.Data, opts.Workers)
		if err != nil {
			return verdict{}, err
		}
		maxAbs, err := stats.MaxAbsError(f.Data(), g.Data())
		if err != nil {
			return verdict{}, err
		}
		maxRel, err := stats.MaxRelError(f.Data(), g.Data())
		if err != nil {
			return verdict{}, err
		}
		psnr, err := stats.PSNR(f.Data(), g.Data())
		if err != nil {
			return verdict{}, err
		}
		return verdict{meets(pol, maxAbs, maxRel, psnr), maxAbs, maxRel, psnr}, nil
	}
	// Analytic: amplify the worst coefficient error through the inverse
	// transform and add rounding slack. ZeroThreshold clips coefficients
	// before quantization, so it adds to the coefficient error first
	// (LosslessBands skips the clipping).
	coeffErr := res.MaxCoeffError
	if !opts.LosslessBands {
		coeffErr += opts.ZeroThreshold
	}
	est := coeffErr*amp + slack
	divisor := rng
	if divisor <= 0 || math.IsInf(divisor, 0) || math.IsNaN(divisor) {
		divisor = 1
	}
	estRel := est / divisor
	estPSNR := math.Inf(1)
	if est > 0 {
		estPSNR = 20 * math.Log10(divisor/est)
	}
	return verdict{meets(pol, est, estRel, estPSNR), est, estRel, estPSNR}, nil
}

// meets applies the policy's enforced bounds; NaN figures fail closed.
func meets(pol Policy, maxAbs, maxRel, psnr float64) bool {
	if math.IsNaN(maxAbs) || math.IsNaN(maxRel) {
		return false
	}
	if pol.MaxAbs > 0 && maxAbs > pol.MaxAbs {
		return false
	}
	if pol.MaxRel > 0 && maxRel > pol.MaxRel {
		return false
	}
	if pol.PSNRFloor > 0 && !(psnr >= pol.PSNRFloor) {
		return false
	}
	return true
}

// effectiveAbs folds every enforced bound into one absolute error target:
// the PSNR floor converts via PSNR ≥ 20·log10(range/maxAbs) (RMSE ≤ max
// abs error, so capping the latter caps the former), the relative bound
// via the Eq. 6 divisor with its constant-array fallback.
func (p Policy) effectiveAbs(rng float64) float64 {
	eff := math.Inf(1)
	if p.MaxAbs > 0 {
		eff = p.MaxAbs
	}
	divisor := rng
	if divisor <= 0 || math.IsInf(divisor, 0) || math.IsNaN(divisor) {
		divisor = 1
	}
	if p.MaxRel > 0 {
		eff = math.Min(eff, p.MaxRel*divisor)
	}
	if p.PSNRFloor > 0 {
		eff = math.Min(eff, divisor*math.Pow(10, -p.PSNRFloor/20))
	}
	return eff
}

// amplification bounds how much the inverse transform can grow a
// worst-case coefficient error. Each inverse axis pass combines two
// inputs: Haar exactly as L ± H (error ≤ sum ≤ 2× the worst input), the
// CDF(5,3) lifting at ≤ 2.5× (evens: err_s + err_d/2 ≤ 1.5×; odds:
// err_d + worst even ≤ 2.5×), bounded here by 3. A level runs one pass
// per axis and levels compose, so the factor is per^(levels·dims) —
// conservative (it assumes every error aligns adversarially) but sound.
func amplification(scheme wavelet.Scheme, levels, dims int) float64 {
	per := 2.0
	if scheme == wavelet.CDF53 {
		per = 3.0
	}
	return math.Pow(per, float64(levels*dims))
}

// roundingSlack over-approximates the float rounding the forward+inverse
// transforms add on top of the amplified quantization error: a few ops
// per element per pass, each ≤ ε·magnitude, with a generous constant to
// cover CDF53's modest intermediate growth.
func roundingSlack(maxMag float64, levels, dims int) float64 {
	if maxMag == 0 || math.IsInf(maxMag, 0) || math.IsNaN(maxMag) {
		return 0
	}
	const eps = 2.220446049250313e-16 // 2^-52
	return 64 * eps * maxMag * float64(levels*dims)
}

// scan returns the finite range, the max finite magnitude, and whether
// every value is finite.
func scan(data []float64) (rng, maxMag float64, finite bool) {
	lo, hi := math.Inf(1), math.Inf(-1)
	finite = true
	for _, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite = false
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		if a := math.Abs(v); a > maxMag {
			maxMag = a
		}
	}
	if hi < lo { // no finite values at all
		return 0, 0, finite
	}
	return hi - lo, maxMag, finite
}

// escalate counts a rung given up on and notes why, with attrs after.
func escalate(o *obs.Registry, name, step, why string, attrs ...any) {
	o.Counter(MetricEscalations, "step", step).Inc()
	journal.Note("guard.escalate", append([]any{"var", name, "step", step, "why", why}, attrs...)...)
}

// formatFloat renders a figure for a journal attribute, which takes strings.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func record(o *obs.Registry, name string, ann Annotation) {
	o.Counter(MetricEncodes, "mode", ann.Mode.String()).Inc()
	o.Gauge(MetricFinalMode, "var", name).Set(float64(ann.Mode))
}
