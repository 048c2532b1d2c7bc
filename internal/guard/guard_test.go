package guard

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"lossyckpt/internal/core"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/obs"
	"lossyckpt/internal/obs/journal"
	"lossyckpt/internal/quant"
	"lossyckpt/internal/stats"
	"lossyckpt/internal/wavelet"
)

// makeField builds one of several data classes on a small 3-D grid.
func makeField(t *testing.T, class string, seed int64) *grid.Field {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := grid.MustNew(12, 10, 6)
	d := f.Data()
	switch class {
	case "smooth":
		nx, nz := 12, 10
		for i := range d {
			x, z := i/(nz*6), (i/6)%nz
			d[i] = 275 + 40*math.Sin(2*math.Pi*float64(x)/float64(nx))*
				math.Cos(2*math.Pi*float64(z)/float64(nz))
		}
	case "noise":
		for i := range d {
			d[i] = rng.NormFloat64() * 1e3
		}
	case "constant":
		for i := range d {
			d[i] = 42.5
		}
	case "spiky":
		for i := range d {
			d[i] = math.Sin(float64(i) / 7)
			if rng.Intn(50) == 0 {
				d[i] *= 1e6
			}
		}
	case "nan":
		for i := range d {
			d[i] = rng.Float64() * 10
			if rng.Intn(20) == 0 {
				d[i] = math.NaN()
			}
		}
	case "inf":
		for i := range d {
			d[i] = rng.Float64() * 10
			if rng.Intn(25) == 0 {
				d[i] = math.Inf(1 - 2*rng.Intn(2))
			}
		}
	default:
		t.Fatalf("unknown class %s", class)
	}
	return f
}

// annEqual compares annotations treating NaN float fields as equal
// (struct == would fail on the unbounded mode's NaN achieved figures).
func annEqual(a, b Annotation) bool {
	feq := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	}
	return a.Mode == b.Mode && a.Verified == b.Verified &&
		a.BudgetExhausted == b.BudgetExhausted &&
		feq(a.MaxAbs, b.MaxAbs) && feq(a.MaxRel, b.MaxRel) && feq(a.PSNRFloor, b.PSNRFloor) &&
		feq(a.AchievedMaxAbs, b.AchievedMaxAbs) && feq(a.AchievedMaxRel, b.AchievedMaxRel) &&
		feq(a.AchievedPSNR, b.AchievedPSNR) &&
		a.Escalations == b.Escalations && a.Attempts == b.Attempts
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestGuardProperty is the acceptance property: for randomized arrays and
// policies, every encode either provably meets its declared bound —
// checked here by an independent full decode — or ships marked
// lossless-fallback and restores bit-exact. Run under -race, subtests in
// parallel, to also exercise concurrent guard encodes.
func TestGuardProperty(t *testing.T) {
	classes := []string{"smooth", "noise", "constant", "spiky", "nan", "inf"}
	bounds := []Policy{
		{MaxAbs: 1e-1},
		{MaxAbs: 1e-3},
		{MaxAbs: 1e-9},
		{MaxRel: 1e-2},
		{MaxRel: 1e-6},
		{PSNRFloor: 60},
		{PSNRFloor: 140},
		{MaxAbs: 1e-2, MaxRel: 1e-4, PSNRFloor: 80},
		{}, // unbounded
	}
	schemes := []wavelet.Scheme{wavelet.Haar, wavelet.CDF53}
	for _, class := range classes {
		for bi, bpol := range bounds {
			for _, vm := range []VerifyMode{VerifyAnalytic, VerifyDecode} {
				pol := bpol
				pol.Verify = vm
				class := class
				scheme := schemes[bi%len(schemes)]
				name := fmt.Sprintf("%s/b%d/%v", class, bi, vm)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					f := makeField(t, class, int64(1000+bi))
					orig := append([]float64(nil), f.Data()...)
					base := core.DefaultOptions()
					base.Scheme = scheme
					out, err := Encode("v", f, base, pol)
					if err != nil {
						t.Fatalf("Encode: %v", err)
					}
					ann := out.Annotation
					g, ann2, err := Decode(out.Payload, f.Shape(), 0)
					if err != nil {
						t.Fatalf("Decode: %v", err)
					}
					if !annEqual(ann, ann2) {
						t.Errorf("annotation round-trip mismatch:\n enc %+v\n dec %+v", ann, ann2)
					}
					// Three lossy rungs and the bit-exact one: the ladder is
					// its own budget, and there is none to exhaust.
					if ann.Attempts > 4 || ann.BudgetExhausted {
						t.Errorf("ladder spent %d attempts (want ≤ 4), budget flag %v", ann.Attempts, ann.BudgetExhausted)
					}
					if !pol.Enforced() {
						if ann.Mode != Unbounded {
							t.Errorf("unenforced policy got mode %v", ann.Mode)
						}
						return
					}
					if ann.Mode == Unbounded {
						t.Fatalf("enforced policy shipped unbounded")
					}
					if ann.Mode == Lossless {
						if !bitsEqual(orig, g.Data()) {
							t.Fatalf("lossless-fallback not bit-exact")
						}
						return
					}
					// Bounded or lossless-bands: the declared bound must
					// hold for the actual reconstruction.
					maxAbs, err := stats.MaxAbsError(orig, g.Data())
					if err != nil {
						t.Fatal(err)
					}
					maxRel, err := stats.MaxRelError(orig, g.Data())
					if err != nil {
						t.Fatal(err)
					}
					psnr, err := stats.PSNR(orig, g.Data())
					if err != nil {
						t.Fatal(err)
					}
					if math.IsNaN(maxAbs) {
						t.Fatalf("mode %v shipped non-finite mismatch", ann.Mode)
					}
					if pol.MaxAbs > 0 && maxAbs > pol.MaxAbs {
						t.Errorf("max-abs %g > bound %g (mode %v)", maxAbs, pol.MaxAbs, ann.Mode)
					}
					if pol.MaxRel > 0 && maxRel > pol.MaxRel {
						t.Errorf("max-rel %g > bound %g (mode %v)", maxRel, pol.MaxRel, ann.Mode)
					}
					if pol.PSNRFloor > 0 && !(psnr >= pol.PSNRFloor) {
						t.Errorf("PSNR %g < floor %g (mode %v)", psnr, pol.PSNRFloor, ann.Mode)
					}
					// The annotation's achieved figures must themselves
					// bound the measurement (they are what restore reports).
					if maxAbs > ann.AchievedMaxAbs+1e-300 {
						t.Errorf("measured max-abs %g exceeds annotated ceiling %g", maxAbs, ann.AchievedMaxAbs)
					}
				})
			}
		}
	}
}

// TestGuardEscalationLadder: noise under a tight bound must escalate past
// the division rungs, and the escalation trail must land in the metrics.
func TestGuardEscalationLadder(t *testing.T) {
	reg := obs.NewRegistry()
	defer obs.SetDefault(obs.SetDefault(reg))
	f := makeField(t, "noise", 3)
	pol := Policy{MaxAbs: 1e-12, Verify: VerifyDecode}
	out, err := Encode("temp", f, core.DefaultOptions(), pol)
	if err != nil {
		t.Fatal(err)
	}
	ann := out.Annotation
	if ann.Mode == Unbounded || ann.Mode == Bounded {
		t.Fatalf("noise at 1e-12 stayed %v; want escalation", ann.Mode)
	}
	if ann.Escalations == 0 {
		t.Errorf("no escalations recorded: %+v", ann)
	}
	if ann.Attempts < 2 {
		t.Errorf("attempts %d, want ≥ 2 (ladder walked)", ann.Attempts)
	}
}

// TestBudgetExhaustedEnvelopeStillReads: Encode has no attempt or time budget
// and never sets the flag, but GRD1 is an on-disk format and builds that had
// one wrote envelopes with bit 0 of the flags byte set. One built by hand must
// still decode bit-exactly and say what happened.
func TestBudgetExhaustedEnvelopeStillReads(t *testing.T) {
	f := makeField(t, "noise", 5)
	orig := append([]float64(nil), f.Data()...)
	out, err := Encode("v", f, core.DefaultOptions(), Policy{MaxAbs: 1e-300, Verify: VerifyDecode})
	if err != nil {
		t.Fatal(err)
	}
	if out.Annotation.Mode != Lossless || out.Annotation.BudgetExhausted {
		t.Fatalf("got %+v, want a lossless fallback without the budget flag", out.Annotation)
	}
	old := append([]byte(nil), out.Payload...)
	old[8] |= flagBudgetExhausted
	body := len(old) - envTrailerLen
	binary.LittleEndian.PutUint32(old[body:], crc32.ChecksumIEEE(old[:body]))

	g, ann, err := Decode(old, f.Shape(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := out.Annotation
	want.BudgetExhausted = true
	if !annEqual(ann, want) {
		t.Errorf("annotation %+v, want %+v", ann, want)
	}
	if !strings.Contains(ann.String(), "budget exhausted") {
		t.Errorf("guarantee line %q does not report the exhausted budget", ann.String())
	}
	if !bitsEqual(orig, g.Data()) {
		t.Errorf("budget-exhausted fallback not bit-exact")
	}
}

// TestGuardMetrics: escalations, violations and final mode land in the
// registry under the documented names.
func TestGuardMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	defer obs.SetDefault(obs.SetDefault(reg))
	f := makeField(t, "noise", 17)
	pol := Policy{MaxAbs: 1e-13, Verify: VerifyDecode}
	if _, err := Encode("rho", f, core.DefaultOptions(), pol); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	found := map[string]bool{}
	for _, m := range snap.Metrics {
		found[m.Name] = true
	}
	for _, want := range []string{MetricEscalations, MetricViolations, MetricEncodes, MetricFinalMode} {
		if !found[want] {
			t.Errorf("metric %s not recorded (have %v)", want, found)
		}
	}
	t.Run("analytic ladder", testGuardMetricsAnalyticLadder)
}

// Under analytic verification a ladder that abandons two rungs builds one
// stream, and the telemetry says so — one compression, each of its stages
// reported once with the abandoned rungs' planning under "quantize" — while
// the guard's own trail (escalations by step, violations, journal notes,
// final mode) reads as it always did.
func testGuardMetricsAnalyticLadder(t *testing.T) {
	j, err := journal.Open(filepath.Join(t.TempDir(), "run.jsonl"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer journal.SetDefault(journal.SetDefault(j))

	reg := obs.NewRegistry()
	defer obs.SetDefault(obs.SetDefault(reg))
	f := makeField(t, "noise", 17)
	out, err := Encode("rho", f, core.DefaultOptions(), Policy{MaxAbs: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if ann := out.Annotation; ann.Mode != LosslessBands || ann.Attempts != 3 || ann.Escalations != 2 {
		t.Fatalf("want two abandoned rungs and lossless bands, got %+v", ann)
	}
	inner, err := InnerPayload(out.Payload)
	if err != nil {
		t.Fatal(err)
	}

	counter := func(name string, labels ...string) float64 { return reg.Counter(name, labels...).Value() }
	for _, c := range []struct {
		what string
		got  float64
		want float64
	}{
		{"compress operations", counter(core.MetricCompressOps, "kind", "single"), 1},
		{"raw bytes", counter(core.MetricCompressRawBytes), float64(f.Bytes())},
		{"compressed bytes", counter(core.MetricCompressOutBytes), float64(len(inner))},
		{"wall observations", float64(reg.Histogram(core.MetricCompressWall, obs.DurationBuckets).Count()), 1},
		{"escalations at choose_divisions", counter(MetricEscalations, "step", "choose_divisions"), 1},
		{"escalations at simple_method", counter(MetricEscalations, "step", "simple_method"), 1},
		{"escalations at lossless_bands", counter(MetricEscalations, "step", "lossless_bands"), 0},
		{"violations", counter(MetricViolations), 2},
		{"lossless-bands encodes", counter(MetricEncodes, "mode", "lossless-bands"), 1},
		{"final mode", reg.Gauge(MetricFinalMode, "var", "rho").Value(), float64(LosslessBands)},
	} {
		if c.got != c.want {
			t.Errorf("%s: %g, want %g", c.what, c.got, c.want)
		}
	}
	// The stages of the one compression sum to its CPU time, so none was
	// reported twice and the planning of the abandoned rungs is in there.
	sum := 0.0
	for _, stage := range []string{"wavelet", "quantize", "encode", "format", "gzip", "other"} {
		v := counter(core.MetricStageSeconds, "stage", stage)
		if v <= 0 && stage != "other" {
			t.Errorf("stage %s: no time recorded", stage)
		}
		sum += v
	}
	if cpu := counter(core.MetricCompressCPU); math.Abs(sum-cpu) > 1e-9*cpu {
		t.Errorf("stage seconds sum to %g, the one compression took %g", sum, cpu)
	}

	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := journal.ReadAll(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	var steps []string
	for _, r := range recs {
		if r.Op != "guard.escalate" || r.Attrs["var"] != "rho" {
			continue
		}
		steps = append(steps, r.Attrs["step"]+": "+r.Attrs["why"])
		// A violated rung says how far it got: the walk ran to the cap and
		// the error it shipped there is over the coefficient target.
		coeffErr, err1 := strconv.ParseFloat(r.Attrs["coeff_err"], 64)
		target, err2 := strconv.ParseFloat(r.Attrs["target"], 64)
		if r.Attrs["divisions"] != strconv.Itoa(quant.MaxDivisions) || err1 != nil || err2 != nil || !(target > 0 && coeffErr > target) {
			t.Errorf("%s: divisions %q, coeff_err %q, target %q: want the cap and an error over a positive target",
				r.Attrs["step"], r.Attrs["divisions"], r.Attrs["coeff_err"], r.Attrs["target"])
		}
	}
	if want := []string{"choose_divisions: bound violated", "simple_method: bound violated"}; !slices.Equal(steps, want) {
		t.Errorf("journal notes %q, want %q", steps, want)
	}
}

// TestEnvelopeCorruption: a flipped byte anywhere in the envelope must be
// detected, never silently decoded.
func TestEnvelopeCorruption(t *testing.T) {
	f := makeField(t, "smooth", 21)
	out, err := Encode("v", f, core.DefaultOptions(), Policy{MaxAbs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(out.Payload); pos += 7 {
		corrupt := append([]byte(nil), out.Payload...)
		corrupt[pos] ^= 0x40
		if _, err := ParseAnnotation(corrupt); err == nil {
			// The flip may land in the inner stream; the envelope CRC
			// still covers it, so ParseAnnotation must fail everywhere.
			t.Errorf("flip at %d: annotation parsed from corrupt envelope", pos)
		}
	}
	if _, err := ParseAnnotation(out.Payload[:10]); err == nil {
		t.Error("truncated envelope parsed")
	}
	if !IsEnveloped(out.Payload) {
		t.Error("IsEnveloped false on real envelope")
	}
	if IsEnveloped([]byte{1, 2, 3, 4, 5}) {
		t.Error("IsEnveloped true on junk")
	}
}

// TestChooseDivisionsRungHonoured: a loose bound on smooth data must stay
// on the first rung with a small division count, proving the ladder
// starts cheap.
func TestChooseDivisionsRungHonoured(t *testing.T) {
	f := makeField(t, "smooth", 23)
	pol := Policy{MaxAbs: 5, Verify: VerifyDecode}
	out, err := Encode("v", f, core.DefaultOptions(), pol)
	if err != nil {
		t.Fatal(err)
	}
	if out.Annotation.Mode != Bounded {
		t.Fatalf("smooth at loose bound: mode %v, want bounded", out.Annotation.Mode)
	}
	if out.Annotation.Escalations != 0 {
		t.Errorf("escalated %d times on an easy bound", out.Annotation.Escalations)
	}
	if quant.MaxDivisions != 255 {
		t.Fatal("MaxDivisions changed; ladder assumptions stale")
	}
}

// TestDecodeIntoCallersField: every mode of envelope decodes into a field the
// caller supplies to what Decode allocates, and one of another shape — or a
// shape the stream does not have — is refused with nothing written.
func TestDecodeIntoCallersField(t *testing.T) {
	f := makeField(t, "smooth", 31)
	for _, pol := range []Policy{
		{},                                // unbounded lossy
		{MaxAbs: 5, Verify: VerifyDecode}, // bounded lossy
		{MaxAbs: 1e-300},                  // lossless: the gzip-only rung
	} {
		out, err := Encode("v", f, core.DefaultOptions(), pol)
		if err != nil {
			t.Fatal(err)
		}
		mode := out.Annotation.Mode
		want, _, err := Decode(out.Payload, f.Shape(), 2)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		into := grid.MustNew(f.Shape()...)
		got, ann, err := DecodeInto(out.Payload, f.Shape(), 2, into)
		if err != nil || got != into || ann.Mode != mode || !bitsEqual(into.Data(), want.Data()) {
			t.Errorf("%v: into the caller's field: %v (its field: %v, mode %v)", mode, err, got == into, ann.Mode)
		}
		for _, other := range [][]int{{6, 10, 6}, {12, 10, 7}} {
			wrong := grid.MustNew(other...)
			wrong.Fill(-1)
			for _, shape := range [][]int{f.Shape(), other} {
				if _, _, err := DecodeInto(out.Payload, shape, 2, wrong); err == nil {
					t.Errorf("%v: a %v stream decoded as %v into a %v field", mode, f.Shape(), shape, other)
				}
			}
			for _, v := range wrong.Data() {
				if v != -1 {
					t.Fatalf("%v: a refused decode wrote its destination", mode)
				}
			}
		}
	}
}
