package qa

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"lossyckpt/internal/core"
	"lossyckpt/internal/grid"
)

func sineField(t *testing.T, n int) *grid.Field {
	t.Helper()
	f, err := grid.New(n)
	if err != nil {
		t.Fatal(err)
	}
	d := f.Data()
	for i := range d {
		d[i] = math.Sin(2*math.Pi*8*float64(i)/float64(n)) + 0.1*math.Sin(2*math.Pi*37*float64(i)/float64(n))
	}
	return f
}

// TestAssessBasics: a known perturbation yields the expected error
// metrics, a populated histogram, spectrum bands that sum to ~1, and
// autocorrelation starting at 1.
func TestAssessBasics(t *testing.T) {
	f := sineField(t, 1024)
	orig := f.Data()
	approx := make([]float64, len(orig))
	const eps = 1e-3
	for i, v := range orig {
		approx[i] = v
		if i%2 == 0 {
			approx[i] += eps
		}
	}
	a, err := Assess("wave", orig, approx)
	if err != nil {
		t.Fatal(err)
	}
	if a.N != 1024 || a.Var != "wave" {
		t.Fatalf("identity fields: %+v", a)
	}
	if math.Abs(a.MaxAbs-eps) > 1e-12 {
		t.Fatalf("MaxAbs = %g, want %g", a.MaxAbs, eps)
	}
	if a.PSNR <= 0 || math.IsInf(a.PSNR, 0) {
		t.Fatalf("PSNR = %g", a.PSNR)
	}
	if a.ErrHist == nil {
		t.Fatal("no error histogram")
	}
	var sig, errE float64
	for _, b := range a.Spectrum {
		sig += b.SignalFrac
		errE += b.ErrorFrac
	}
	if math.Abs(sig-1) > 1e-6 {
		t.Fatalf("signal band fractions sum to %g", sig)
	}
	if math.Abs(errE-1) > 1e-6 {
		t.Fatalf("error band fractions sum to %g", errE)
	}
	if len(a.Autocorr) == 0 || math.Abs(a.Autocorr[0]-1) > 1e-9 {
		t.Fatalf("autocorr: %v", a.Autocorr)
	}
}

// TestAssessExactRoundTrip: identical inputs give zero error and
// infinite PSNR, and the assessment still marshals to valid JSON.
func TestAssessExactRoundTrip(t *testing.T) {
	f := sineField(t, 256)
	a, err := Assess("exact", f.Data(), f.Data())
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxAbs != 0 || a.RMSE != 0 {
		t.Fatalf("nonzero error on identical data: %+v", a)
	}
	if !math.IsInf(a.PSNR, 1) {
		t.Fatalf("PSNR = %g, want +Inf", a.PSNR)
	}
	raw, err := json.Marshal(a)
	if err != nil {
		t.Fatalf("marshal with +Inf PSNR: %v", err)
	}
	if !bytes.Contains(raw, []byte(`"psnr_db":null`)) {
		t.Fatalf("+Inf PSNR not nulled: %s", raw)
	}
}

// TestAssessRejectsMismatch: length mismatch and empty input are errors.
func TestAssessRejectsMismatch(t *testing.T) {
	if _, err := Assess("x", []float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Assess("x", nil, nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestRateDistortionMonotone: more divisions can't shrink PSNR much or
// grow max-abs error; compressed size grows with precision.
func TestRateDistortionMonotone(t *testing.T) {
	f := sineField(t, 4096)
	pts, err := RateDistortion(f, core.DefaultOptions(), []int{8, 64, 255})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points: %d", len(pts))
	}
	if !(pts[2].MaxAbs <= pts[0].MaxAbs) {
		t.Fatalf("error did not shrink with divisions: %+v", pts)
	}
	if !(pts[2].PSNR >= pts[0].PSNR) {
		t.Fatalf("PSNR did not grow with divisions: 8div=%g 255div=%g", pts[0].PSNR, pts[2].PSNR)
	}
	for _, p := range pts {
		if p.BitsPerValue <= 0 || p.EncodeSeconds < 0 || p.DecodeSeconds < 0 {
			t.Fatalf("bad point: %+v", p)
		}
	}
}

// TestReportRendering: the report writes markdown with the summary
// table, histogram, RD section, and valid JSON alongside.
func TestReportRendering(t *testing.T) {
	f := sineField(t, 1024)
	res, err := core.Compress(f, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.Decompress(res.Data)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Assess("wave", f.Data(), dec.Data())
	if err != nil {
		t.Fatal(err)
	}
	rd, err := RateDistortion(f, core.DefaultOptions(), []int{16, 128})
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{
		Title: "test", Workload: "synthetic", Codec: "lossy",
		Created:     time.Unix(0, 0).UTC(),
		Assessments: []*Assessment{a},
		RD:          []VarRD{{Var: "wave", Points: rd}},
	}
	rep.AddNote("note %d", 1)

	var md strings.Builder
	if err := rep.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"## Error assessment", "wave", "Rate-distortion", "note 1", "#"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown missing %q", want)
		}
	}

	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("report JSON invalid: %v", err)
	}

	dir := t.TempDir()
	mdPath, jsPath, err := rep.WriteFiles(dir, "synthetic-report")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{mdPath, jsPath} {
		if !strings.HasPrefix(p, dir) {
			t.Errorf("report file %s outside %s", p, dir)
		}
	}
}

// TestSpectrumFoldsEnergy: a pure low-frequency signal concentrates its
// energy in the lowest bands.
func TestSpectrumFoldsEnergy(t *testing.T) {
	n := 1 << 12
	sig := make([]float64, n)
	for i := range sig {
		sig[i] = math.Sin(2 * math.Pi * 2 * float64(i) / float64(n))
	}
	errField := make([]float64, n) // zero error
	bands := bandEnergies(sig, errField, 8, n)
	if len(bands) != 8 {
		t.Fatalf("bands: %d", len(bands))
	}
	if bands[0].SignalFrac < 0.9 {
		t.Fatalf("low band holds %g of the energy, want >0.9", bands[0].SignalFrac)
	}
}

// TestAutocorrelationShape: white-ish alternating error decorrelates
// fast; constant error stays correlated.
func TestAutocorrelationShape(t *testing.T) {
	n := 512
	alt := make([]float64, n)
	for i := range alt {
		alt[i] = float64(1 - 2*(i%2))
	}
	r := autocorrelation(alt, 4)
	if math.Abs(r[0]-1) > 1e-9 {
		t.Fatalf("r0 = %g", r[0])
	}
	if r[1] > -0.9 {
		t.Fatalf("alternating series r1 = %g, want ~-1", r[1])
	}
	zero := make([]float64, n)
	rz := autocorrelation(zero, 4)
	for _, v := range rz[1:] {
		if v != 0 {
			t.Fatalf("zero-variance autocorr: %v", rz)
		}
	}
}
