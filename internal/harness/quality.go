package harness

import (
	"fmt"
	"time"

	"lossyckpt/internal/core"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/heat"
	"lossyckpt/internal/nbody"
	"lossyckpt/internal/qa"
	"lossyckpt/internal/quant"
)

// workloads names the built-in workloads WorkloadFields knows.
var workloads = []string{"climate", "heat", "nbody"}

// shortWorkloadSteps is how long the experiments run the two workloads that
// have no warm-up of their own in Config.
const shortWorkloadSteps = 100

// WorkloadFields runs one built-in workload for steps steps and returns
// its named checkpoint arrays: the climate model on c's grid, the heat
// solver and the N-body system at their default sizes, seeded by c.Seed.
func (c Config) WorkloadFields(workload string, steps int) ([]grid.Named, error) {
	switch workload {
	case "climate":
		m, err := c.modelAt(steps)
		if err != nil {
			return nil, err
		}
		return m.Fields(), nil
	case "heat":
		s, err := heat.New(heat.DefaultConfig())
		if err != nil {
			return nil, err
		}
		s.StepN(steps)
		return []grid.Named{{Name: "temperature", Field: s.Temperature()}}, nil
	case "nbody":
		nc := nbody.DefaultConfig()
		if c.Seed != 0 {
			nc.Seed = c.Seed
		}
		sys, err := nbody.New(nc)
		if err != nil {
			return nil, err
		}
		sys.StepN(steps)
		return sys.Fields(), nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want climate|heat|nbody)", workload)
	}
}

// workloadSteps is how far the experiments run a workload: the climate
// model to the checkpoint step, the others shortWorkloadSteps.
func (c Config) workloadSteps(workload string) int {
	if workload == "climate" {
		return c.WarmupSteps
	}
	return shortWorkloadSteps
}

// QualityReport is the one builder of a workload's qa.Report — behind
// `lossyckpt report -workload` and the qa, guard and entropy experiments
// alike: the workload after steps steps, each array assessed at the
// default operating point (proposed quantization, n=128) and swept over
// divisions for its rate-distortion curve (nil = qa.DefaultDivisions).
func (c Config) QualityReport(workload string, steps int, divisions []int) (*qa.Report, error) {
	fields, err := c.WorkloadFields(workload, steps)
	if err != nil {
		return nil, err
	}
	rep := &qa.Report{
		Title:    "Checkpoint quality report: " + workload,
		Workload: workload,
		Codec:    "lossy (wavelet+quantize)",
		Created:  time.Now().UTC(),
	}
	opts := c.options(quant.Proposed, 128)
	for _, nf := range fields {
		g, _, err := core.RoundTrip(nf.Field, opts)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", workload, nf.Name, err)
		}
		a, err := qa.Assess(nf.Name, nf.Field.Data(), g.Data())
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", workload, nf.Name, err)
		}
		rd, err := qa.RateDistortion(nf.Field, opts, divisions)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", workload, nf.Name, err)
		}
		rep.Assessments = append(rep.Assessments, a)
		rep.RD = append(rep.RD, qa.VarRD{Var: nf.Name, Points: rd})
	}
	return rep, nil
}

// qualityAnalytics is experiment X15: Z-checker-style compression
// quality assessment across all three workloads. For each checkpoint
// array it reports the error distribution's key figures (max-abs,
// max-rel, PSNR) at the default operating point, plus the
// rate-distortion extremes of the division sweep — the data behind the
// paper's "acceptable error" argument, measured instead of asserted.
// With cfg.ReportDir set, the full per-workload reports (histograms,
// spectra, autocorrelation, complete RD curves) are written there as
// markdown + JSON.
func qualityAnalytics(cfg Config, t *Table) error {
	for _, w := range workloads {
		rep, err := cfg.QualityReport(w, cfg.workloadSteps(w), nil)
		if err != nil {
			return err
		}
		for i, a := range rep.Assessments {
			lo, hi := "", ""
			if pts := rep.RD[i].Points; len(pts) > 0 {
				lo = fmt.Sprintf("%.2f", pts[0].BitsPerValue)
				hi = fmt.Sprintf("%.2f", pts[len(pts)-1].BitsPerValue)
			}
			t.AddRow(w, a.Var,
				fmt.Sprintf("%.3g", a.MaxAbs), fmt.Sprintf("%.3g", a.MaxRel),
				fmt.Sprintf("%.2f", a.PSNR), lo, hi)
		}
		if cfg.ReportDir != "" {
			md, _, err := rep.WriteFiles(cfg.ReportDir, w+"-report")
			if err != nil {
				return err
			}
			t.Notes = append(t.Notes, "full report: "+md)
		}
	}
	return nil
}

// attachQualityReport writes one workload's full quality report into
// cfg.ReportDir (when set) and records its path on the table — how the
// guard-overhead and entropy-stage experiments carry their quality
// evidence alongside the timing numbers.
func attachQualityReport(cfg Config, t *Table, workload, base string) {
	if cfg.ReportDir == "" {
		return
	}
	rep, err := cfg.QualityReport(workload, cfg.workloadSteps(workload), nil)
	var md string
	if err == nil {
		md, _, err = rep.WriteFiles(cfg.ReportDir, base)
	}
	if err != nil {
		t.Notes = append(t.Notes, "quality report failed: "+err.Error())
		return
	}
	t.Notes = append(t.Notes, "quality report: "+md)
}
