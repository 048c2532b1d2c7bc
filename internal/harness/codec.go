package harness

import (
	"fmt"
	"math"
	"time"

	"lossyckpt/internal/container"
	"lossyckpt/internal/core"
	"lossyckpt/internal/entropy"
	"lossyckpt/internal/fpc"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/guard"
	"lossyckpt/internal/gzipio"
	"lossyckpt/internal/quant"
	"lossyckpt/internal/stats"
	"lossyckpt/internal/synth"
	"lossyckpt/internal/tune"
	"lossyckpt/internal/wavelet"
)

// ablateGzip is experiment X1: the paper's §IV-D observes that most of the
// compression time goes to gzip through temporary files and proposes
// in-memory zlib compression; this runner measures both paths.
func ablateGzip(cfg Config, t *Table) error {
	temp, err := cfg.temperature()
	if err != nil {
		return err
	}
	configs := []struct {
		name   string
		mode   gzipio.Mode
		format gzipio.Format
	}{
		{"gzip, temp file (paper prototype)", gzipio.TempFile, gzipio.FormatGzip},
		{"gzip, in memory", gzipio.InMemory, gzipio.FormatGzip},
		{"zlib, in memory (paper's proposal)", gzipio.InMemory, gzipio.FormatZlib},
	}
	for _, c := range configs {
		opts := cfg.options(quant.Proposed, 128)
		opts.GzipMode = c.mode
		opts.GzipFormat = c.format
		runs, err := cfg.compressRuns(temp, opts)
		if err != nil {
			return err
		}
		best := runs[0]
		t.AddRow(c.name, ms(best.Timings.TempWrite), ms(best.Timings.Gzip),
			ms(best.Timings.Total), best.CompressionRatePct())
	}
	t.Notes = append(t.Notes, "paper §IV-D: \"This cost will be mostly eliminated by compressing the temporary checkpoint data with zlib in memory.\"")
	return nil
}

// errBound is experiment X2: the paper's §IV-C future work — pick the
// division number automatically from a user-specified error bound.
func errBound(cfg Config, t *Table) error {
	temp, err := cfg.temperature()
	if err != nil {
		return err
	}
	plan, err := wavelet.NewPlan(temp.Shape(), 1, wavelet.Haar)
	if err != nil {
		return err
	}
	high := make([]float64, plan.HighCount())
	if err := plan.Analyze(temp, make([]float64, plan.LowCount()), high, 0); err != nil {
		return err
	}
	for _, bound := range []float64{1.0, 0.1, 0.01, 0.001} {
		n, q, err := quant.ChooseDivisions(high, bound, quant.Proposed, quant.DefaultSpikeDivisions)
		status := ""
		if err == quant.ErrBoundUnreachable {
			status = " (unreachable, capped)"
		} else if err != nil {
			return err
		}
		e, err := quant.MaxQuantizationError(high, q)
		if err != nil {
			return err
		}
		t.AddRow(bound, fmt.Sprintf("%d%s", n, status), e, q.NumQuantized)
	}
	return nil
}

// fpcBaseline is experiment X3: the predictive lossless compressor of
// reference [17] as an additional baseline over all arrays.
func fpcBaseline(cfg Config, t *Table) error {
	m, err := cfg.model()
	if err != nil {
		return err
	}
	for _, nf := range m.Fields() {
		gz, err := cfg.gzipOnly(nf.Field)
		if err != nil {
			return err
		}
		fp, err := fpc.Compress(nf.Field.Data(), fpc.DefaultTableBits)
		if err != nil {
			return err
		}
		lossy, err := core.Compress(nf.Field, cfg.options(quant.Proposed, 128))
		if err != nil {
			return err
		}
		t.AddRow(nf.Name,
			gz.CompressionRatePct(),
			stats.CompressionRate(len(fp), nf.Field.Bytes()),
			lossy.CompressionRatePct())
	}
	t.Notes = append(t.Notes, "paper §II-A: lossless floating-point compression rates are limited; lossy is essential")
	return nil
}

// nBody is experiment X4: the compressor applied to N-body particle arrays
// (related work [31]), where the smoothness premise fails.
func nBody(cfg Config, t *Table) error {
	fields, err := cfg.WorkloadFields("nbody", cfg.workloadSteps("nbody"))
	if err != nil {
		return err
	}
	for _, nf := range fields {
		res, s, err := roundTrip(nf.Field, cfg.options(quant.Proposed, 128))
		if err != nil {
			return err
		}
		qpct := 0.0
		if res.NumHigh > 0 {
			qpct = 100 * float64(res.NumQuantized) / float64(res.NumHigh)
		}
		t.AddRow(nf.Name, res.CompressionRatePct(), s.AvgPct, s.MaxPct, qpct)
	}
	t.Notes = append(t.Notes,
		"particle-order arrays are not spatially smooth; compression rates degrade vs climate fields (paper future work / related work [31])")
	return nil
}

// levels is experiment X5: a multi-level decomposition ablation beyond the
// paper's single level, including the CDF(5/3) kernel extension.
func levels(cfg Config, t *Table) error {
	temp, err := cfg.temperature()
	if err != nil {
		return err
	}
	maxL := min(wavelet.MaxLevels(temp.Shape()), 4)
	for _, scheme := range []wavelet.Scheme{wavelet.Haar, wavelet.CDF53} {
		for depth := 1; depth <= maxL; depth++ {
			opts := cfg.options(quant.Proposed, 128)
			opts.Scheme = scheme
			opts.Levels = depth
			res, s, err := roundTrip(temp, opts)
			if err != nil {
				return err
			}
			t.AddRow(scheme.String(), depth, res.CompressionRatePct(), s.AvgPct, s.MaxPct)
		}
	}
	t.Notes = append(t.Notes, "paper uses haar at a single level; deeper levels shrink the stored low band")
	return nil
}

// perBand is experiment X8: the paper pools all high-frequency bands into
// one quantization (§III-B); this ablation quantizes each wavelet sub-band
// separately, which adapts partition widths to each band's value range at
// the cost of one average table per band.
func perBand(cfg Config, t *Table) error {
	temp, err := cfg.temperature()
	if err != nil {
		return err
	}
	for _, method := range bothMethods {
		for _, mode := range []string{"pooled", "per-band"} {
			opts := cfg.options(method, 128)
			opts.PerBandQuant = mode == "per-band"
			opts.Levels = 2 // deeper decomposition makes band ranges differ more
			res, s, err := roundTrip(temp, opts)
			if err != nil {
				return err
			}
			t.AddRow(method.String(), mode, res.CompressionRatePct(), s.AvgPct, s.MaxPct)
		}
	}
	t.Notes = append(t.Notes, "the paper pools all high bands (its Fig. 4 histogram is over the whole high region)")
	return nil
}

// threshold is experiment X9: classic wavelet coefficient thresholding as
// a pre-quantization stage — a candidate for the paper's §VI "improvement
// of the compression algorithm" future work.
func threshold(cfg Config, t *Table) error {
	temp, err := cfg.temperature()
	if err != nil {
		return err
	}
	for _, th := range []float64{0, 1e-4, 1e-3, 1e-2, 1e-1} {
		opts := cfg.options(quant.Proposed, 128)
		opts.ZeroThreshold = th
		res, s, err := roundTrip(temp, opts)
		if err != nil {
			return err
		}
		t.AddRow(th, res.CompressionRatePct(), s.AvgPct, s.MaxPct)
	}
	t.Notes = append(t.Notes, "thresholding trades bounded extra error for more redundant codes (better gzip)")
	return nil
}

// datasets is experiment X12: the compressor across the whole smoothness
// spectrum — ideal smooth fields, Kolmogorov-like turbulence, shocks,
// pure noise and spike-plus-outlier mixtures (package synth) — reporting
// compression rate, relative error and PSNR per dataset and per method,
// with gzip and FPC as lossless anchors. The paper evaluates only NICAM
// fields; this maps out where its §II-C smoothness premise starts and
// stops paying off.
func datasets(cfg Config, t *Table) error {
	for _, kind := range synth.Kinds {
		f, err := synth.Generate(kind, cfg.Seed, cfg.Nx, cfg.Nz, cfg.Nc)
		if err != nil {
			return err
		}
		gz, err := cfg.gzipOnly(f)
		if err != nil {
			return err
		}
		fp, err := fpc.Compress(f.Data(), fpc.DefaultTableBits)
		if err != nil {
			return err
		}
		row := []any{kind.String(), gz.CompressionRatePct(), stats.CompressionRate(len(fp), f.Bytes())}
		var psnr float64
		for _, method := range bothMethods {
			g, res, err := core.RoundTrip(f, cfg.options(method, 128))
			if err != nil {
				return err
			}
			s, err := stats.Compare(f.Data(), g.Data())
			if err != nil {
				return err
			}
			row = append(row, res.CompressionRatePct(), s.AvgPct)
			if method == quant.Proposed {
				if psnr, err = stats.PSNR(f.Data(), g.Data()); err != nil {
					return err
				}
			}
		}
		t.AddRow(append(row, psnr)...)
	}
	t.Notes = append(t.Notes,
		"paper §II-C: wavelet compression is effective when the data is smooth;",
		"expect cr to degrade monotonically from smooth toward noise, with lossless methods pinned near 90-100%")
	return nil
}

// sections is experiment X18 (ROADMAP 3(a)): what stage 4 is handed, section
// by section, and what DEFLATE makes of each alone — the float sections both as
// the 8-byte words container format 1 stored and as format 2's byte lanes — for
// the temperature array and every datasets row. What is left of the gap to the
// paper's 16.75 % reads off the passthrough rows: "in [% raw]" is the share of
// the array left verbatim, "lanes out/in" what the coder gets out of a double.
func sections(cfg Config, t *Table) error {
	temp, err := cfg.temperature()
	if err != nil {
		return err
	}
	sets := []grid.Named{{Name: "temperature", Field: temp}}
	for _, kind := range synth.Kinds {
		f, err := synth.Generate(kind, cfg.Seed, cfg.Nx, cfg.Nz, cfg.Nc)
		if err != nil {
			return err
		}
		sets = append(sets, grid.Named{Name: kind.String(), Field: f})
	}
	deflated := func(b []byte) int {
		// In memory at a valid level and format: there is no error to have.
		res, _ := entropy.Compress(b, entropy.Params{GzipLevel: gzipio.Default, GzipFormat: gzipio.FormatZlib})
		return len(res.Compressed)
	}
	for _, ds := range sets {
		res, err := core.Compress(ds.Field, cfg.options(quant.Proposed, 128))
		if err != nil {
			return err
		}
		formatted, err := entropy.Decompress(res.Data, 0)
		if err != nil {
			return err
		}
		arch, err := container.FromBytes(formatted)
		if err != nil {
			return err
		}
		band, raw := arch.Band(), float64(ds.Field.Bytes())
		row := func(section string, in int, words any, lanes int) {
			t.AddRow(ds.Name, section, in, 100*float64(in)/raw, words, lanes,
				float64(lanes)/float64(max(in, 1)), 100*float64(lanes)/raw)
		}
		var sumIn, sumWords, sumLanes int
		section := func(name string, words []byte, floats bool) {
			out := deflated(words)
			laned := out
			if floats {
				laned = deflated(entropy.ShuffleBytes(words, container.PackedWidth()))
			}
			row(name, len(words), out, laned)
			sumIn, sumWords, sumLanes = sumIn+len(words), sumWords+out, sumLanes+laned
		}
		section("low", grid.FloatBytes(arch.Low), true)
		section("averages", grid.FloatBytes(band.Averages), true)
		section("codes", band.Codes, false)
		section("bitmap", band.Bitmap.AppendTo(nil), false)
		section("passthrough", grid.FloatBytes(band.Passthrough), true)
		row("sum", sumIn, sumWords, sumLanes)
		row("stream", len(formatted), "-", res.CompressedBytes)
	}
	t.Notes = append(t.Notes,
		"words = a float section as container format 1 stored it, lanes = as format 2 stores it; codes and bitmap are the same bytes in both",
		"sum: the sections coded apart; stream: the whole container through one DEFLATE stream, as a save writes it (format 2)",
		"paper Fig. 6: 16.75 % for the temperature array, 20.62 % here when the stream was words; the low and passthrough rows are where the rest lies")
	return nil
}

// guardOverhead is experiment X13: what bounded-error enforcement costs.
// The paper reports reconstruction error after the fact (Table I); the
// guard turns those observations into enforced guarantees, paying for
// them with verification work and occasional escalation re-encodes. This
// experiment sweeps guard policies over the warmed-up temperature array
// and reports, per policy: encode time overhead versus the unguarded
// pipeline, compression rate, the mode the ladder settled on, escalation
// count, and the achieved error figures — the overhead-vs-guarantee
// trade-off in one table.
func guardOverhead(cfg Config, t *Table) error {
	f, err := cfg.temperature()
	if err != nil {
		return err
	}
	base := cfg.options(quant.Proposed, 128)

	// encoded is one encode: how many bytes it produced and, under the guard,
	// what it promises.
	type encoded struct {
		bytes int
		wall  time.Duration
		ann   guard.Annotation
	}
	medianEncode := func(enc func() (encoded, error)) (encoded, error) {
		runs, err := sortedRuns(cfg.Repeats, func() (encoded, time.Duration, error) {
			start := time.Now()
			e, err := enc()
			e.wall = time.Since(start)
			return e, e.wall, err
		})
		if err != nil {
			return encoded{}, err
		}
		return runs[len(runs)/2], nil
	}

	// Unguarded baseline: the plain pipeline at the same configuration.
	plain, err := medianEncode(func() (encoded, error) {
		res, err := core.Compress(f, base)
		if err != nil {
			return encoded{}, err
		}
		return encoded{bytes: res.CompressedBytes}, nil
	})
	if err != nil {
		return err
	}
	t.AddRow("unguarded", "-", float64(plain.wall.Milliseconds()), 0.0,
		stats.CompressionRate(plain.bytes, f.Bytes()), "unbounded", 0, math.NaN(), math.NaN())

	rng := stats.Range(f.Data())
	policies := []struct {
		name string
		pol  guard.Policy
	}{
		{"abs loose (1% rng)", guard.Policy{MaxAbs: 0.01 * rng}},
		{"abs tight (0.01% rng)", guard.Policy{MaxAbs: 1e-4 * rng}},
		{"rel 1e-3", guard.Policy{MaxRel: 1e-3}},
		{"psnr 60 dB", guard.Policy{PSNRFloor: 60}},
		{"psnr 110 dB", guard.Policy{PSNRFloor: 110}},
	}
	for _, pc := range policies {
		for _, vm := range []guard.VerifyMode{guard.VerifyAnalytic, guard.VerifyDecode} {
			pol := pc.pol
			pol.Verify = vm
			e, err := medianEncode(func() (encoded, error) {
				o, err := guard.Encode("temperature", f, base, pol)
				if err != nil {
					return encoded{}, err
				}
				return encoded{bytes: len(o.Payload), ann: o.Annotation}, nil
			})
			if err != nil {
				return fmt.Errorf("guard policy %q: %w", pc.name, err)
			}
			overhead := math.NaN()
			if plain.wall > 0 {
				overhead = 100 * (float64(e.wall)/float64(plain.wall) - 1)
			}
			t.AddRow(pc.name, vm.String(), float64(e.wall.Milliseconds()), overhead,
				stats.CompressionRate(e.bytes, f.Bytes()), e.ann.Mode.String(),
				int(e.ann.Escalations), e.ann.AchievedMaxAbs, e.ann.AchievedPSNR)
		}
	}
	t.Notes = append(t.Notes,
		"analytic verification bounds error from quantization tables (cheap, conservative); decode re-expands and measures (costly, exact)",
		"tight policies escalate the ladder (more divisions -> simple method -> lossless bands -> gzip), trading compression for the guarantee",
		"every row's achieved figures are enforced: a violated bound degrades to bit-exact gzip rather than shipping out of spec")
	attachQualityReport(cfg, t, "climate", "x13-guard-quality")
	return nil
}

// entropyStage is experiment X14: the paper's §IV-D attributes most of
// the compression time to the entropy stage; this runner sweeps the
// pluggable stage (gzip vs the pure-Go lz4 coder, with and without the
// byte-shuffle pre-pass and block-parallel DEFLATE) over the
// temperature array and compares the online autotuner's pick against
// the fixed configurations. The stage is lossless, so every row
// reconstructs identically — only time and size move.
func entropyStage(cfg Config, t *Table) error {
	temp, err := cfg.temperature()
	if err != nil {
		return err
	}
	base := cfg.options(quant.Proposed, 128)

	// measure adds the row of one configuration: the run of median total.
	measure := func(name string, opts core.Options) error {
		type run struct {
			res    *core.Result
			decode time.Duration
		}
		runs, err := sortedRuns(cfg.Repeats, func() (run, time.Duration, error) {
			res, err := core.Compress(temp, opts)
			if err != nil {
				return run{}, 0, err
			}
			dstart := time.Now()
			if _, err := core.DecompressAnyParallel(res.Data, opts.Workers); err != nil {
				return run{}, 0, err
			}
			return run{res, time.Since(dstart)}, res.Timings.Total, nil
		})
		if err != nil {
			return fmt.Errorf("entropy %s: %w", name, err)
		}
		med := runs[len(runs)/2]
		stage := med.res.Timings.Gzip
		mbps := 0.0
		if stage > 0 {
			mbps = float64(med.res.FormattedBytes) / stage.Seconds() / 1e6
		}
		t.AddRow(name, ms(med.res.Timings.Total), ms(stage), mbps, ms(med.decode), med.res.CompressionRatePct())
		return nil
	}

	sweeps := []struct {
		name    string
		codec   entropy.ID
		shuffle bool
		block   int
	}{
		{"gzip (baseline)", entropy.Gzip, false, 0},
		{"gzip + shuffle", entropy.Gzip, true, 0},
		{"gzip, 1 MiB blocks", entropy.Gzip, false, 1 << 20},
		{"lz4", entropy.LZ4, false, 0},
		{"lz4 + shuffle", entropy.LZ4, true, 0},
	}
	for _, sc := range sweeps {
		opts := base
		opts.EntropyCodec = sc.codec
		opts.Shuffle = sc.shuffle
		opts.GzipBlock = sc.block
		if err := measure(sc.name, opts); err != nil {
			return err
		}
	}

	// Extra row for the configuration the experiment CLI's
	// -codec/-shuffle flags name.
	if cfg.EntropyCodec != "" || cfg.EntropyShuffle {
		opts := base
		label := "gzip"
		if cfg.EntropyCodec != "" {
			id, err := entropy.ParseID(cfg.EntropyCodec)
			if err != nil {
				return fmt.Errorf("entropy: %w", err)
			}
			opts.EntropyCodec = id
			label = id.String()
		}
		opts.Shuffle = cfg.EntropyShuffle
		if cfg.EntropyShuffle {
			label += "+shuffle"
		}
		if err := measure("flags: "+label, opts); err != nil {
			return err
		}
	}

	// The autotuner probes candidates on a bounded sample and the chosen
	// setting runs end to end — its row should beat the gzip baseline's
	// wall time under the balanced and throughput objectives.
	objectives := []tune.Objective{tune.Balanced}
	if cfg.Autotune {
		objectives = append(objectives, tune.Throughput, tune.Ratio)
	}
	sample := tune.Sample(temp.Data())
	for _, obj := range objectives {
		tn := tune.New(tune.Config{Objective: obj})
		setting := tn.Decide("temperature", temp.Bytes(), sample)
		if err := measure(fmt.Sprintf("autotune %s -> %s", obj, setting.Label()), setting.Apply(base)); err != nil {
			return err
		}
	}

	t.Notes = append(t.Notes,
		"the entropy stage consumes the formatted container (stage 4); MB/s is formatted bytes over stage time",
		"the stage is lossless, so reconstruction error is identical across rows — only time and size move",
		"autotune probes the candidates on a 256 KiB sample and applies the winner; -autotune adds the throughput/ratio objectives, -codec/-shuffle add a fixed extra row")
	attachQualityReport(cfg, t, "climate", "x14-entropy-quality")
	return nil
}
