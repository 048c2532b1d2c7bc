package harness

import (
	"fmt"
	"sort"
	"time"

	"lossyckpt/internal/core"
	"lossyckpt/internal/entropy"
	"lossyckpt/internal/quant"
	"lossyckpt/internal/tune"
)

// EntropyStage is experiment X14: the paper's §IV-D attributes most of
// the compression time to the entropy stage; this runner sweeps the
// pluggable stage (gzip vs the pure-Go lz4 coder, with and without the
// byte-shuffle pre-pass and block-parallel DEFLATE) over the
// temperature array and compares the online autotuner's pick against
// the fixed configurations. The stage is lossless, so every row
// reconstructs identically — only time and size move.
func EntropyStage(cfg Config) (*Table, error) {
	m, err := cfg.model()
	if err != nil {
		return nil, err
	}
	temp := m.Field("temperature")
	repeats := cfg.Repeats
	if repeats < 1 {
		repeats = 1
	}
	base := optionsFor(quant.Proposed, 128, cfg.TmpDir)
	base.VarName = "temperature"

	type measured struct {
		total, stage, decode time.Duration
		formatted            int
		crPct                float64
	}
	measure := func(opts core.Options) (measured, error) {
		runs := make([]measured, 0, repeats)
		for i := 0; i < repeats; i++ {
			res, err := core.Compress(temp, opts)
			if err != nil {
				return measured{}, err
			}
			dstart := time.Now()
			if _, err := core.DecompressAnyParallel(res.Data, opts.Workers); err != nil {
				return measured{}, err
			}
			runs = append(runs, measured{
				total:     res.Timings.Total,
				stage:     res.Timings.Gzip,
				decode:    time.Since(dstart),
				formatted: res.FormattedBytes,
				crPct:     res.CompressionRatePct(),
			})
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].total < runs[j].total })
		return runs[len(runs)/2], nil
	}

	t := &Table{
		ID:     "entropy",
		Title:  "Entropy stage: codec x shuffle x block size, temperature array (proposed, n=128)",
		Header: []string{"configuration", "total [ms]", "entropy [ms]", "entropy [MB/s]", "decode [ms]", "cr [%]"},
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	addRow := func(name string, mm measured) {
		mbps := 0.0
		if mm.stage > 0 {
			mbps = float64(mm.formatted) / mm.stage.Seconds() / 1e6
		}
		t.AddRow(name, ms(mm.total), ms(mm.stage), mbps, ms(mm.decode), mm.crPct)
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
		mm, err := measure(opts)
		if err != nil {
			return nil, fmt.Errorf("entropy %q: %w", sc.name, err)
		}
		addRow(sc.name, mm)
	}

	// Extra row for the configuration the experiment CLI's
	// -codec/-shuffle flags name.
	if cfg.EntropyCodec != "" || cfg.EntropyShuffle {
		opts := base
		label := "gzip"
		if cfg.EntropyCodec != "" {
			id, err := entropy.ParseID(cfg.EntropyCodec)
			if err != nil {
				return nil, fmt.Errorf("entropy: %w", err)
			}
			opts.EntropyCodec = id
			label = id.String()
		}
		opts.Shuffle = cfg.EntropyShuffle
		if cfg.EntropyShuffle {
			label += "+shuffle"
		}
		mm, err := measure(opts)
		if err != nil {
			return nil, fmt.Errorf("entropy flags: %w", err)
		}
		addRow(fmt.Sprintf("flags: %s", label), mm)
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
		mm, err := measure(setting.Apply(base))
		if err != nil {
			return nil, fmt.Errorf("entropy autotune %s: %w", obj, err)
		}
		addRow(fmt.Sprintf("autotune %s -> %s", obj, setting.Label()), mm)
	}

	t.Notes = append(t.Notes,
		"the entropy stage consumes the formatted container (stage 4); MB/s is formatted bytes over stage time",
		"the stage is lossless, so reconstruction error is identical across rows — only time and size move",
		"autotune probes the candidates on a 256 KiB sample and applies the winner; -autotune adds the throughput/ratio objectives, -codec/-shuffle add a fixed extra row")
	attachQualityReport(cfg, t, "climate", "x14-entropy-quality")
	return t, nil
}
