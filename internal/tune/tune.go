// Package tune closes the loop the paper leaves open: §IV-C proposes
// controlling the pipeline "by specifying a value" instead of hand-tuned
// parameters, and the error-bounded-compression literature (PAPERS.md —
// Tao et al.'s Fixed-PSNR analytic rate control, Di et al.'s survey of
// adaptive codec selection) shows production compressors pick their
// entropy configuration online. The Tuner does that for the entropy
// stage: given a sample of a variable's bytes it probes each candidate
// codec on it, scores the measurements under a stated objective, caches the
// winner per variable, and keeps listening to observed stage timings so a
// drifting workload triggers a re-probe. The sample is probed in the byte
// lanes the container stores float sections in (format 2), so the
// whole-stream byte-shuffle is not a candidate.
// The guard ladder (PR 4) stays the enforcement backstop — the tuner
// only ever changes lossless entropy framing, never quality.
package tune

import (
	"runtime"
	"sync"
	"time"

	"lossyckpt/internal/container"
	"lossyckpt/internal/core"
	"lossyckpt/internal/entropy"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/gzipio"
	"lossyckpt/internal/obs"
	"lossyckpt/internal/obs/journal"
)

// Metric names recorded by the tuner.
const (
	// MetricProbes counts probe compressions, labeled codec=<label>.
	MetricProbes = "lossyckpt_tune_probes_total"
	// MetricDecisions counts cache-miss decisions, labeled codec=<label>.
	MetricDecisions = "lossyckpt_tune_decisions_total"
	// MetricReProbes counts cache invalidations from drift feedback or
	// the periodic refresh, labeled reason=drift|refresh.
	MetricReProbes = "lossyckpt_tune_reprobes_total"
)

// Objective states what the tuner optimizes.
type Objective int

const (
	// Balanced minimizes estimated end-to-end checkpoint cost: coding
	// time plus compressed bytes over the assumed storage bandwidth. This
	// is the paper's actual trade-off — compression only pays when
	// (compress + write-compressed) beats (write-raw).
	Balanced Objective = iota
	// Throughput minimizes entropy-stage coding time alone.
	Throughput
	// Ratio minimizes compressed size alone.
	Ratio
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case Throughput:
		return "throughput"
	case Ratio:
		return "ratio"
	default:
		return "balanced"
	}
}

// Setting is one entropy-stage configuration the tuner can select.
type Setting struct {
	Codec entropy.ID
	// Shuffle predates container format 2; the tuner no longer selects it.
	Shuffle   bool
	GzipBlock int
	Workers   int
}

// Label is the codec label ("lz4+shuffle", …) for metrics and reports.
func (s Setting) Label() string {
	return entropy.Params{Codec: s.Codec, Shuffle: s.Shuffle}.Label()
}

// Apply overlays the setting on compressor options, leaving the lossy
// stages untouched — the tuner only ever steers lossless entropy
// framing.
func (s Setting) Apply(o core.Options) core.Options {
	o.EntropyCodec = s.Codec
	o.Shuffle = s.Shuffle
	o.GzipBlock = s.GzipBlock
	if s.Workers > 0 {
		o.Workers = s.Workers
	}
	return o
}

// Config parameterizes a Tuner. The zero value is usable.
type Config struct {
	// Objective is the optimization target (default Balanced).
	Objective Objective
	// GzipLevel is the DEFLATE level probed for gzip candidates (default
	// gzipio.Default).
	GzipLevel int
	// Observer receives probe/decision counters; nil uses the process
	// default registry.
	Observer *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.GzipLevel == 0 {
		c.GzipLevel = gzipio.Default
	}
	if c.Observer == nil {
		c.Observer = obs.Default()
	}
	return c
}

// decision is one cached per-variable choice plus the probe's
// expectation, against which Observe checks reality.
type decision struct {
	setting Setting
	// probeBytesPerSec is the coding throughput the probe measured for
	// the winning candidate.
	probeBytesPerSec float64
	uses             int
}

// Tuner picks entropy-stage settings per variable. Safe for concurrent
// use; the ckpt manager encodes variables in parallel.
type Tuner struct {
	cfg Config

	mu    sync.Mutex
	byVar map[string]*decision
}

// New builds a Tuner.
func New(cfg Config) *Tuner {
	return &Tuner{cfg: cfg.withDefaults(), byVar: make(map[string]*decision)}
}

// candidate is one probed configuration.
type candidate struct {
	setting Setting
	seconds float64
	ratio   float64 // compressed/raw on the sample
}

const (
	// SampleBytes bounds the probe sample, in Sample and again in Decide:
	// larger samples measure better but cost more per cache miss.
	SampleBytes = 256 << 10
	// reProbeEvery re-runs the probe after this many cached uses of a
	// variable's decision, so long runs track drift even without timing
	// feedback.
	reProbeEvery = 16
	// diskBytesPerSec is the checkpoint-storage bandwidth the Balanced
	// objective charges compressed bytes against: 200 MB/s, assumed (a
	// parallel-filesystem-per-node figure in the range the paper's §IV-D
	// I/O discussion implies), not measured.
	diskBytesPerSec = 200 << 20
)

// Sample is the probe sample of one array for Decide: the byte image of its
// leading SampleBytes, read where it lies (grid.FloatBytes), so taking one
// for a decision the tuner has cached costs nothing.
func Sample(data []float64) []byte {
	return grid.FloatBytes(data[:min(len(data), SampleBytes/8)])
}

// Decide returns the entropy setting for one variable. sample should be
// a representative slice of the variable's bytes (the raw float64
// stream works; the probe is an estimate that the Observe feedback
// corrects). rawBytes is the full variable size, used to scale the cost
// model and to size the parallel-gzip block heuristic. Cached decisions
// are returned until reProbeEvery uses or a drift report invalidates
// them.
func (t *Tuner) Decide(varName string, rawBytes int, sample []byte) Setting {
	t.mu.Lock()
	if d, ok := t.byVar[varName]; ok {
		d.uses++
		if d.uses < reProbeEvery {
			s := d.setting
			t.mu.Unlock()
			return s
		}
		delete(t.byVar, varName)
		t.mu.Unlock()
		t.cfg.Observer.Counter(MetricReProbes, "reason", "refresh").Inc()
	} else {
		t.mu.Unlock()
	}

	d := t.probe(varName, rawBytes, sample)

	t.mu.Lock()
	t.byVar[varName] = d
	t.mu.Unlock()
	return d.setting
}

// probe measures every candidate on the sample and scores them under
// the objective.
func (t *Tuner) probe(varName string, rawBytes int, sample []byte) *decision {
	if len(sample) == 0 {
		// Nothing to measure: stay on the repository default.
		return &decision{setting: Setting{Codec: entropy.Gzip}}
	}
	sample = sample[:min(len(sample), SampleBytes)]
	probed := t.measure(sample)
	if len(probed) == 0 {
		// Nothing measurable (empty sample or all candidates failed):
		// fall back to the repository default.
		return &decision{setting: Setting{Codec: entropy.Gzip}}
	}

	best, bestCost := probed[0], t.cost(probed[0], rawBytes, len(sample))
	for _, c := range probed[1:] {
		if cost := t.cost(c, rawBytes, len(sample)); cost < bestCost {
			best, bestCost = c, cost
		}
	}

	sel := best.setting
	// Parallelism heuristic: only the gzip codec has a block-parallel
	// engine; shard large variables when cores are available.
	if sel.Codec == entropy.Gzip && runtime.GOMAXPROCS(0) > 1 && rawBytes >= 2*gzipio.DefaultBlockSize {
		sel.GzipBlock = gzipio.DefaultBlockSize
	}
	t.cfg.Observer.Counter(MetricDecisions, "codec", sel.Label()).Inc()
	journal.Note(t.cfg.Observer, "tune.decision", "var", varName,
		"codec", sel.Codec.String(), "shuffle", sel.Shuffle)

	bps := 0.0
	if best.seconds > 0 {
		bps = float64(maxInt(len(sample), 1)) / best.seconds
	}
	return &decision{setting: sel, probeBytesPerSec: bps}
}

// measure codes the sample under every candidate setting, laid out as the
// coder will get it: in the container's byte lanes (a stride-8 shuffle).
func (t *Tuner) measure(sample []byte) []candidate {
	cands := []Setting{{Codec: entropy.Gzip}, {Codec: entropy.LZ4}}
	sample = entropy.ShuffleBytes(sample, container.PackedWidth())
	probed := make([]candidate, 0, len(cands))
	for _, s := range cands {
		p := entropy.Params{
			Codec:     s.Codec,
			GzipLevel: t.cfg.GzipLevel,
			Observer:  t.cfg.Observer,
		}
		start := time.Now()
		res, err := entropy.Compress(sample, p)
		if err != nil {
			continue // a failing candidate is simply not selectable
		}
		secs := time.Since(start).Seconds()
		t.cfg.Observer.Counter(MetricProbes, "codec", s.Label()).Inc()
		ratio := float64(len(res.Compressed)) / float64(len(sample))
		probed = append(probed, candidate{setting: s, seconds: secs, ratio: ratio})
	}
	return probed
}

// cost scores one candidate for the full variable under the objective.
// Lower is better.
func (t *Tuner) cost(c candidate, rawBytes, sampleBytes int) float64 {
	if sampleBytes <= 0 {
		sampleBytes = 1
	}
	scale := float64(rawBytes) / float64(sampleBytes)
	if scale < 1 {
		scale = 1
	}
	codeSecs := c.seconds * scale
	writeSecs := c.ratio * float64(rawBytes) / diskBytesPerSec
	switch t.cfg.Objective {
	case Throughput:
		return codeSecs
	case Ratio:
		return c.ratio
	default:
		return codeSecs + writeSecs
	}
}

// Observe feeds one real encode back into the tuner: varName's entropy
// stage coded rawBytes in codeSeconds. When the observed throughput
// deviates from the probe's expectation by 2× in either direction the
// cached decision is dropped, forcing a fresh probe on the next Decide —
// the online part of the autotuner.
func (t *Tuner) Observe(varName string, rawBytes int, codeSeconds float64) {
	if codeSeconds <= 0 || rawBytes <= 0 {
		return
	}
	t.mu.Lock()
	d, ok := t.byVar[varName]
	if !ok || d.probeBytesPerSec <= 0 {
		t.mu.Unlock()
		return
	}
	observed := float64(rawBytes) / codeSeconds
	drifted := observed > 2*d.probeBytesPerSec || observed < d.probeBytesPerSec/2
	if drifted {
		delete(t.byVar, varName)
	}
	t.mu.Unlock()
	if drifted {
		t.cfg.Observer.Counter(MetricReProbes, "reason", "drift").Inc()
	}
}

// Cached returns the currently cached setting for a variable, if any —
// reporting/test surface.
func (t *Tuner) Cached(varName string) (Setting, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.byVar[varName]
	if !ok {
		return Setting{}, false
	}
	return d.setting, true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
