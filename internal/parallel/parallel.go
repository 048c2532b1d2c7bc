// Package parallel executes the scenario the paper's Fig. 9 only models
// analytically: P application ranks, each holding a ~1.5 MB checkpoint
// array, compress their checkpoints concurrently ("in an embarrassingly
// parallel fashion", §IV-D) and then write the compressed data to a shared
// parallel filesystem.
//
// The compression really runs — every rank's array is compressed on a
// bounded worker pool, so CPU contention between ranks is measured, not
// assumed — while the filesystem remains the same bandwidth model as
// package iomodel (real multi-node I/O hardware being out of scope; see
// DESIGN.md §2). The result is a cross-check of the analytic estimator:
// the makespans it reports follow the same crossover behaviour, including
// the compression-cost plateau the paper's flat per-process term predicts.
//
// The package also verifies restartability: ReplayRank decodes any rank's
// checkpoint payload and reports its error against the live data.
package parallel

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"lossyckpt/internal/ckpt"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/iomodel"
	"lossyckpt/internal/stats"
)

// ErrConfig indicates an invalid cluster configuration.
var ErrConfig = errors.New("parallel: invalid configuration")

// Config describes the simulated cluster checkpoint.
type Config struct {
	// Ranks is the number of application processes P.
	Ranks int
	// ElemsPerRank is the per-rank checkpoint array length (the paper's
	// 1.5 MB ≈ 190k doubles).
	ElemsPerRank int
	// Codec compresses each rank's array. Must be safe for concurrent use.
	Codec ckpt.Codec
	// FS models the shared parallel filesystem.
	FS iomodel.FileSystem
	// Workers bounds the concurrently running compressions (0 =
	// GOMAXPROCS), modeling the per-node core budget.
	Workers int
	// Seed drives the synthetic rank data (each rank gets a distinct
	// smooth field derived from Seed and its rank id).
	Seed int64
}

// DefaultConfig mirrors the paper's weak-scaling unit: 1.5 MB per rank.
func DefaultConfig(ranks int, codec ckpt.Codec) Config {
	return Config{
		Ranks:        ranks,
		ElemsPerRank: 189584, // 1156*82*2, the paper's array length
		Codec:        codec,
		FS:           iomodel.PaperFS,
		Seed:         2015,
	}
}

func (c Config) validate() error {
	if c.Ranks < 1 {
		return fmt.Errorf("%w: ranks %d", ErrConfig, c.Ranks)
	}
	if c.ElemsPerRank < 2 {
		return fmt.Errorf("%w: %d elements per rank", ErrConfig, c.ElemsPerRank)
	}
	if c.Codec == nil {
		return fmt.Errorf("%w: nil codec", ErrConfig)
	}
	if c.FS.BandwidthBytesPerSec <= 0 {
		return fmt.Errorf("%w: filesystem bandwidth %g", ErrConfig, c.FS.BandwidthBytesPerSec)
	}
	return nil
}

// RankResult is one rank's checkpoint outcome.
type RankResult struct {
	Rank            int
	RawBytes        int
	CompressedBytes int
	// CompressWall is the measured wall-clock compression time of this
	// rank (queueing on the worker pool excluded).
	CompressWall time.Duration
	// Payload is the compressed checkpoint (kept for restart replay).
	Payload []byte
}

// Outcome aggregates a cluster checkpoint.
type Outcome struct {
	PerRank []RankResult
	// CompressMakespan is the measured wall-clock time from the first
	// compression starting to the last finishing (includes pool queueing —
	// the quantity that grows once ranks outnumber cores).
	CompressMakespan time.Duration
	// IOTime is the modeled shared-filesystem write of all compressed
	// payloads.
	IOTime time.Duration
	// IOTimeRaw is the modeled write of the uncompressed data (the
	// no-compression baseline).
	IOTimeRaw time.Duration
	// RawBytes and CompressedBytes sum over ranks.
	RawBytes        int
	CompressedBytes int
}

// TotalWith returns makespan + modeled compressed I/O.
func (o *Outcome) TotalWith() time.Duration { return o.CompressMakespan + o.IOTime }

// TotalWithout returns the no-compression baseline (raw I/O only).
func (o *Outcome) TotalWithout() time.Duration { return o.IOTimeRaw }

// CompressionRatePct returns the aggregate cr (Eq. 5) in percent.
func (o *Outcome) CompressionRatePct() float64 {
	if o.RawBytes == 0 {
		return math.NaN()
	}
	return 100 * float64(o.CompressedBytes) / float64(o.RawBytes)
}

// rankField builds rank r's synthetic smooth array: a shared large-scale
// pattern plus rank-dependent phase, the weak-scaling analogue of every
// process holding its own subdomain of one global field.
func rankField(cfg Config, r int) *grid.Field {
	f := grid.MustNew(cfg.ElemsPerRank)
	rng := rand.New(rand.NewSource(cfg.Seed + int64(r)))
	phase := 2 * math.Pi * float64(r) / float64(cfg.Ranks)
	data := f.Data()
	n := float64(len(data))
	for i := range data {
		x := float64(i) / n
		data[i] = 1000 +
			80*math.Sin(2*math.Pi*x+phase) +
			15*math.Cos(14*math.Pi*x-phase) +
			0.02*rng.NormFloat64()
	}
	return f
}

// Run executes the cluster checkpoint: builds every rank's data, compresses
// all ranks on the worker pool, and combines the measured compression
// makespan with the modeled filesystem write.
func Run(cfg Config) (*Outcome, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	fields := make([]*grid.Field, cfg.Ranks)
	for r := range fields {
		fields[r] = rankField(cfg, r)
	}

	out := &Outcome{PerRank: make([]RankResult, cfg.Ranks)}
	errs := make([]error, cfg.Ranks)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for r := 0; r < cfg.Ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			t0 := time.Now()
			enc, err := cfg.Codec.Encode(fields[r])
			if err != nil {
				errs[r] = err
				return
			}
			out.PerRank[r] = RankResult{
				Rank:            r,
				RawBytes:        enc.RawBytes,
				CompressedBytes: len(enc.Payload),
				CompressWall:    time.Since(t0),
				Payload:         enc.Payload,
			}
		}(r)
	}
	wg.Wait()
	out.CompressMakespan = time.Since(start)
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("parallel: rank %d: %w", r, err)
		}
	}
	for _, rr := range out.PerRank {
		out.RawBytes += rr.RawBytes
		out.CompressedBytes += rr.CompressedBytes
	}
	out.IOTime = cfg.FS.WriteTime(int64(out.CompressedBytes))
	out.IOTimeRaw = cfg.FS.WriteTime(int64(out.RawBytes))
	return out, nil
}

// ReplayRank decodes rank r's payload — the restart path — and returns the
// relative-error summary against the rank's live data (zero for lossless
// codecs).
func ReplayRank(cfg Config, o *Outcome, r int) (stats.Summary, error) {
	if r < 0 || r >= len(o.PerRank) {
		return stats.Summary{}, fmt.Errorf("%w: rank %d of %d", ErrConfig, r, len(o.PerRank))
	}
	live := rankField(cfg, r)
	decoded, err := cfg.Codec.Decode(o.PerRank[r].Payload, live.Shape(), nil)
	if err != nil {
		return stats.Summary{}, err
	}
	return stats.Compare(live.Data(), decoded.Data())
}
