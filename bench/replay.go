package main

import (
	"fmt"
	"math"

	"lossyckpt/internal/container"
	"lossyckpt/internal/core"
	"lossyckpt/internal/encode"
	"lossyckpt/internal/entropy"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/guard"
	"lossyckpt/internal/gzipio"
	"lossyckpt/internal/quant"
	"lossyckpt/internal/wavelet"
)

// replayInfo is what the stage chain learned about one array on the way.
type replayInfo struct {
	formatted    []byte // the container before the entropy stage
	numQuantized int
	numHigh      int
}

// replayCompress is core.Compress spelled out as the chain of public calls
// it makes, with a span around each stage, so that the per-layer times are
// measured from outside the packages. replay_test.go holds its output to
// core.Compress byte for byte. It covers the pooled-quantization path the
// five workloads take, the guard ladder's ErrorBound and LosslessBands
// rungs included; the per-band and thresholding ablations are refused.
func replayCompress(t *tracer, f *grid.Field, opts core.Options) ([]byte, replayInfo, error) {
	var info replayInfo
	if opts.PerBandQuant || opts.ZeroThreshold > 0 {
		return nil, info, fmt.Errorf("replay: per-band and thresholded quantization are not replayed")
	}

	id := t.begin("wavelet.fwd")
	plan, err := wavelet.NewPlan(f.Shape(), opts.Levels, opts.Scheme)
	if err != nil {
		return nil, info, err
	}
	work := f.Clone()
	if err := plan.TransformWorkers(work, opts.Workers); err != nil {
		return nil, info, err
	}
	high, err := plan.GatherHigh(work, make([]float64, plan.HighCount()))
	if err != nil {
		return nil, info, err
	}
	low, err := plan.GatherLow(work, make([]float64, plan.LowCount()))
	if err != nil {
		return nil, info, err
	}
	t.end(id, f.Bytes())

	var q *quant.Quantization
	switch {
	case opts.LosslessBands:
		q = quant.PassthroughAll(len(high))
	case opts.ErrorBound > 0:
		id = t.begin("quant.choose_divisions")
		_, q, err = quant.ChooseDivisions(high, opts.ErrorBound, opts.Method, opts.SpikeDivisions)
		t.end(id, 0)
		if err != nil && err != quant.ErrBoundUnreachable {
			return nil, info, err
		}
	default:
		id = t.begin("quant.quantize")
		q, err = quant.Quantize(high, quant.Config{
			Method: opts.Method, Divisions: opts.Divisions, SpikeDivisions: opts.SpikeDivisions, LogScale: opts.LogQuant,
		})
		t.end(id, 0)
		if err != nil {
			return nil, info, err
		}
	}
	info.numHigh, info.numQuantized = len(high), q.NumQuantized
	if q.NumQuantized > 0 {
		id = t.begin("quant.maxerr")
		_, err = quant.MaxQuantizationError(high, q)
		t.end(id, 0)
		if err != nil {
			return nil, info, err
		}
	}

	id = t.begin("encode.encode")
	band, err := encode.Encode(high, q)
	t.end(id, 0)
	if err != nil {
		return nil, info, err
	}

	id = t.begin("container.format")
	formatted, err := (&container.Archive{
		Params: container.Params{
			Scheme: opts.Scheme, Method: opts.Method, Levels: opts.Levels,
			Divisions: opts.Divisions, SpikeDivisions: opts.SpikeDivisions,
		},
		Shape: f.Shape(),
		Low:   low,
		Bands: []*encode.EncodedBand{band},
	}).Bytes()
	t.end(id, len(formatted))
	if err != nil {
		return nil, info, err
	}
	info.formatted = formatted

	id = t.begin("entropy.compress")
	var out []byte
	switch {
	case opts.EntropyCodec != entropy.Gzip || opts.Shuffle:
		var res entropy.Result
		res, err = entropy.Compress(formatted, entropy.Params{
			Codec: opts.EntropyCodec, Shuffle: opts.Shuffle, Stride: container.PackedWidth(),
			GzipLevel: opts.GzipLevel, GzipFormat: opts.GzipFormat, GzipMode: opts.GzipMode,
			GzipBlock: opts.GzipBlock, TmpDir: opts.TmpDir, Workers: opts.Workers,
		})
		out = res.Compressed
	case opts.GzipBlock > 0:
		var res gzipio.Result
		res, err = gzipio.CompressParallel(formatted, opts.GzipLevel, opts.GzipFormat,
			gzipio.ParallelOptions{BlockSize: opts.GzipBlock, Workers: opts.Workers})
		out = res.Compressed
	default:
		var res gzipio.Result
		res, err = gzipio.CompressFormat(formatted, opts.GzipLevel, opts.GzipMode, opts.TmpDir, opts.GzipFormat)
		out = res.Compressed
	}
	t.end(id, len(formatted))
	return out, info, err
}

// replayDecompress is core.Decompress as its chain of public calls.
func replayDecompress(t *tracer, data []byte, workers int) (*grid.Field, error) {
	id := t.begin("entropy.decompress")
	formatted, err := entropy.Decompress(data, workers)
	t.end(id, len(formatted))
	if err != nil {
		return nil, err
	}

	id = t.begin("container.parse")
	arch, err := container.FromBytes(formatted)
	t.end(id, 0)
	if err != nil {
		return nil, err
	}
	if arch.Params.PerBand || len(arch.Bands) != 1 {
		return nil, fmt.Errorf("replay: archive with %d band sections is not replayed", len(arch.Bands))
	}

	id = t.begin("encode.decode")
	high, err := arch.Band().Decode(nil)
	t.end(id, 0)
	if err != nil {
		return nil, err
	}

	id = t.begin("wavelet.inv")
	defer func() { t.end(id, 0) }()
	plan, err := wavelet.NewPlan(arch.Shape, arch.Params.Levels, arch.Params.Scheme)
	if err != nil {
		return nil, err
	}
	f, err := grid.New(arch.Shape...)
	if err != nil {
		return nil, err
	}
	if err := plan.ScatterLow(f, arch.Low); err != nil {
		return nil, err
	}
	if err := plan.ScatterHigh(f, high); err != nil {
		return nil, err
	}
	return f, plan.InverseWorkers(f, workers)
}

// shippedRung resolves the options of the ladder rung guard.Encode ended on
// for f from the stream it shipped, not from the ladder's arithmetic: the
// quantization method the container names and, on a bounded rung, as
// ErrorBound the coefficient error the shipped quantization reached (the
// smallest division number that meets the ladder's own target also meets
// that one, and no smaller one does). inner is the shipped stream, which the
// replay must reproduce. ok is false on the whole-variable lossless rung,
// which has no stages.
func shippedRung(base core.Options, f *grid.Field, out *guard.Outcome) (opts core.Options, inner []byte, ok bool, err error) {
	if out.Annotation.Mode == guard.Lossless {
		return opts, nil, false, nil
	}
	if inner, err = guard.InnerPayload(out.Payload); err != nil {
		return opts, nil, false, err
	}
	formatted, err := entropy.Decompress(inner, base.Workers)
	if err != nil {
		return opts, nil, false, err
	}
	arch, err := container.FromBytes(formatted)
	if err != nil {
		return opts, nil, false, err
	}
	opts = base
	opts.Method = arch.Params.Method
	if out.Annotation.Mode == guard.LosslessBands {
		opts.LosslessBands = true
		return opts, inner, true, nil
	}
	shipped, err := arch.Band().Decode(nil)
	if err != nil {
		return opts, nil, false, err
	}
	plan, err := wavelet.NewPlan(f.Shape(), opts.Levels, opts.Scheme)
	if err != nil {
		return opts, nil, false, err
	}
	work := f.Clone()
	if err := plan.TransformWorkers(work, opts.Workers); err != nil {
		return opts, nil, false, err
	}
	high, err := plan.GatherHigh(work, make([]float64, plan.HighCount()))
	if err != nil {
		return opts, nil, false, err
	}
	for i, v := range high {
		if e := math.Abs(v - shipped[i]); e > opts.ErrorBound {
			opts.ErrorBound = e
		}
	}
	return opts, inner, true, nil
}

// slabs cuts a field into the sub-arrays of chunkExtent leading-axis planes
// that the chunked engine compresses one by one; chunkExtent 0 is the whole
// field. The slabs share the field's memory.
func slabs(f *grid.Field, chunkExtent int) ([]*grid.Field, error) {
	shape := f.Shape()
	if chunkExtent <= 0 || chunkExtent >= shape[0] {
		return []*grid.Field{f}, nil
	}
	plane := f.Len() / shape[0]
	var out []*grid.Field
	for start := 0; start < shape[0]; start += chunkExtent {
		sub := append([]int{min(chunkExtent, shape[0]-start)}, shape[1:]...)
		slab, err := grid.FromSlice(f.Data()[start*plane:(start+sub[0])*plane], sub...)
		if err != nil {
			return nil, err
		}
		out = append(out, slab)
	}
	return out, nil
}
