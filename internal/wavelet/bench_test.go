package wavelet

import (
	"fmt"
	"testing"

	"lossyckpt/internal/grid"
)

// BenchmarkTransform times stage 1 on the shapes the end-to-end benchmark
// meets — a 128-plane slab and a whole field of the paper's 1156×82×2 arrays,
// whose last axis is 2 — and on a long 1-D lane: the forward and inverse
// transform into and out of the Mallat layout, the band walks between that
// layout and the pooled high and low bands, the two together (fwd+gather,
// scatter+inv), and analyze and synthesize, the pooled pair core calls, which
// go straight between the field and the pools. The walks have /reference rows
// running the lane walk and the per-element visit the kernels replaced
// (kernels_test.go). Run it at -cpu 1,2: the /workers=0 rows shard at
// GOMAXPROCS.
func BenchmarkTransform(b *testing.B) {
	for _, shape := range [][]int{{128, 82, 2}, {1156, 82, 2}, {32768}} {
		f := kernelField(1, false, shape...)
		p, err := NewPlan(shape, 1, Haar)
		if err != nil {
			b.Fatal(err)
		}
		sharded := *p
		sharded.cutoff = 0
		coef, out, lay := grid.MustNew(shape...), grid.MustNew(shape...), grid.MustNew(shape...)
		if err := p.TransformTo(coef, f, 1); err != nil {
			b.Fatal(err)
		}
		high, low := make([]float64, p.HighCount()), make([]float64, p.LowCount())
		name := fmt.Sprint(shape)
		run := func(op string, fn func()) {
			b.Run(name+"/"+op, func(b *testing.B) {
				b.SetBytes(int64(f.Bytes()))
				for i := 0; i < b.N; i++ {
					fn()
				}
			})
		}
		run("fwd", func() { p.TransformTo(out, f, 1) })
		run("fwd/workers=0", func() { p.TransformTo(out, f, 0) })
		run("fwd/workers=0/sharded", func() { sharded.TransformTo(out, f, 0) })
		run("fwd/reference", func() { copy(out.Data(), f.Data()); refTransform(p, out) })
		run("inv", func() { p.InverseTo(out, coef, 1) })
		run("inv/workers=0", func() { p.InverseTo(out, coef, 0) })
		run("inv/workers=0/sharded", func() { sharded.InverseTo(out, coef, 0) })
		run("inv/reference", func() { copy(out.Data(), coef.Data()); refInverse(p, out) })
		run("gather", func() { p.GatherHigh(coef, high); p.GatherLow(coef, low) })
		run("fwd+gather", func() { p.TransformTo(lay, f, 1); p.GatherHigh(lay, high); p.GatherLow(lay, low) })
		run("analyze", func() { p.Analyze(f, low, high, 1) })
		run("gather/reference", func() { refGather(p, coef.Data()) })
		run("scatter", func() { p.ScatterLow(out, low); p.ScatterHigh(out, high) })
		run("scatter+inv", func() { p.ScatterLow(lay, low); p.ScatterHigh(lay, high); p.InverseTo(out, lay, 1) })
		run("synthesize", func() { p.Synthesize(out, low, high, 1) })
		run("scatter/reference", func() {
			refScatter(p, out.Data(), low, true)
			refScatter(p, out.Data(), high, false)
		})
	}
}

// BenchmarkCutoff re-derives parallelCutoff: Analyze and Synthesize on
// n0×82×2 arrays from a 128-plane slab (21 k elements) through the 1.5 MB
// field and 6 MB to 24 MB (3 M), serial (workers 1) against sharded (the
// cutoff forced to 0, workers 0 = GOMAXPROCS), for the Haar block pass and
// CDF53's axis passes. Run it at -cpu 2 or more.
func BenchmarkCutoff(b *testing.B) {
	for _, scheme := range []Scheme{Haar, CDF53} {
		for _, n0 := range []int{128, 1156, 4624, 18496} {
			shape := []int{n0, 82, 2}
			f, out := kernelField(1, false, shape...), grid.MustNew(shape...)
			p, err := NewPlan(shape, 1, scheme)
			if err != nil {
				b.Fatal(err)
			}
			sharded := *p
			sharded.cutoff = 0
			high, low := make([]float64, p.HighCount()), make([]float64, p.LowCount())
			for _, op := range []string{"analyze", "synthesize"} {
				for _, mode := range []string{"serial", "sharded"} {
					q, workers := p, 1
					if mode == "sharded" {
						q, workers = &sharded, 0
					}
					b.Run(fmt.Sprintf("%v/%d/%s/%s", scheme, n0, op, mode), func(b *testing.B) {
						b.SetBytes(int64(f.Bytes()))
						for i := 0; i < b.N; i++ {
							var err error
							if op == "analyze" {
								err = q.Analyze(f, low, high, workers)
							} else {
								err = q.Synthesize(out, low, high, workers)
							}
							if err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		}
	}
}
