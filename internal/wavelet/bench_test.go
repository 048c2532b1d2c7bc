package wavelet

import (
	"fmt"
	"testing"

	"lossyckpt/internal/grid"
)

// BenchmarkTransform times stage 1 on the shapes the end-to-end benchmark
// meets — a 128-plane slab and a whole field of the paper's 1156×82×2 arrays,
// whose last axis is 2 — and on a long 1-D lane: the forward and inverse
// transform, out of place as core calls them, and the band walks between the
// transformed layout and the pooled high and low bands. Each has a /reference
// row running the lane walk and the per-element visit the kernels replaced
// (kernels_test.go). Run it at -cpu 1,2: the /workers=0 rows shard at
// GOMAXPROCS, and are what parallelCutoff was read from.
func BenchmarkTransform(b *testing.B) {
	for _, shape := range [][]int{{128, 82, 2}, {1156, 82, 2}, {32768}} {
		f := kernelField(1, false, shape...)
		p, err := NewPlan(shape, 1, Haar)
		if err != nil {
			b.Fatal(err)
		}
		sharded := *p
		sharded.cutoff = 0
		coef, out := grid.MustNew(shape...), grid.MustNew(shape...)
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
		run("gather/reference", func() { refGather(p, coef.Data()) })
		run("scatter", func() { p.ScatterLow(out, low); p.ScatterHigh(out, high) })
		run("scatter/reference", func() {
			refScatter(p, out.Data(), low, true)
			refScatter(p, out.Data(), high, false)
		})
	}
}
