// Parameter sweep: the paper's Figs. 7–8 trade-off on your own data — for
// each division number n, measure compression rate and relative error with
// both quantization methods, and additionally let the error-bound API pick
// n automatically (the paper's §IV-C future work).
package main

import (
	"fmt"
	"log"

	"lossyckpt/internal/climate"
	"lossyckpt/internal/core"
	"lossyckpt/internal/quant"
	"lossyckpt/internal/stats"
	"lossyckpt/internal/wavelet"
)

func main() {
	cfg := climate.DefaultConfig()
	cfg.Nx, cfg.Nz = 289, 41
	model, err := climate.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	model.StepN(90)
	temp := model.Field("temperature")

	fmt.Println("division-number sweep on the temperature array")
	fmt.Println("   n  simple: cr[%]  err[%]   proposed: cr[%]  err[%]")
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		row := fmt.Sprintf("%4d", n)
		for _, method := range []quant.Method{quant.Simple, quant.Proposed} {
			opts := core.DefaultOptions()
			opts.Method = method
			opts.Divisions = n
			restored, res, err := core.RoundTrip(temp, opts)
			if err != nil {
				log.Fatal(err)
			}
			s, _ := stats.Compare(temp.Data(), restored.Data())
			row += fmt.Sprintf("       %6.2f  %7.4f", res.CompressionRatePct(), s.AvgPct)
		}
		fmt.Println(row)
	}

	// Error-bound-driven selection: "give me the smallest n that keeps the
	// max quantization error below the bound".
	plan, err := wavelet.NewPlan(temp.Shape(), 1, wavelet.Haar)
	if err != nil {
		log.Fatal(err)
	}
	high := make([]float64, plan.HighCount())
	if err := plan.Analyze(temp, make([]float64, plan.LowCount()), high, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nerror-bound-driven division selection (proposed method)")
	for _, bound := range []float64{0.5, 0.05, 0.005} {
		n, q, err := quant.ChooseDivisions(high, bound, quant.Proposed, quant.DefaultSpikeDivisions)
		if err == quant.ErrBoundUnreachable {
			fmt.Printf("  bound %g: unreachable within n ≤ %d\n", bound, quant.MaxDivisions)
			continue
		}
		if err != nil {
			log.Fatal(err)
		}
		achieved, _ := quant.MaxQuantizationError(high, q)
		fmt.Printf("  bound %g: chose n=%d (achieved max error %.4g)\n", bound, n, achieved)
	}
}
