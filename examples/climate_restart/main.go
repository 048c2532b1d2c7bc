// Climate restart: the paper's full checkpoint/restart workflow (§IV-E)
// on the NICAM stand-in. A climate run is checkpointed with the lossy
// codec, a failure is simulated, the run restarts from the decompressed
// checkpoint, and the example tracks how the restarted run's temperature
// field drifts from the uninterrupted reference over subsequent steps.
package main

import (
	"bytes"
	"fmt"
	"log"

	"lossyckpt/internal/ckpt"
	"lossyckpt/internal/climate"
	"lossyckpt/internal/stats"
)

func main() {
	// A reduced grid keeps this example under a few seconds; pass the
	// paper's 1156×82×2 via climate.DefaultConfig() for the full run.
	cfg := climate.DefaultConfig()
	cfg.Nx, cfg.Nz = 289, 41

	const (
		checkpointStep = 120 // the paper checkpoints at step 720
		extraSteps     = 200 // the paper re-runs 1500 steps after restart
		sampleEvery    = 40
	)

	reference, err := climate.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	reference.StepN(checkpointStep)

	// Checkpoint all five physical arrays with the lossy codec.
	manager := ckpt.NewManager(ckpt.NewLossy(), 0)
	if err := manager.RegisterAll(reference.Fields()); err != nil {
		log.Fatal(err)
	}
	var checkpoint bytes.Buffer
	report, err := manager.Checkpoint(&checkpoint, reference.StepCount())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint at step %d: %d arrays, %d -> %d bytes (cr %.2f%%) in %v\n",
		report.Step, len(report.Entries), report.RawBytes,
		report.CompressedBytes, report.CompressionRatePct(), report.Wall)

	// --- simulated failure: the application restarts from scratch ---

	restarted, err := climate.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	restartMgr := ckpt.NewManager(ckpt.NewLossy(), 0)
	if err := restartMgr.RegisterAll(restarted.Fields()); err != nil {
		log.Fatal(err)
	}
	restoreRep, err := restartMgr.Restore(bytes.NewReader(checkpoint.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	restarted.SetStepCount(restoreRep.Step)
	fmt.Printf("restored to step %d in %v\n", restoreRep.Step, restoreRep.Wall)

	// Immediate error: the cost of lossy compression alone.
	imm, _ := stats.Compare(reference.Field("temperature").Data(),
		restarted.Field("temperature").Data())
	fmt.Printf("immediate temperature error after restore: %s\n", imm)

	// Both runs continue; the error drifts like a random walk (Fig. 10).
	fmt.Println("\nstep   avg temperature error [%]")
	for done := 0; done < extraSteps; done += sampleEvery {
		reference.StepN(sampleEvery)
		restarted.StepN(sampleEvery)
		s, _ := stats.Compare(reference.Field("temperature").Data(),
			restarted.Field("temperature").Data())
		fmt.Printf("%5d  %.5f\n", reference.StepCount(), s.AvgPct)
	}
	fmt.Println("\nthe error stays of the order of the compression error —")
	fmt.Println("the paper's argument for lossy checkpointing (§IV-E).")
}
