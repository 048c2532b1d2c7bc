// Command experiments regenerates the tables and figures of Sasaki et al.
// (IPDPS 2015) — see DESIGN.md §4 for the experiment index.
//
// Usage:
//
//	experiments -run all                # every experiment, paper-scale
//	experiments -run fig7,fig8 -quick   # selected experiments, scaled down
//	experiments -run fig9 -csv out/     # also write CSV files
//	experiments -list                   # list experiment ids
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"lossyckpt/internal/entropy"
	"lossyckpt/internal/harness"
	"lossyckpt/internal/obs"
	"lossyckpt/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(out)
	runIDs := fs.String("run", "all", "comma-separated experiment ids, or 'all'")
	quick := fs.Bool("quick", false, "use the scaled-down workload (fast smoke run)")
	csvDir := fs.String("csv", "", "directory to also write <id>.csv files into")
	list := fs.Bool("list", false, "list experiment ids and exit")
	warmup := fs.Int("warmup", 0, "override warm-up steps (0 = config default)")
	restartSteps := fs.Int("restart-steps", 0, "override fig10 restart steps (0 = config default)")
	codec := fs.String("codec", "", "entropy codec for the entropy experiment's extra row: gzip or lz4 (\"\" = none)")
	shuffle := fs.Bool("shuffle", false, "byte-shuffle pre-pass for the entropy experiment's extra row")
	autotune := fs.Bool("autotune", false, "add the throughput/ratio autotuner objectives to the entropy experiment")
	reportDir := fs.String("report-dir", "", "write full per-workload quality reports (markdown + JSON) into this directory (qa, guard and entropy experiments)")
	metricsAddr := fs.String("metrics", "", "serve /metrics, /metrics.json, /summary and /debug/pprof on this address while experiments run")
	obsOut := fs.String("obs-out", "", "write the final metrics snapshot (JSON) to this file")
	obsSummary := fs.Bool("obs-summary", false, "print the end-of-run metric summary table")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var all []string
	for _, e := range harness.Experiments {
		all = append(all, e.ID)
	}
	if *list {
		fmt.Fprintln(out, strings.Join(all, "\n"))
		return nil
	}

	cfg := harness.Default()
	if *quick {
		cfg = harness.Quick()
	}
	if *warmup > 0 {
		cfg.WarmupSteps = *warmup
	}
	if *restartSteps > 0 {
		cfg.RestartSteps = *restartSteps
	}
	if *codec != "" {
		if _, err := entropy.ParseID(*codec); err != nil {
			return err
		}
		cfg.EntropyCodec = *codec
	}
	cfg.EntropyShuffle = *shuffle
	cfg.Autotune = *autotune
	cfg.ReportDir = *reportDir

	ids := all
	if *runIDs != "all" {
		ids = nil
		for _, id := range strings.FieldsFunc(*runIDs, func(r rune) bool { return strings.ContainsRune(", \t", r) }) {
			if !slices.Contains(all, id) {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return fmt.Errorf("nothing to run")
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	// Observability scope: install a default registry so the harness's
	// internal compression/store/checkpoint calls record into it, serve
	// it if asked, and persist/print at the end.
	if *metricsAddr != "" || *obsOut != "" || *obsSummary {
		reg := obs.NewRegistry()
		prev := obs.SetDefault(reg)
		defer obs.SetDefault(prev)
		if *metricsAddr != "" {
			srv, err := obs.Serve(*metricsAddr, reg)
			if err != nil {
				return fmt.Errorf("metrics listener: %w", err)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "metrics: serving on http://%s/metrics\n", srv.Addr())
		}
		defer func() {
			if *obsSummary {
				fmt.Fprintln(out, "-- metrics summary --")
				if err := reg.WriteSummary(out); err != nil {
					fmt.Fprintln(os.Stderr, "metrics summary:", err)
				}
			}
			if *obsOut != "" {
				var buf bytes.Buffer
				err := reg.WriteJSON(&buf)
				if err == nil {
					err = store.WriteFileAtomicOS(*obsOut, buf.Bytes())
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "metrics snapshot:", err)
				}
			}
		}()
	}

	for _, id := range ids {
		start := time.Now()
		tab, err := harness.Run(id, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if err := tab.Render(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "(%s took %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			path := filepath.Join(*csvDir, id+".csv")
			var buf bytes.Buffer
			if err := tab.CSV(&buf); err != nil {
				return err
			}
			// Atomic write: a crash mid-run never leaves a torn CSV.
			if err := store.WriteFileAtomicOS(path, buf.Bytes()); err != nil {
				return err
			}
		}
	}
	return nil
}
