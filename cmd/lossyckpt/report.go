// report.go implements the `lossyckpt report` subcommand: Z-checker
// style quality analytics for the built-in workloads (error
// distributions, PSNR, spectra, rate-distortion curves across
// quantization divisions) and flight-recorder journal summaries (top-N
// slowest operations, escalation and repair counts, codec decisions).
// Both modes render markdown; workload reports also persist JSON when
// -out names a directory.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"lossyckpt/internal/core"
	"lossyckpt/internal/harness"
	"lossyckpt/internal/obs/journal"
)

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	workload := fs.String("workload", "", "quality report for this workload: climate|heat|nbody")
	steps := fs.Int("steps", 40, "simulation steps before assessing")
	divisions := fs.String("divisions", "", "comma-separated quantization divisions for the rate-distortion sweep (default 16..1024)")
	outDir := fs.String("out", "", "write <workload>-report.md/.json into this directory (default: markdown to stdout)")
	jpath := fs.String("journal", "", "summarize this flight-recorder journal (JSONL) instead of / in addition to a workload report")
	top := fs.Int("top", 10, "journal summary: slowest operations to list")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workload == "" && *jpath == "" {
		return errors.New("report: need -workload and/or -journal")
	}
	if *workload != "" {
		if err := workloadReport(*workload, *steps, *divisions, *outDir); err != nil {
			return err
		}
	}
	if *jpath != "" {
		if err := journalReport(*jpath, *top, *outDir); err != nil {
			return err
		}
	}
	return nil
}

// workloadReport renders the quality report for one workload after steps
// simulation steps — harness.Config.QualityReport, the builder the qa, guard
// and entropy experiments use — at the paper's grid and each workload's
// default seed, as this subcommand always has.
func workloadReport(name string, steps int, divisionsCSV, outDir string) error {
	var divs []int // nil = qa.DefaultDivisions
	if divisionsCSV != "" {
		var err error
		if divs, err = parseDivisions(divisionsCSV); err != nil {
			return err
		}
	}
	cfg := harness.Default()
	cfg.Seed = 0
	rep, err := cfg.QualityReport(name, steps, divs)
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	rep.AddNote("%d simulation steps before assessment; %d divisions at the default operating point.",
		steps, core.DefaultOptions().Divisions)
	if outDir != "" {
		md, js, err := rep.WriteFiles(outDir, name+"-report")
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "report: wrote %s and %s\n", md, js)
		return nil
	}
	return rep.WriteMarkdown(os.Stdout)
}

// journalReport renders the markdown summary of one journal (including
// rotated predecessors).
func journalReport(path string, top int, outDir string) error {
	recs, torn, err := journal.ReadAll(path)
	if err != nil {
		return fmt.Errorf("report: reading journal: %w", err)
	}
	if len(recs) == 0 {
		return fmt.Errorf("report: journal %s holds no records", path)
	}
	sum := journal.Summarize(recs, torn, top)
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		fpath := outDir + string(os.PathSeparator) + "journal-summary.md"
		out, err := os.Create(fpath)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := sum.WriteMarkdown(out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "report: wrote %s\n", fpath)
		return nil
	}
	return sum.WriteMarkdown(os.Stdout)
}

// parseDivisions parses "16,64,256" into a division list.
func parseDivisions(csv string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(csv, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil || v < 2 {
			return nil, fmt.Errorf("report: bad division %q", p)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, errors.New("report: empty division list")
	}
	return out, nil
}
