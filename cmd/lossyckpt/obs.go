// obs.go wires the observability layer into the CLI: every data-path
// subcommand accepts -metrics (serve /metrics, /metrics.json, /summary
// and /debug/pprof on an HTTP listener for the duration of the run),
// -obs-out (persist the final JSON snapshot atomically) and -obs-summary
// (print the end-of-run metric table). The flags install a process-wide
// default registry, so every layer below — core pipeline, store, ckpt
// manager — records without explicit plumbing.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"time"

	"lossyckpt/internal/obs"
	"lossyckpt/internal/obs/journal"
	"lossyckpt/internal/store"
)

// obsFlags carries the shared observability flag values of one subcommand.
type obsFlags struct {
	metricsAddr *string
	obsOut      *string
	summary     *bool
	hold        *time.Duration
	journalPath *string
}

// addObsFlags registers the shared observability flags on fs.
func addObsFlags(fs *flag.FlagSet) *obsFlags {
	return &obsFlags{
		metricsAddr: fs.String("metrics", "", "serve /metrics, /metrics.json, /summary and /debug/pprof on this address (e.g. :9090) for the duration of the run"),
		obsOut:      fs.String("obs-out", "", "write the final metrics snapshot (JSON) to this file"),
		summary:     fs.Bool("obs-summary", false, "print the end-of-run metric summary table"),
		hold:        fs.Duration("metrics-hold", 0, "keep the -metrics listener up this long after the command finishes (for scraping short runs)"),
		journalPath: fs.String("journal", "", "append flight-recorder wide events (JSONL) to this file for the duration of the run"),
	}
}

// metricsAddrHook, when non-nil, receives the bound address of the
// -metrics listener. Tests use it to find an ephemeral ":0" port.
var metricsAddrHook func(addr string)

// startObs begins one subcommand's observability scope: it installs the
// journal and the registry the flags ask for as the process defaults and
// returns the function that ends the scope; defer it, so metrics also
// surface when the command fails. With none of the flags set nothing is
// installed (no overhead beyond the nil checks already on the hot paths).
func startObs(of *obsFlags) (finish func(), err error) {
	endJournal := func() {}
	if *of.journalPath != "" {
		j, err := journal.Open(*of.journalPath, journal.Options{})
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		prev := journal.SetDefault(j)
		endJournal = func() {
			journal.SetDefault(prev)
			if err := j.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "journal:", err)
			} else {
				fmt.Fprintf(os.Stderr, "journal: wide events appended to %s\n", j.Path())
			}
		}
	}
	if *of.metricsAddr == "" && *of.obsOut == "" && !*of.summary {
		return endJournal, nil
	}
	reg := obs.NewRegistry()
	prev := obs.SetDefault(reg)
	var srv *obs.Server
	if *of.metricsAddr != "" {
		if srv, err = obs.Serve(*of.metricsAddr, reg); err != nil {
			obs.SetDefault(prev)
			endJournal()
			return nil, fmt.Errorf("metrics listener: %w", err)
		}
		fmt.Fprintf(os.Stderr, "metrics: serving on http://%s/metrics\n", srv.Addr())
		if metricsAddrHook != nil {
			metricsAddrHook(srv.Addr())
		}
	}
	return func() {
		endJournal()
		if srv != nil && *of.hold > 0 {
			time.Sleep(*of.hold)
		}
		if *of.summary {
			fmt.Println("-- metrics summary --")
			if err := reg.WriteSummary(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "metrics summary:", err)
			}
		}
		if *of.obsOut != "" {
			var buf bytes.Buffer
			err := reg.WriteJSON(&buf)
			if err == nil {
				err = store.WriteFileAtomicOS(*of.obsOut, buf.Bytes())
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "metrics snapshot:", err)
			} else {
				fmt.Fprintf(os.Stderr, "metrics: snapshot written to %s\n", *of.obsOut)
			}
		}
		if srv != nil {
			srv.Close()
		}
		obs.SetDefault(prev)
	}, nil
}
