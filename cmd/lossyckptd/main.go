// Command lossyckptd is the hardened multi-tenant checkpoint daemon: an
// HTTP service exposing save/restore/inspect/fsck/scrub over the
// crash-safe generation store, with per-tenant namespaces behind bearer
// tokens, bounded in-flight admission (backpressure via 429), request
// deadlines, byte quotas, TTL retention, and a graceful SIGTERM drain.
//
// Usage:
//
//	lossyckptd -dir ckpts -token secret [-tenant default] [-addr 127.0.0.1:8777]
//	lossyckptd -config daemon.json [-addr :8777] [-addr-file addr.txt]
//
// The single-tenant flags (-dir/-token/-tenant/-keep/-ttl/-quota-bytes/
// -replicas/-quorum/-backend) spin up one namespace without a config
// file; -config describes any number of tenants as JSON:
//
//	{
//	  "max_in_flight": 16,
//	  "default_timeout": "30s",
//	  "tenants": [
//	    {"name": "climate", "token": "s3cret", "dir": "/data/climate",
//	     "keep": 5, "ttl": "24h", "quota_bytes": 1073741824,
//	     "replicas": 3, "quorum": 2, "backend": "posix"}
//	  ]
//	}
//
// The listener also serves the observability surface: /metrics,
// /metrics.json, /summary, /healthz, /readyz (503 while draining) and
// /debug/pprof. -journal writes one wide event per request to a
// flight-recorder JSONL file, with the checkpoint, restore, quorum and
// commit operations the request caused as its children (`lossyckpt
// report -journal` summarizes it).
//
// On SIGTERM or SIGINT the daemon stops admitting work (/readyz flips
// to 503, new API requests get 503), lets in-flight requests finish
// within -drain-timeout, then exits; requests overstaying the budget
// have their contexts cancelled and abort cleanly through the store's
// context-aware commit path. A second signal forces immediate drain
// expiry. A daemon killed outright (SIGKILL, power loss) recovers on
// the next start: opening each tenant store replays the crash-safety
// protocol — manifest verification, directory rescan, temp-litter
// sweep, quarantine.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lossyckpt/internal/obs"
	"lossyckpt/internal/obs/journal"
	"lossyckpt/internal/server"
)

func main() {
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], sigs, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "lossyckptd:", err)
		os.Exit(1)
	}
}

// fileConfig is the JSON shape of -config: durations as strings, so an
// operator writes "30s", not nanosecond integers.
type fileConfig struct {
	MaxInFlight     int          `json:"max_in_flight,omitempty"`
	DefaultTimeout  string       `json:"default_timeout,omitempty"`
	MaxRequestBytes int64        `json:"max_request_bytes,omitempty"`
	ScrubEvery      string       `json:"scrub_every,omitempty"`
	Workers         int          `json:"workers,omitempty"`
	Tenants         []fileTenant `json:"tenants"`
}

type fileTenant struct {
	Name       string `json:"name"`
	Token      string `json:"token"`
	Dir        string `json:"dir"`
	Keep       int    `json:"keep,omitempty"`
	TTL        string `json:"ttl,omitempty"`
	QuotaBytes int64  `json:"quota_bytes,omitempty"`
	Dedup      bool   `json:"dedup,omitempty"`
	Replicas   int    `json:"replicas,omitempty"`
	Quorum     int    `json:"quorum,omitempty"`
	Backend    string `json:"backend,omitempty"`
}

func parseDur(s, what string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("config: bad %s %q: %w", what, s, err)
	}
	return d, nil
}

func loadConfig(path string) (server.Config, error) {
	var cfg server.Config
	data, err := os.ReadFile(path)
	if err != nil {
		return cfg, err
	}
	var fc fileConfig
	if err := json.Unmarshal(data, &fc); err != nil {
		return cfg, fmt.Errorf("config %s: %w", path, err)
	}
	cfg.MaxInFlight = fc.MaxInFlight
	cfg.MaxRequestBytes = fc.MaxRequestBytes
	cfg.Workers = fc.Workers
	if cfg.DefaultTimeout, err = parseDur(fc.DefaultTimeout, "default_timeout"); err != nil {
		return cfg, err
	}
	if cfg.ScrubEvery, err = parseDur(fc.ScrubEvery, "scrub_every"); err != nil {
		return cfg, err
	}
	for _, ft := range fc.Tenants {
		ttl, err := parseDur(ft.TTL, "ttl")
		if err != nil {
			return cfg, err
		}
		cfg.Tenants = append(cfg.Tenants, server.TenantConfig{
			Name:       ft.Name,
			Token:      ft.Token,
			Dir:        ft.Dir,
			Keep:       ft.Keep,
			TTL:        ttl,
			QuotaBytes: ft.QuotaBytes,
			Dedup:      ft.Dedup,
			Replicas:   ft.Replicas,
			Quorum:     ft.Quorum,
			Backend:    ft.Backend,
		})
	}
	return cfg, nil
}

func run(args []string, sigs <-chan os.Signal, logw *os.File) error {
	fs := flag.NewFlagSet("lossyckptd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8777", "listen address (use :0 for an ephemeral port with -addr-file)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening")
	configPath := fs.String("config", "", "JSON daemon config (multi-tenant); overrides the single-tenant flags")
	dir := fs.String("dir", "", "single-tenant mode: checkpoint store directory")
	tenant := fs.String("tenant", "default", "single-tenant mode: tenant name")
	token := fs.String("token", "", "single-tenant mode: bearer token (required with -dir)")
	keep := fs.Int("keep", 3, "single-tenant mode: retention ring size (negative keeps everything)")
	ttl := fs.Duration("ttl", 0, "single-tenant mode: generation TTL (0 = no TTL retention)")
	quota := fs.Int64("quota-bytes", 0, "single-tenant mode: stored-bytes quota (0 = unlimited)")
	dedup := fs.Bool("dedup", false, "single-tenant mode: content-addressed chunk dedup for the store")
	replicas := fs.Int("replicas", 1, "single-tenant mode: replica count")
	quorum := fs.Int("quorum", 0, "single-tenant mode: write quorum (0 = majority)")
	backend := fs.String("backend", "posix", "single-tenant mode: store backend (posix or object)")
	maxInFlight := fs.Int("max-in-flight", 0, "bound on concurrently admitted requests (0 = 16); excess gets 429")
	timeout := fs.Duration("timeout", 0, "default per-request deadline when the client sends none (0 = 30s)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight requests")
	scrubEvery := fs.Duration("scrub-every", 0, "background scrub interval per tenant (0 = off)")
	workers := fs.Int("workers", 0, "encode/decode workers per request (0 = GOMAXPROCS)")
	journalPath := fs.String("journal", "", "flight-recorder JSONL path (one wide event per request and per operation under it)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		cfg server.Config
		err error
	)
	if *configPath != "" {
		if cfg, err = loadConfig(*configPath); err != nil {
			return err
		}
	} else {
		if *dir == "" {
			return fmt.Errorf("either -config or -dir is required")
		}
		if *token == "" {
			return fmt.Errorf("-token is required with -dir (the daemon refuses unauthenticated namespaces)")
		}
		cfg.Tenants = []server.TenantConfig{{
			Name:       *tenant,
			Token:      *token,
			Dir:        *dir,
			Keep:       *keep,
			TTL:        *ttl,
			QuotaBytes: *quota,
			Dedup:      *dedup,
			Replicas:   *replicas,
			Quorum:     *quorum,
			Backend:    *backend,
		}}
	}
	if *maxInFlight != 0 {
		cfg.MaxInFlight = *maxInFlight
	}
	if *timeout != 0 {
		cfg.DefaultTimeout = *timeout
	}
	if *scrubEvery != 0 {
		cfg.ScrubEvery = *scrubEvery
	}
	if *workers != 0 {
		cfg.Workers = *workers
	}

	// The registry and the journal are the process defaults while the daemon
	// runs: every layer records there, the server's own operations included,
	// so server.Config's pair is left unset.
	reg := obs.NewRegistry()
	defer obs.SetDefault(obs.SetDefault(reg))
	if *journalPath != "" {
		j, err := journal.Open(*journalPath, journal.Options{})
		if err != nil {
			return err
		}
		defer j.Close()
		defer journal.SetDefault(journal.SetDefault(j))
	}

	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer s.Close()

	mux := http.NewServeMux()
	mux.Handle("/v1/", s.Handler())
	mux.Handle("/", reg.Handler())
	srv, err := obs.ServeHandler(*addr, mux)
	if err != nil {
		return err
	}
	defer srv.Close()
	if *addrFile != "" {
		if err := writeFileAtomic(*addrFile, []byte(srv.Addr()+"\n")); err != nil {
			return err
		}
	}
	fmt.Fprintf(logw, "lossyckptd: serving %d tenant(s) on %s\n", len(cfg.Tenants), srv.Addr())

	// Block until the first signal, then drain: readiness flips so load
	// balancers stop routing, in-flight work finishes inside the budget,
	// stragglers are context-cancelled. A second signal forces the
	// deadline immediately.
	sig := <-sigs
	fmt.Fprintf(logw, "lossyckptd: %v: draining (budget %s)\n", sig, *drainTimeout)
	srv.SetReady(false)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		select {
		case sig := <-sigs:
			fmt.Fprintf(logw, "lossyckptd: %v: forcing drain\n", sig)
			cancel()
		case <-ctx.Done():
		}
	}()
	if err := s.Drain(ctx); err != nil {
		fmt.Fprintf(logw, "lossyckptd: drain cut off in-flight requests: %v\n", err)
	}
	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shCancel()
	if err := srv.Shutdown(shCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(logw, "lossyckptd: drained, bye")
	return nil
}

// writeFileAtomic publishes content via temp-file + rename so a reader
// polling for the address file never sees a partial write.
func writeFileAtomic(path string, content []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, content, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
