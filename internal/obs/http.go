package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Handler returns the registry's HTTP surface:
//
//	/metrics        Prometheus text exposition
//	/metrics.json   full JSON snapshot of the metrics
//	/summary        the human end-of-run table
//	/debug/pprof/…  net/http/pprof profiles
//	/               a plain-text index of the above
//
// Safe to serve while recording continues; every page renders a fresh
// snapshot. The registry holds numbers only: what each operation did is in
// the journal (-journal, lossyckpt report -journal), not on a page here.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
	mux.HandleFunc("/summary", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = r.WriteSummary(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/buildinfo", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = writeBuildInfo(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "lossyckpt observability endpoints:")
		fmt.Fprintln(w, "  /metrics       Prometheus text format")
		fmt.Fprintln(w, "  /metrics.json  JSON snapshot of the metrics")
		fmt.Fprintln(w, "  /summary       human summary table")
		fmt.Fprintln(w, "  /healthz       liveness probe")
		fmt.Fprintln(w, "  /readyz        readiness probe (503 while draining)")
		fmt.Fprintln(w, "  /buildinfo     build and runtime facts (JSON)")
		fmt.Fprintln(w, "  /debug/pprof/  Go runtime profiles")
	})
	return mux
}

// writeBuildInfo renders a small JSON document of build and runtime
// facts: module version and VCS stamp when the binary carries them,
// plus Go version, GOMAXPROCS and coarse memory counters.
func writeBuildInfo(w io.Writer) error {
	type buildInfo struct {
		GoVersion  string            `json:"go_version"`
		Path       string            `json:"path,omitempty"`
		Version    string            `json:"version,omitempty"`
		Settings   map[string]string `json:"settings,omitempty"`
		GOMAXPROCS int               `json:"gomaxprocs"`
		NumGC      uint32            `json:"num_gc"`
		HeapBytes  uint64            `json:"heap_bytes"`
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	bi := buildInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumGC:      ms.NumGC,
		HeapBytes:  ms.HeapAlloc,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		bi.Path = info.Main.Path
		bi.Version = info.Main.Version
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision", "vcs.time", "vcs.modified", "GOARCH", "GOOS":
				if bi.Settings == nil {
					bi.Settings = map[string]string{}
				}
				bi.Settings[s.Key] = s.Value
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(bi)
}

// Server is a running metrics listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
	// ready backs /readyz: true from start, flipped false by SetReady or
	// Shutdown so load balancers stop routing while /healthz still
	// answers 200 (the process is alive, just draining).
	ready atomic.Bool
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetReady flips the /readyz probe: false answers 503 (draining, stop
// routing new work here), true answers 200. Liveness (/healthz) is
// unaffected.
func (s *Server) SetReady(ready bool) {
	if s == nil {
		return
	}
	s.ready.Store(ready)
}

// Ready reports the current /readyz state.
func (s *Server) Ready() bool {
	if s == nil {
		return false
	}
	return s.ready.Load()
}

// Close stops the listener. In-flight requests get a short grace period.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.ready.Store(false)
	s.srv.SetKeepAlivesEnabled(false)
	return s.srv.Close()
}

// Shutdown drains the server gracefully: /readyz flips to 503
// immediately, keep-alives stop, and in-flight requests run to
// completion or until ctx expires (then they are cut off, as
// http.Server.Shutdown's contract).
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil {
		return nil
	}
	s.ready.Store(false)
	s.srv.SetKeepAlivesEnabled(false)
	return s.srv.Shutdown(ctx)
}

// Serve starts an HTTP listener on addr serving r.Handler() plus a
// /readyz readiness probe in a background goroutine and returns
// immediately. Use ":0" to bind an ephemeral port and read it back from
// Server.Addr. The server starts ready; SetReady(false) or Shutdown
// flip /readyz to 503.
func Serve(addr string, r *Registry) (*Server, error) {
	return ServeHandler(addr, r.Handler())
}

// ServeHandler is Serve for callers that bring their own handler (the
// checkpoint daemon mounts its API next to the registry surface); the
// /readyz probe is layered on top either way.
func ServeHandler(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln}
	s.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/", h)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}
