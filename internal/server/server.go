// Package server is the hardened multi-tenant checkpoint daemon: an
// HTTP gateway over the crash-safe generation store and the streaming
// checkpoint pipeline. Each tenant owns an isolated store (or replica
// set) behind a bearer token; the daemon adds the robustness envelope a
// shared service needs — bounded in-flight admission with backpressure,
// request deadlines threaded as contexts through commit and retry
// paths, byte quotas, TTL retention via a background scrubber, and a
// graceful drain that finishes in-flight work before the process exits.
//
// Endpoints (all under /v1/{tenant}/, bearer-token authenticated):
//
//	POST /v1/{tenant}/save?step=N[&codec=name]   body: wire field stream
//	GET  /v1/{tenant}/restore                    body: wire field stream
//	GET  /v1/{tenant}/inspect                    JSON generation index
//	POST /v1/{tenant}/fsck                       verified scrub, JSON report
//	POST /v1/{tenant}/scrub                      fast scrub, JSON report
//
// Refusals are deliberate and typed: 401 unknown tenant or bad token,
// 404 nothing restorable, 409 step conflict, 413 body over the byte
// cap, 429 + Retry-After when the in-flight cap is reached, 503 while
// draining, 504 when the request deadline expires, 507 over quota.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lossyckpt/internal/ckpt"
	"lossyckpt/internal/obs"
	"lossyckpt/internal/obs/journal"
	"lossyckpt/internal/store"
)

// Server metric names.
const (
	// MetricInflight gauges requests currently holding an admission slot.
	MetricInflight = "lossyckpt_server_inflight_requests"
	// MetricRejected counts refused requests, labeled by
	// reason=<overload|draining|auth|quota|deadline|too_large|bad_request>.
	MetricRejected = "lossyckpt_server_rejected_total"
	// MetricTenantBytes counts bytes committed per tenant.
	MetricTenantBytes = "lossyckpt_tenant_bytes_total"
	// MetricRequests counts completed requests labeled op=<save|restore|...>
	// and code=<HTTP status>.
	MetricRequests = "lossyckpt_server_requests_total"
)

// Config describes a daemon instance.
type Config struct {
	// Tenants are the namespaces to serve. At least one is required.
	Tenants []TenantConfig
	// MaxInFlight bounds concurrently admitted requests across all
	// tenants (0 = 16). Excess requests are refused with 429, not
	// queued: under overload the daemon sheds load instead of
	// accumulating latency.
	MaxInFlight int
	// DefaultTimeout is the per-request deadline when the client sends
	// no X-Deadline-Ms header (0 = 30s, negative = none).
	DefaultTimeout time.Duration
	// MaxRequestBytes caps a save request body (0 = 1 GiB).
	MaxRequestBytes int64
	// ScrubEvery starts a background scrubber per tenant at this
	// interval (verifies payloads, prunes expired generations, heals
	// replicas). 0 disables.
	ScrubEvery time.Duration
	// Workers bounds decode/encode parallelism per request (0 =
	// GOMAXPROCS).
	Workers int
	// Observer receives the daemon's own server.* telemetry (requests,
	// rejections, tenant bytes); nil falls back to the process default
	// registry. The layers under a request record on the process default.
	Observer *obs.Registry
	// Journal receives one server.* wide event per request; nil falls back
	// to the process default journal, where the layers under it record.
	Journal *journal.Journal
	// StoreOptions is the base store configuration tenants inherit
	// (dedup chunking, test seams); per-tenant fields (Keep, TTL, FS) override.
	StoreOptions store.Options
}

// Server is a running daemon instance (the HTTP listener is external —
// see obs.ServeHandler — so tests can drive the handler directly).
type Server struct {
	cfg     Config
	tenants map[string]*tenant

	sem      chan struct{} // admission slots
	inflight sync.WaitGroup

	// drainMu serializes request admission against Drain: requests take
	// the read side, check draining, and register with inflight before
	// releasing it; Drain takes the write side to flip draining, so no
	// request can slip in after the flip yet before the Wait.
	drainMu  sync.RWMutex
	draining atomic.Bool

	// hardCtx is cancelled when a drain deadline expires: every
	// in-flight request context is derived from it, so overstaying work
	// is cut off instead of wedging shutdown.
	hardCtx    context.Context
	hardCancel context.CancelFunc

	stopScrubs []func()
	closeOnce  sync.Once
}

// New opens every tenant store (running the store's crash recovery —
// rescan, sweep, quarantine — as the daemon's startup path) and starts
// the background scrubbers. Tenant names and dirs must be unique.
func New(cfg Config) (*Server, error) {
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("server: no tenants configured")
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 16
	}
	if cfg.MaxInFlight < 1 {
		return nil, fmt.Errorf("server: MaxInFlight must be >= 1, got %d", cfg.MaxInFlight)
	}
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxRequestBytes == 0 {
		cfg.MaxRequestBytes = 1 << 30
	}
	s := &Server{
		cfg:     cfg,
		tenants: make(map[string]*tenant, len(cfg.Tenants)),
		sem:     make(chan struct{}, cfg.MaxInFlight),
	}
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
	dirs := map[string]string{}
	for _, tc := range cfg.Tenants {
		if _, dup := s.tenants[tc.Name]; dup {
			s.closeTenants()
			return nil, fmt.Errorf("server: duplicate tenant %q", tc.Name)
		}
		if owner, dup := dirs[tc.Dir]; dup {
			s.closeTenants()
			return nil, fmt.Errorf("server: tenants %q and %q share dir %s", owner, tc.Name, tc.Dir)
		}
		t, err := tc.open(cfg.StoreOptions)
		if err != nil {
			s.closeTenants()
			return nil, err
		}
		s.tenants[tc.Name] = t
		dirs[tc.Dir] = tc.Name
		if cfg.ScrubEvery > 0 {
			stop := t.st.StartScrubberCtx(s.hardCtx, cfg.ScrubEvery, store.ScrubOptions{
				Verify: ckpt.StoreVerifier(false, cfg.Workers),
			})
			s.stopScrubs = append(s.stopScrubs, stop)
		}
	}
	return s, nil
}

func (s *Server) closeTenants() {
	for _, t := range s.tenants {
		t.close()
	}
}

func (s *Server) observer() *obs.Registry {
	if s.cfg.Observer != nil {
		return s.cfg.Observer
	}
	return obs.Default()
}

func (s *Server) journal() *journal.Journal {
	if s.cfg.Journal != nil {
		return s.cfg.Journal
	}
	return journal.Default()
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight returns the number of requests currently holding admission
// slots.
func (s *Server) InFlight() int { return len(s.sem) }

// Drain stops admitting work (new requests get 503) and waits for
// in-flight requests to finish. If ctx expires first, the remaining
// requests' contexts are cancelled — they unwind through the store's
// context-aware commit/retry paths, which abort without leaving temp
// litter — and Drain returns ctx's error after they exit.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()

	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.hardCancel() // cut off overstaying requests
		<-done
		return ctx.Err()
	}
}

// Close releases tenant stores and background scrubbers. Callers
// wanting a graceful exit run Drain first; Close alone is the abrupt
// path (in-flight request contexts are cancelled).
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		s.hardCancel()
		for _, stop := range s.stopScrubs {
			stop()
		}
		s.closeTenants()
	})
	return nil
}

// Handler returns the daemon's API surface. Mount it with
// obs.ServeHandler to get /readyz, or next to a Registry handler for
// the full observability surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/{tenant}/save", s.wrap("save", true, s.handleSave))
	mux.HandleFunc("GET /v1/{tenant}/restore", s.wrap("restore", true, s.handleRestore))
	mux.HandleFunc("GET /v1/{tenant}/inspect", s.wrap("inspect", false, s.handleInspect))
	mux.HandleFunc("POST /v1/{tenant}/fsck", s.wrap("fsck", true, s.handleFsck))
	mux.HandleFunc("POST /v1/{tenant}/scrub", s.wrap("scrub", true, s.handleScrub))
	return mux
}

// httpError is a status-carrying error: handlers return it to pick the
// response code; anything else maps to 500 (or 504/499 for context
// errors).
type httpError struct {
	code   int
	reason string // rejection label for MetricRejected ("" = not a rejection)
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func reject(code int, reason string, format string, args ...any) *httpError {
	return &httpError{code: code, reason: reason, err: fmt.Errorf(format, args...)}
}

// wrap is the request envelope every endpoint runs in: authentication,
// drain refusal, admission control (for heavy endpoints), deadline
// propagation, the journal wide event, and error-to-status mapping.
func (s *Server) wrap(opName string, heavy bool, h func(ctx context.Context, t *tenant, w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	o := s.observer()
	return func(w http.ResponseWriter, r *http.Request) {
		code, err := s.serve(opName, heavy, h, w, r)
		o.Counter(MetricRequests, "op", opName, "code", strconv.Itoa(code)).Inc()
		if err != nil && code >= http.StatusInternalServerError {
			s.journal().Note("server.error", "op", opName, "code", code, "err", err.Error())
		}
	}
}

func (s *Server) serve(opName string, heavy bool, h func(ctx context.Context, t *tenant, w http.ResponseWriter, r *http.Request) error, w http.ResponseWriter, r *http.Request) (int, error) {
	o := s.observer()
	name := r.PathValue("tenant")

	op := s.journal().Begin(o, "server."+opName, "tenant", name)
	var opErr error
	outcome := "ok"
	defer func() {
		op.Set("outcome", outcome)
		op.End(opErr)
	}()

	fail := func(he *httpError) (int, error) {
		opErr = he
		outcome = he.reason
		if outcome == "" {
			outcome = "error"
		}
		if he.reason != "" {
			o.Counter(MetricRejected, "reason", he.reason).Inc()
		}
		http.Error(w, he.err.Error(), he.code)
		return he.code, he
	}

	// Authentication first: an unauthenticated caller learns nothing
	// about drain state, load, or whether the tenant exists.
	t := s.tenants[name]
	token := bearerToken(r)
	if t == nil || !t.authorize(token) {
		return fail(reject(http.StatusUnauthorized, "auth", "unauthorized"))
	}

	// Admission: refuse while draining; for heavy endpoints take an
	// admission slot or shed the request with 429 + Retry-After. The
	// read-lock bridges the draining check and the in-flight
	// registration so Drain cannot miss us.
	s.drainMu.RLock()
	if s.draining.Load() {
		s.drainMu.RUnlock()
		return fail(reject(http.StatusServiceUnavailable, "draining", "draining"))
	}
	if heavy {
		select {
		case s.sem <- struct{}{}:
		default:
			s.drainMu.RUnlock()
			w.Header().Set("Retry-After", "1")
			return fail(reject(http.StatusTooManyRequests, "overload", "over capacity: %d requests in flight", cap(s.sem)))
		}
	}
	s.inflight.Add(1)
	s.drainMu.RUnlock()
	defer s.inflight.Done()
	if heavy {
		o.Gauge(MetricInflight).Set(float64(len(s.sem)))
		defer func() {
			<-s.sem
			o.Gauge(MetricInflight).Set(float64(len(s.sem)))
		}()
	}

	// Deadline: the client's X-Deadline-Ms, else the server default;
	// parented on hardCtx so an expired drain cuts us off.
	ctx, cancel, d, herr := s.requestContext(r)
	if herr != nil {
		return fail(herr)
	}
	defer cancel()
	if d > 0 {
		op.Set("deadline_ms", d.Milliseconds())
	}

	if err := h(ctx, t, w, r); err != nil {
		var he *httpError
		switch {
		case errors.As(err, &he):
		case errors.Is(err, context.DeadlineExceeded):
			he = reject(http.StatusGatewayTimeout, "deadline", "deadline exceeded: %v", err)
		case errors.Is(err, context.Canceled):
			// The client went away or the drain hard-stop cut us off.
			// Write the nginx-style 499 anyway: a still-connected caller
			// (drain cut-off) must not read an implicit 200 for work
			// that was aborted.
			he = reject(499, "cancelled", "request cancelled: %v", err)
		default:
			he = &httpError{code: http.StatusInternalServerError, err: err}
		}
		return fail(he)
	}
	return http.StatusOK, nil
}

// requestContext derives the request's context: client deadline header
// or server default, parented so the drain hard-stop cancels it.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, time.Duration, *httpError) {
	d := s.cfg.DefaultTimeout
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, 0, reject(http.StatusBadRequest, "bad_request", "bad X-Deadline-Ms %q", h)
		}
		d = time.Duration(ms) * time.Millisecond
	}
	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if d > 0 {
		ctx, cancel = context.WithTimeout(r.Context(), d)
	} else {
		ctx, cancel = context.WithCancel(r.Context())
	}
	stop := context.AfterFunc(s.hardCtx, cancel)
	return ctx, func() { stop(); cancel() }, d, nil
}

func bearerToken(r *http.Request) string {
	const prefix = "Bearer "
	auth := r.Header.Get("Authorization")
	if len(auth) > len(prefix) && auth[:len(prefix)] == prefix {
		return auth[len(prefix):]
	}
	return ""
}

// SaveResult is the JSON response of a save.
type SaveResult struct {
	Generation uint64 `json:"generation"`
	Step       int    `json:"step"`
	Size       uint64 `json:"size"`
	CRC        uint32 `json:"crc"`
	Codec      string `json:"codec"`
	Fields     int    `json:"fields"`
	ExpireAt   int64  `json:"expire_at,omitempty"`
}

func (s *Server) handleSave(ctx context.Context, t *tenant, w http.ResponseWriter, r *http.Request) error {
	step, err := strconv.Atoi(r.URL.Query().Get("step"))
	if err != nil || step < 0 {
		return reject(http.StatusBadRequest, "bad_request", "save: bad or missing step=%q", r.URL.Query().Get("step"))
	}
	codecName := r.URL.Query().Get("codec")
	if codecName == "" {
		codecName = "none"
	}
	codec, err := ckpt.CodecByName(codecName)
	if err != nil {
		return reject(http.StatusBadRequest, "bad_request", "save: %v", err)
	}
	if t.overQuota() {
		return reject(http.StatusInsufficientStorage, "quota",
			"tenant %q over quota: %d of %d bytes stored", t.cfg.Name, t.usedBytes(), t.cfg.QuotaBytes)
	}

	body := &capReader{r: r.Body, left: s.cfg.MaxRequestBytes}
	fields, err := ReadFields(body)
	if err != nil {
		if body.exceeded {
			return reject(http.StatusRequestEntityTooLarge, "too_large", "save: body over %d bytes", s.cfg.MaxRequestBytes)
		}
		return reject(http.StatusBadRequest, "bad_request", "save: %v", err)
	}
	if len(fields) == 0 {
		return reject(http.StatusBadRequest, "bad_request", "save: empty field stream")
	}

	mgr := ckpt.NewManager(codec, s.cfg.Workers)
	if err := mgr.RegisterAll(fields); err != nil {
		return reject(http.StatusBadRequest, "bad_request", "save: %v", err)
	}
	_, gen, err := mgr.CheckpointToCtx(ctx, t.st, step)
	if err != nil {
		if errors.Is(err, store.ErrSeqConflict) {
			return reject(http.StatusConflict, "conflict", "save: %v", err)
		}
		return err
	}
	s.observer().Counter(MetricTenantBytes, "tenant", t.cfg.Name).Add(float64(gen.Size))
	return writeJSON(w, SaveResult{
		Generation: gen.Seq,
		Step:       step,
		Size:       gen.Size,
		CRC:        gen.CRC,
		Codec:      codecName,
		Fields:     len(fields),
		ExpireAt:   gen.ExpireAt,
	})
}

func (s *Server) handleRestore(ctx context.Context, t *tenant, w http.ResponseWriter, _ *http.Request) error {
	lc, err := ckpt.LoadLatestCtx(ctx, t.st, s.cfg.Workers)
	if err != nil {
		if errors.Is(err, ckpt.ErrStoreEmpty) {
			return reject(http.StatusNotFound, "empty", "restore: %v", err)
		}
		return err
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Generation", strconv.FormatUint(lc.Generation, 10))
	w.Header().Set("X-Step", strconv.Itoa(lc.Step))
	w.Header().Set("X-Codec", lc.Codec)
	if lc.Partial {
		w.Header().Set("X-Partial", strconv.Itoa(lc.SkippedFrames))
	}
	fields := make([]NamedField, len(lc.Fields))
	for i, lf := range lc.Fields {
		fields[i] = NamedField{Name: lf.Name, Field: lf.Field}
	}
	return WriteFields(w, fields)
}

// InspectResult is the JSON response of an inspect. UsedBytes is
// physical occupancy (what the quota meters); for a dedup tenant the
// Dedup block breaks it into recipes and shared chunks.
type InspectResult struct {
	Tenant      string             `json:"tenant"`
	Dir         string             `json:"dir"`
	UsedBytes   int64              `json:"used_bytes"`
	QuotaBytes  int64              `json:"quota_bytes,omitempty"`
	Dedup       *DedupInfo         `json:"dedup,omitempty"`
	Generations []store.Generation `json:"generations"`
}

// DedupInfo is the dedup slice of an inspect response.
type DedupInfo struct {
	Generations  int     `json:"generations"`
	LogicalBytes int64   `json:"logical_bytes"`
	RecipeBytes  int64   `json:"recipe_bytes"`
	Chunks       int     `json:"chunks"`
	ChunkBytes   int64   `json:"chunk_bytes"`
	Ratio        float64 `json:"ratio"`
}

func (s *Server) handleInspect(_ context.Context, t *tenant, w http.ResponseWriter, _ *http.Request) error {
	res := InspectResult{
		Tenant:      t.cfg.Name,
		Dir:         t.cfg.Dir,
		UsedBytes:   t.usedBytes(),
		QuotaBytes:  t.cfg.QuotaBytes,
		Generations: t.st.Generations(),
	}
	if st := t.st.DedupStats(); st.Enabled {
		res.Dedup = &DedupInfo{
			Generations:  st.DedupGens,
			LogicalBytes: st.LogicalBytes,
			RecipeBytes:  st.RecipeBytes,
			Chunks:       st.Chunks,
			ChunkBytes:   st.ChunkBytes,
			Ratio:        st.Ratio(),
		}
	}
	return writeJSON(w, res)
}

// ScrubResult is the JSON response of a fsck or scrub.
type ScrubResult struct {
	Checked     int      `json:"checked"`
	Quarantined []uint64 `json:"quarantined,omitempty"`
	Missing     []uint64 `json:"missing,omitempty"`
	Expired     []uint64 `json:"expired,omitempty"`
	Divergent   int      `json:"divergent,omitempty"`
	Clean       bool     `json:"clean"`
}

func (s *Server) handleFsck(ctx context.Context, t *tenant, w http.ResponseWriter, r *http.Request) error {
	return s.scrub(ctx, t, w, ckpt.StoreVerifier(r.URL.Query().Get("decode") == "true", s.cfg.Workers))
}

func (s *Server) handleScrub(ctx context.Context, t *tenant, w http.ResponseWriter, _ *http.Request) error {
	return s.scrub(ctx, t, w, nil)
}

func (s *Server) scrub(ctx context.Context, t *tenant, w http.ResponseWriter, verify func([]byte) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	rep, err := t.st.Scrub(store.ScrubOptions{Verify: verify})
	if err != nil {
		return err
	}
	res := ScrubResult{
		Checked:   rep.Checked,
		Missing:   rep.Missing,
		Expired:   rep.Expired,
		Divergent: rep.Divergent,
		Clean:     rep.Clean(),
	}
	for _, q := range rep.Quarantined {
		res.Quarantined = append(res.Quarantined, q.Seq)
	}
	return writeJSON(w, res)
}

// capReader bounds a request body, flagging overflow on the reader
// itself: the decoding layers wrap errors opaquely, so the 413 decision
// cannot ride the error chain.
type capReader struct {
	r        io.Reader
	left     int64
	exceeded bool
}

func (c *capReader) Read(p []byte) (int, error) {
	if c.left <= 0 {
		var probe [1]byte
		n, err := c.r.Read(probe[:])
		if n > 0 {
			c.exceeded = true
			return 0, fmt.Errorf("request body too large")
		}
		return 0, err
	}
	if int64(len(p)) > c.left {
		p = p[:c.left]
	}
	n, err := c.r.Read(p)
	c.left -= int64(n)
	return n, err
}

func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(v)
}
