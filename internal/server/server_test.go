package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"lossyckpt/internal/cas"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/obs"
	"lossyckpt/internal/obs/journal"
	"lossyckpt/internal/store"
)

// makeFields builds a small deterministic field set; base separates
// tenants so cross-tenant leakage is detectable by value.
func makeFields(t *testing.T, base float64) []NamedField {
	t.Helper()
	names := []string{"temperature", "pressure"}
	fields := make([]NamedField, len(names))
	for i, name := range names {
		f, err := grid.New(8, 6)
		if err != nil {
			t.Fatal(err)
		}
		for j := range f.Data() {
			f.Data()[j] = base + float64(i*100+j)
		}
		fields[i] = NamedField{Name: name, Field: f}
	}
	return fields
}

func encodeFields(t *testing.T, fields []NamedField) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFields(&buf, fields); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// twoTenants is the standard test topology: tenants "alpha" and "beta",
// isolated dirs, distinct tokens.
func twoTenants(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Tenants: []TenantConfig{
			{Name: "alpha", Token: "tok-a", Dir: filepath.Join(t.TempDir(), "a"), Keep: 3},
			{Name: "beta", Token: "tok-b", Dir: filepath.Join(t.TempDir(), "b"), Keep: 3},
		},
		Observer: obs.NewRegistry(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func doReq(t *testing.T, method, url, token string, hdr map[string]string, body io.Reader) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func save(t *testing.T, ts *httptest.Server, tenant, token string, step int, fields []NamedField) *http.Response {
	t.Helper()
	url := fmt.Sprintf("%s/v1/%s/save?step=%d", ts.URL, tenant, step)
	return doReq(t, "POST", url, token, nil, bytes.NewReader(encodeFields(t, fields)))
}

func restoreFields(t *testing.T, ts *httptest.Server, tenant, token string) ([]NamedField, *http.Response) {
	t.Helper()
	resp := doReq(t, "GET", ts.URL+"/v1/"+tenant+"/restore", token, nil, nil)
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, resp
	}
	defer resp.Body.Close()
	fields, err := ReadFields(resp.Body)
	if err != nil {
		t.Fatalf("restore stream: %v", err)
	}
	return fields, resp
}

func wantStatus(t *testing.T, resp *http.Response, want int) {
	t.Helper()
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != want {
		t.Fatalf("status = %d, want %d (body: %s)", resp.StatusCode, want, bytes.TrimSpace(body))
	}
}

func TestSaveRestoreRoundTrip(t *testing.T) {
	_, ts := twoTenants(t, nil)
	in := makeFields(t, 1)

	resp := save(t, ts, "alpha", "tok-a", 7, in)
	if resp.StatusCode != http.StatusOK {
		wantStatus(t, resp, http.StatusOK)
	}
	var sr SaveResult
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sr.Generation != 1 || sr.Step != 7 || sr.Fields != 2 || sr.Size == 0 {
		t.Fatalf("save result: %+v", sr)
	}

	out, rresp := restoreFields(t, ts, "alpha", "tok-a")
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("restore = %d", rresp.StatusCode)
	}
	if got := rresp.Header.Get("X-Generation"); got != "1" {
		t.Fatalf("X-Generation = %q", got)
	}
	if got := rresp.Header.Get("X-Step"); got != "7" {
		t.Fatalf("X-Step = %q", got)
	}
	if len(out) != len(in) {
		t.Fatalf("restored %d fields, want %d", len(out), len(in))
	}
	for i, nf := range out {
		if nf.Name != in[i].Name || !nf.Field.Equal(in[i].Field) {
			t.Fatalf("field %d (%s) does not round-trip", i, nf.Name)
		}
	}
}

func TestAuthAndTenantIsolation(t *testing.T) {
	_, ts := twoTenants(t, nil)
	fields := makeFields(t, 1)

	wantStatus(t, save(t, ts, "alpha", "wrong", 1, fields), http.StatusUnauthorized)
	wantStatus(t, save(t, ts, "alpha", "", 1, fields), http.StatusUnauthorized)
	// Tenant B's valid token must not open tenant A's namespace.
	wantStatus(t, save(t, ts, "alpha", "tok-b", 1, fields), http.StatusUnauthorized)
	// Unknown tenants are indistinguishable from bad tokens.
	wantStatus(t, save(t, ts, "nobody", "tok-a", 1, fields), http.StatusUnauthorized)

	// Data written as alpha is invisible to beta: beta's store is empty.
	wantStatus(t, save(t, ts, "alpha", "tok-a", 1, fields), http.StatusOK)
	_, resp := restoreFields(t, ts, "beta", "tok-b")
	wantStatus(t, resp, http.StatusNotFound)
}

// TestBackpressureExactRejections: with K admission slots held by
// stalled uploads, exactly the next M requests shed with 429 and the
// stalled K complete once unblocked.
func TestBackpressureExactRejections(t *testing.T) {
	const K, M = 2, 3
	s, ts := twoTenants(t, func(c *Config) { c.MaxInFlight = K })

	// Occupy every slot with a save whose body stalls mid-stream.
	type held struct {
		pw   *io.PipeWriter
		done chan *http.Response
	}
	blob := encodeFields(t, makeFields(t, 1))
	holds := make([]held, K)
	for i := range holds {
		pr, pw := io.Pipe()
		done := make(chan *http.Response, 1)
		holds[i] = held{pw: pw, done: done}
		go func(step int) {
			url := fmt.Sprintf("%s/v1/alpha/save?step=%d", ts.URL, step)
			req, _ := http.NewRequest("POST", url, pr)
			req.Header.Set("Authorization", "Bearer tok-a")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				done <- nil
				return
			}
			done <- resp
		}(i + 1)
		// Feed the name length only, then stall: the handler is now
		// inside ReadFields holding its admission slot.
		if _, err := pw.Write(blob[:2]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, time.Second, func() bool { return s.InFlight() == K })

	// Every further heavy request while saturated: exactly M rejections.
	rejected := 0
	for i := 0; i < M; i++ {
		resp := save(t, ts, "beta", "tok-b", 10+i, makeFields(t, 2))
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			rejected++
		}
		resp.Body.Close()
	}
	if rejected != M {
		t.Fatalf("rejected %d of %d overload requests, want all", rejected, M)
	}

	// Unblock the held uploads; all K must complete successfully.
	for _, h := range holds {
		if _, err := h.pw.Write(blob[2:]); err != nil {
			t.Fatal(err)
		}
		h.pw.Close()
	}
	for i, h := range holds {
		resp := <-h.done
		if resp == nil {
			t.Fatalf("held save %d failed at transport", i)
		}
		wantStatus(t, resp, http.StatusOK)
	}
}

func TestQuotaRefusesWhenFull(t *testing.T) {
	_, ts := twoTenants(t, func(c *Config) {
		c.Tenants[0].QuotaBytes = 64 // smaller than one checkpoint
	})
	fields := makeFields(t, 1)
	// First save admitted (usage 0 < quota), filling the store past quota.
	wantStatus(t, save(t, ts, "alpha", "tok-a", 1, fields), http.StatusOK)
	wantStatus(t, save(t, ts, "alpha", "tok-a", 2, fields), http.StatusInsufficientStorage)
	// The unquota'd tenant is unaffected.
	wantStatus(t, save(t, ts, "beta", "tok-b", 1, fields), http.StatusOK)
}

// TestDeadlineExpiresMidCommitNoLitter: a tiny client deadline against
// a slow store fails with 504 and leaves no temp litter; the previous
// generation survives.
func TestDeadlineExpiresMidCommitNoLitter(t *testing.T) {
	ffs := store.NewFaultFS(store.OsFS{})
	dirA := filepath.Join(t.TempDir(), "a")
	jpath := filepath.Join(t.TempDir(), "flight.jsonl")
	j, err := journal.Open(jpath, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	s, ts := twoTenants(t, func(c *Config) {
		c.Tenants[0].Dir = dirA
		c.Tenants[0].FS = ffs
		c.Journal = j
	})
	fields := makeFields(t, 1)
	wantStatus(t, save(t, ts, "alpha", "tok-a", 1, fields), http.StatusOK)

	ffs.SetOpDelay(30 * time.Millisecond) // every FS write op now crawls
	resp := doReq(t, "POST", ts.URL+"/v1/alpha/save?step=2", "tok-a",
		map[string]string{"X-Deadline-Ms": "20"},
		bytes.NewReader(encodeFields(t, fields)))
	wantStatus(t, resp, http.StatusGatewayTimeout)
	ffs.SetOpDelay(0)

	// The failed request is one server.save operation that ended in error
	// and one server.error note, in the journal as on the registry.
	if n := s.observer().Counter("lossyckpt_server_save_errors_total").Value(); n != 1 {
		t.Errorf("lossyckpt_server_save_errors_total = %v, want 1", n)
	}
	recs, _, err := journal.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(recs, func(r journal.Record) bool {
		return r.Op == "server.error" && r.Attrs["op"] == "save" && r.Attrs["code"] == "504"
	}) {
		t.Errorf("the journal holds no server.error note for the 504: %+v", recs)
	}

	assertNoTempLitter(t, dirA)
	out, rresp := restoreFields(t, ts, "alpha", "tok-a")
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("restore after failed save = %d", rresp.StatusCode)
	}
	if rresp.Header.Get("X-Generation") != "1" {
		t.Fatalf("surviving generation = %s, want 1", rresp.Header.Get("X-Generation"))
	}
	if !out[0].Field.Equal(fields[0].Field) {
		t.Fatal("surviving generation corrupted")
	}
}

// TestDrainRefusesNewFinishesOld: during a drain new requests get 503
// while the in-flight save runs to completion and Drain returns clean.
func TestDrainRefusesNewFinishesOld(t *testing.T) {
	s, ts := twoTenants(t, nil)
	blob := encodeFields(t, makeFields(t, 1))

	pr, pw := io.Pipe()
	done := make(chan *http.Response, 1)
	go func() {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/alpha/save?step=1", pr)
		req.Header.Set("Authorization", "Bearer tok-a")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- nil
			return
		}
		done <- resp
	}()
	if _, err := pw.Write(blob[:2]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return s.InFlight() == 1 })

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitFor(t, time.Second, func() bool { return s.Draining() })

	// New work refused while draining.
	wantStatus(t, save(t, ts, "beta", "tok-b", 1, makeFields(t, 2)), http.StatusServiceUnavailable)

	// The in-flight save completes and the drain resolves clean.
	if _, err := pw.Write(blob[2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	resp := <-done
	if resp == nil {
		t.Fatal("held save failed at transport")
	}
	wantStatus(t, resp, http.StatusOK)
	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v, want nil", err)
	}
}

// TestDrainDeadlineCutsOffStragglers: when the drain budget expires,
// in-flight request contexts are cancelled — the commit aborts through
// the store's context-aware path with no litter — and Drain reports the
// deadline error.
func TestDrainDeadlineCutsOffStragglers(t *testing.T) {
	ffs := store.NewFaultFS(store.OsFS{})
	dirA := filepath.Join(t.TempDir(), "a")
	release := make(chan struct{})
	s, ts := twoTenants(t, func(c *Config) {
		c.Tenants[0].Dir = dirA
		c.Tenants[0].FS = ffs
		c.DefaultTimeout = -1 // only the drain hard-stop ends the request
		// A transient fault sends the straggler into a retry backoff that
		// lasts until the drain hard-stop has fired: were its context not
		// cancelled by then, the retry would go through and the save succeed.
		c.StoreOptions = store.Options{Sleep: func(time.Duration) { <-release }}
	})
	wantStatus(t, save(t, ts, "alpha", "tok-a", 1, makeFields(t, 1)), http.StatusOK)

	ffs.FailAt(ffs.Ops()+1, store.Fault{Kind: store.ErrorOnce})
	done := make(chan *http.Response, 1)
	go func() {
		resp := save(t, ts, "alpha", "tok-a", 2, makeFields(t, 1))
		done <- resp
	}()
	waitFor(t, time.Second, func() bool { return s.InFlight() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	go func() {
		<-ctx.Done()
		time.Sleep(50 * time.Millisecond) // Drain has seen the deadline and cut the requests off
		close(release)
	}()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
	resp := <-done
	if resp.StatusCode == http.StatusOK {
		t.Fatal("cut-off save reported success")
	}
	resp.Body.Close()
	assertNoTempLitter(t, dirA)
}

func TestInspectFsckScrub(t *testing.T) {
	_, ts := twoTenants(t, nil)
	wantStatus(t, save(t, ts, "alpha", "tok-a", 1, makeFields(t, 1)), http.StatusOK)
	wantStatus(t, save(t, ts, "alpha", "tok-a", 2, makeFields(t, 1)), http.StatusOK)

	resp := doReq(t, "GET", ts.URL+"/v1/alpha/inspect", "tok-a", nil, nil)
	var ir InspectResult
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ir.Tenant != "alpha" || len(ir.Generations) != 2 || ir.UsedBytes <= 0 {
		t.Fatalf("inspect: %+v", ir)
	}

	for _, ep := range []string{"fsck", "scrub"} {
		resp := doReq(t, "POST", ts.URL+"/v1/alpha/"+ep, "tok-a", nil, nil)
		var sr ScrubResult
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatalf("%s: %v", ep, err)
		}
		resp.Body.Close()
		if !sr.Clean || sr.Checked != 2 {
			t.Fatalf("%s: %+v", ep, sr)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := twoTenants(t, func(c *Config) { c.MaxRequestBytes = 256 })
	fields := makeFields(t, 1)

	// Missing step.
	resp := doReq(t, "POST", ts.URL+"/v1/alpha/save", "tok-a", nil,
		bytes.NewReader(encodeFields(t, fields)))
	wantStatus(t, resp, http.StatusBadRequest)

	// Unknown codec.
	resp = doReq(t, "POST", ts.URL+"/v1/alpha/save?step=1&codec=zpaq", "tok-a", nil,
		bytes.NewReader(encodeFields(t, fields)))
	wantStatus(t, resp, http.StatusBadRequest)

	// Body over the byte cap.
	resp = doReq(t, "POST", ts.URL+"/v1/alpha/save?step=1", "tok-a", nil,
		bytes.NewReader(encodeFields(t, fields)))
	wantStatus(t, resp, http.StatusRequestEntityTooLarge)

	// Torn field stream (kept under the byte cap so the 400 is about
	// framing, not size).
	blob := encodeFields(t, fields)
	resp = doReq(t, "POST", ts.URL+"/v1/alpha/save?step=1", "tok-a", nil,
		bytes.NewReader(blob[:100]))
	wantStatus(t, resp, http.StatusBadRequest)

	// Bad deadline header.
	resp = doReq(t, "POST", ts.URL+"/v1/alpha/save?step=1", "tok-a",
		map[string]string{"X-Deadline-Ms": "soon"}, bytes.NewReader(blob))
	wantStatus(t, resp, http.StatusBadRequest)
}

// TestLossyCodecOverDaemon exercises a non-trivial codec end to end:
// the daemon compresses on save and decompresses on restore.
func TestLossyCodecOverDaemon(t *testing.T) {
	_, ts := twoTenants(t, nil)
	fields := makeFields(t, 3)
	url := fmt.Sprintf("%s/v1/alpha/save?step=1&codec=gzip", ts.URL)
	resp := doReq(t, "POST", url, "tok-a", nil, bytes.NewReader(encodeFields(t, fields)))
	wantStatus(t, resp, http.StatusOK)
	out, rresp := restoreFields(t, ts, "alpha", "tok-a")
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("restore = %d", rresp.StatusCode)
	}
	if rresp.Header.Get("X-Codec") != "gzip" {
		t.Fatalf("X-Codec = %q", rresp.Header.Get("X-Codec"))
	}
	for i, nf := range out {
		if !nf.Field.Equal(fields[i].Field) {
			t.Fatalf("field %s does not round-trip through gzip", nf.Name)
		}
	}
}

func assertNoTempLitter(t *testing.T, dir string) {
	t.Helper()
	var litter []string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(d.Name(), ".tmp") {
			litter = append(litter, path)
		}
		return nil
	})
	if len(litter) > 0 {
		t.Fatalf("temp litter left behind: %v", litter)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestDedupTenantQuotaMetersPhysicalBytes: a dedup tenant saving the
// same state repeatedly is charged for recipes + shared chunks, not the
// logical sum of generation sizes — so it stays under a quota that
// refuses the identical workload on a plain tenant after two saves.
func TestDedupTenantQuotaMetersPhysicalBytes(t *testing.T) {
	mk := func() []NamedField {
		f, err := grid.New(32, 32)
		if err != nil {
			t.Fatal(err)
		}
		for j := range f.Data() {
			f.Data()[j] = float64(j % 251)
		}
		return []NamedField{{Name: "state", Field: f}}
	}
	fields := mk()
	quota := int64(2 * len(encodeFields(t, fields)))

	_, ts := twoTenants(t, func(c *Config) {
		c.StoreOptions.DedupChunk = cas.Config{Min: 1 << 10, Avg: 4 << 10, Max: 16 << 10}
		c.Tenants[0].Dedup = true
		c.Tenants[0].Keep = -1
		c.Tenants[0].QuotaBytes = quota
		c.Tenants[1].Keep = -1
		c.Tenants[1].QuotaBytes = quota
	})

	// Five identical saves: logical usage is ~5 payloads, far over
	// quota, but the dedup tenant's physical usage stays ~1 payload.
	for i := 0; i < 5; i++ {
		wantStatus(t, save(t, ts, "alpha", "tok-a", 1, fields), http.StatusOK)
	}
	// The plain tenant hits the same quota on logical == physical bytes.
	wantStatus(t, save(t, ts, "beta", "tok-b", 1, fields), http.StatusOK)
	wantStatus(t, save(t, ts, "beta", "tok-b", 1, fields), http.StatusOK)
	wantStatus(t, save(t, ts, "beta", "tok-b", 1, fields), http.StatusInsufficientStorage)

	// Inspect reports the dedup accounting and physical usage under quota.
	resp := doReq(t, "GET", ts.URL+"/v1/alpha/inspect", "tok-a", nil, nil)
	defer resp.Body.Close()
	var ir InspectResult
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if ir.UsedBytes >= quota {
		t.Fatalf("dedup tenant used %d of %d after 5 identical saves", ir.UsedBytes, quota)
	}
	if ir.Dedup == nil {
		t.Fatal("inspect omitted dedup block for a dedup tenant")
	}
	if ir.Dedup.Generations != 5 || ir.Dedup.Ratio < 3 {
		t.Fatalf("dedup block %+v, want 5 generations and ratio >= 3", *ir.Dedup)
	}

	// The deduped state restores byte-correct.
	got, rresp := restoreFields(t, ts, "alpha", "tok-a")
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("restore: %d", rresp.StatusCode)
	}
	if len(got) != 1 || !got[0].Field.Equal(fields[0].Field) {
		t.Fatal("restored dedup state differs")
	}
}
