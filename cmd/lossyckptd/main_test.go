package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"lossyckpt/internal/grid"
	"lossyckpt/internal/obs"
	"lossyckpt/internal/obs/journal"
	"lossyckpt/internal/server"
)

// startDaemon runs the daemon in-process on an ephemeral port and
// returns its base URL plus a signal function and exit channel.
func startDaemon(t *testing.T, extra ...string) (base string, sig chan os.Signal, done chan error) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, extra...)
	sig = make(chan os.Signal, 2)
	done = make(chan error, 1)
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { devnull.Close() })
	go func() { done <- run(args, sig, devnull) }()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(addrFile); err == nil {
			return "http://" + strings.TrimSpace(string(data)), sig, done
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited early: %v", err)
		default:
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("daemon never published its address")
	return "", nil, nil
}

func saveOne(t *testing.T, base, tenant, token string, step int, v float64) *http.Response {
	t.Helper()
	f, err := grid.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	f.Fill(v)
	var buf bytes.Buffer
	if err := server.WriteFields(&buf, []server.NamedField{{Name: "temp", Field: f}}); err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s/v1/%s/save?step=%d", base, tenant, step)
	req, _ := http.NewRequest("POST", url, &buf)
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestDaemonSingleTenantLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	base, sig, done := startDaemon(t, "-dir", dir, "-token", "hunter2", "-tenant", "demo")

	// Observability and API share the listener.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", path, resp.StatusCode)
		}
	}

	resp := saveOne(t, base, "demo", "hunter2", 1, 3.5)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("save = %d", resp.StatusCode)
	}
	var sr server.SaveResult
	json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if sr.Generation != 1 {
		t.Fatalf("save result: %+v", sr)
	}

	// SIGTERM drains: readiness flips, the daemon exits cleanly.
	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}

	// Restart over the same dir: state survives.
	base2, sig2, done2 := startDaemon(t, "-dir", dir, "-token", "hunter2", "-tenant", "demo")
	req, _ := http.NewRequest("GET", base2+"/v1/demo/restore", nil)
	req.Header.Set("Authorization", "Bearer hunter2")
	rresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK || rresp.Header.Get("X-Generation") != "1" {
		t.Fatalf("restore after restart: %d gen %s", rresp.StatusCode, rresp.Header.Get("X-Generation"))
	}
	fields, err := server.ReadFields(rresp.Body)
	if err != nil || len(fields) != 1 || fields[0].Field.Data()[0] != 3.5 {
		t.Fatalf("restored state wrong: %v %v", fields, err)
	}
	sig2 <- syscall.SIGTERM
	if err := <-done2; err != nil {
		t.Fatalf("second daemon exit: %v", err)
	}
}

func TestDaemonConfigFile(t *testing.T) {
	root := t.TempDir()
	cfgPath := filepath.Join(root, "daemon.json")
	cfg := fmt.Sprintf(`{
		"max_in_flight": 4,
		"default_timeout": "10s",
		"tenants": [
			{"name": "a", "token": "ta", "dir": %q, "keep": 2, "ttl": "1h"},
			{"name": "b", "token": "tb", "dir": %q}
		]
	}`, filepath.Join(root, "a"), filepath.Join(root, "b"))
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	base, sig, done := startDaemon(t, "-config", cfgPath)

	resp := saveOne(t, base, "a", "ta", 1, 1.0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant a save = %d", resp.StatusCode)
	}
	var sr server.SaveResult
	json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if sr.ExpireAt == 0 {
		t.Fatal("ttl tenant committed without an expiry stamp")
	}
	resp = saveOne(t, base, "b", "tb", 1, 2.0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant b save = %d", resp.StatusCode)
	}
	// Wrong-token cross-access refused.
	resp = saveOne(t, base, "a", "tb", 2, 9.0)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("cross-tenant save = %d, want 401", resp.StatusCode)
	}
	resp.Body.Close()

	sig <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("daemon exit: %v", err)
	}
}

// TestDaemonJournalHoldsRestore: the daemon's restore path (ckpt.LoadLatestCtx),
// the guard and the tuner record on the process defaults, so the daemon has to
// install its journal and registry there. After a save and a restore the
// journal holds the ckpt.restore operation as a child of the server.restore
// request, /metrics shows its series, and the defaults are handed back on exit.
func TestDaemonJournalHoldsRestore(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "flight.jsonl")
	base, sig, done := startDaemon(t, "-dir", filepath.Join(t.TempDir(), "store"),
		"-token", "hunter2", "-tenant", "demo", "-journal", jpath)
	resp := saveOne(t, base, "demo", "hunter2", 1, 3.5)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("save = %d", resp.StatusCode)
	}
	req, _ := http.NewRequest("GET", base+"/v1/demo/restore", nil)
	req.Header.Set("Authorization", "Bearer hunter2")
	var err error
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.ReadFields(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: %d %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	if resp, err = http.Get(base + "/metrics"); err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(metrics, []byte("lossyckpt_ckpt_restore_total 1")) {
		t.Errorf("/metrics lacks lossyckpt_ckpt_restore_total 1:\n%s", metrics)
	}
	sig <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("daemon exit: %v", err)
	}
	if obs.Default() != nil || journal.Default() != nil {
		t.Error("the daemon left its registry or journal installed as process default")
	}

	recs, torn, err := journal.ReadAll(jpath)
	if err != nil || torn {
		t.Fatalf("journal: torn=%v err=%v", torn, err)
	}
	var request, restore *journal.Record
	for i, r := range recs {
		if r.Phase != "end" {
			continue
		}
		switch r.Op {
		case "server.restore":
			request = &recs[i]
		case "ckpt.restore":
			restore = &recs[i]
		}
	}
	if request == nil || restore == nil {
		t.Fatalf("journal lacks an end record: server.restore %v, ckpt.restore %v", request != nil, restore != nil)
	}
	if restore.Parent != request.ID || restore.Err != "" || restore.Attrs["mode"] != "load_latest" {
		t.Fatalf("ckpt.restore %+v is not the child of server.restore %s", *restore, request.ID)
	}
}

func TestDaemonFlagValidation(t *testing.T) {
	null, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	defer null.Close()
	if err := run([]string{"-addr", "127.0.0.1:0"}, nil, null); err == nil {
		t.Fatal("run without -dir or -config succeeded")
	}
	if err := run([]string{"-addr", "127.0.0.1:0", "-dir", t.TempDir()}, nil, null); err == nil {
		t.Fatal("run without -token succeeded")
	}
}
