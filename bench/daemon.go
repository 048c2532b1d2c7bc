package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"lossyckpt/internal/grid"
	"lossyckpt/internal/server"
	"lossyckpt/internal/store"
)

const daemonToken = "bench-token"

// daemonTenants is the tenant topology of the daemon workload: one tenant
// per client, three replicas, quorum two. Its JSON form is the tenants list
// of the daemon's -config file; the handler probe opens it in process with
// fsys under the stores.
func daemonTenants(dir string, keep int, fsys store.FS) []server.TenantConfig {
	ts := make([]server.TenantConfig, daemonClients)
	for c := range ts {
		name := fmt.Sprintf("c%d", c)
		ts[c] = server.TenantConfig{
			Name: name, Token: daemonToken, Dir: filepath.Join(dir, name),
			Keep: keep, Replicas: 3, Quorum: 2, FS: fsys,
		}
	}
	return ts
}

const daemonMaxInFlight = 4

// daemonSession runs the lossyckptd binary on a loopback port and talks to
// it as its clients would: one tenant per client, codec lz4.
type daemonSession struct {
	w    *workload
	in   *inputs
	cmd  *exec.Cmd
	base string
	http *http.Client
	cl   []*daemonClient
	rss  float64
	// refused counts responses other than 200: 429, 503, 507 and errors.
	refused atomic.Int64
}

type daemonClient struct {
	tenant     string
	live, back []*grid.Field
	step       int
	saved      server.SaveResult
	gotGen     string
	gotStep    string
	body       bytes.Buffer
}

func openDaemon(w *workload, in *inputs, dir, bin string) (*daemonSession, error) {
	cfg, err := json.Marshal(map[string]any{
		"max_in_flight": daemonMaxInFlight,
		"tenants":       daemonTenants(dir, w.storeOpts.Keep, nil),
	})
	if err != nil {
		return nil, err
	}
	cfgPath, addrPath := filepath.Join(dir, "daemon.json"), filepath.Join(dir, "addr")
	if err := os.WriteFile(cfgPath, cfg, 0o644); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-config", cfgPath, "-addr", "127.0.0.1:0", "-addr-file", addrPath)
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &daemonSession{w: w, in: in, cmd: cmd, http: &http.Client{Timeout: 60 * time.Second}}
	for wait := time.Now().Add(10 * time.Second); ; {
		if addr, err := os.ReadFile(addrPath); err == nil {
			s.base = "http://" + strings.TrimSpace(string(addr))
			break
		}
		if time.Now().After(wait) {
			s.abandon()
			return nil, fmt.Errorf("daemon did not write %s within 10s", addrPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for c := 0; c < daemonClients; c++ {
		s.cl = append(s.cl, &daemonClient{tenant: fmt.Sprintf("c%d", c), live: in.newFields(true), back: in.newFields(false)})
	}
	return s, nil
}

func (s *daemonSession) clients() int { return len(s.cl) }

// load offsets each client by half the snapshot ring so that the two never
// ship the same state at the same time.
func (s *daemonSession) load(c, n int) {
	s.in.load(n+c*climateSnapshots/len(s.cl), s.cl[c].live)
}

// call makes one authenticated request and hands a 200 response to read.
// Every refusal (429, 503, 507, ...) is an error.
func (s *daemonSession) call(method, tenant, endpoint string, body io.Reader, read func(*http.Response) error) error {
	req, err := http.NewRequest(method, s.base+"/v1/"+tenant+"/"+endpoint, body)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+daemonToken)
	resp, err := s.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.refused.Add(1)
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s %s: %s: %s", method, endpoint, resp.Status, bytes.TrimSpace(msg))
	}
	return read(resp)
}

func named(names []string, fields []*grid.Field) []server.NamedField {
	nf := make([]server.NamedField, len(names))
	for i, name := range names {
		nf[i] = server.NamedField{Name: name, Field: fields[i]}
	}
	return nf
}

func (s *daemonSession) save(c int) error {
	cl := s.cl[c]
	cl.step++
	cl.body.Reset()
	if err := server.WriteFields(&cl.body, named(s.in.names, cl.live)); err != nil {
		return err
	}
	return s.call("POST", cl.tenant, "save?codec=lz4&step="+strconv.Itoa(cl.step), &cl.body, func(r *http.Response) error {
		return json.NewDecoder(r.Body).Decode(&cl.saved)
	})
}

func (s *daemonSession) restore(c int) error {
	cl := s.cl[c]
	return s.call("GET", cl.tenant, "restore", nil, func(r *http.Response) error {
		cl.gotGen, cl.gotStep = r.Header.Get("X-Generation"), r.Header.Get("X-Step")
		if r.Header.Get("X-Partial") != "" {
			return fmt.Errorf("partial restore, %s frames skipped", r.Header.Get("X-Partial"))
		}
		fields, err := server.ReadFields(r.Body)
		if err != nil {
			return err
		}
		if len(fields) != len(s.in.names) {
			return fmt.Errorf("restored %d fields, saved %d", len(fields), len(s.in.names))
		}
		for i, nf := range fields {
			if nf.Name != s.in.names[i] || !nf.Field.SameShape(cl.back[i]) {
				return fmt.Errorf("restored field %d is %q %v", i, nf.Name, nf.Field.Shape())
			}
			copy(cl.back[i].Data(), nf.Field.Data())
		}
		return nil
	})
}

func (s *daemonSession) check(c int) (quality, error) {
	cl := s.cl[c]
	q := quality{psnrMin: psnrExact}
	if cl.gotGen != strconv.FormatUint(cl.saved.Generation, 10) || cl.gotStep != strconv.Itoa(cl.step) {
		return q, fmt.Errorf("restored generation %s step %s, saved generation %d step %d",
			cl.gotGen, cl.gotStep, cl.saved.Generation, cl.step)
	}
	for i, name := range s.in.names {
		fq, err := s.w.checkField(name, cl.live[i], cl.back[i], nil)
		if err != nil {
			return q, err
		}
		q.merge(fq)
	}
	return q, nil
}

func (s *daemonSession) stored(c int) (float64, error) {
	var res server.InspectResult
	err := s.call("GET", s.cl[c].tenant, "inspect", nil, func(r *http.Response) error {
		return json.NewDecoder(r.Body).Decode(&res)
	})
	if err != nil || len(res.Generations) == 0 {
		return 0, fmt.Errorf("inspect: %d generations, %v", len(res.Generations), err)
	}
	return float64(res.UsedBytes) / float64(len(res.Generations)*s.in.logical), nil
}

// finish has the daemon decode-check every retained generation of every
// tenant, then drains it with SIGTERM and expects exit code 0. A quorum of
// two returns before the third replica has committed, so the first pass may
// find that replica behind and heal it, which it reports as not clean with
// nothing quarantined, missing or divergent; the pass after it must be clean.
func (s *daemonSession) finish() error {
	var firstErr error
	for _, cl := range s.cl {
		var res server.ScrubResult
		var err error
		for pass := 0; pass < 2 && err == nil && !res.Clean; pass++ {
			err = s.call("POST", cl.tenant, "fsck?decode=true", nil, func(r *http.Response) error {
				return json.NewDecoder(r.Body).Decode(&res)
			})
			if err == nil && len(res.Quarantined)+len(res.Missing)+res.Divergent > 0 {
				break
			}
		}
		if err == nil && !res.Clean {
			err = fmt.Errorf("fsck %s: quarantined %v missing %v divergent %d", cl.tenant, res.Quarantined, res.Missing, res.Divergent)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := s.stop(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("drain: %w", err)
	}
	return firstErr
}

func (s *daemonSession) abandon() { _ = s.stop() }

// stop reads the daemon's peak resident set, asks it to drain and waits for
// it to exit.
func (s *daemonSession) stop() error {
	if s.cmd == nil {
		return nil
	}
	s.rss = procPeakRSSMB(s.cmd.Process.Pid)
	s.http.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		_ = s.cmd.Process.Kill()
	}
	err := s.cmd.Wait()
	s.cmd = nil
	return err
}

func (s *daemonSession) peakRSSMB() float64 { return s.rss }
