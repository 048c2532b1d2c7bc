package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lossyckpt/internal/store"
)

// TestClientRoundTrip drives every Client method against the handlers: what
// one side writes — URL, token, field stream, X-* headers, JSON — the other
// must read.
func TestClientRoundTrip(t *testing.T) {
	_, ts := twoTenants(t, nil)
	c := &Client{BaseURL: ts.URL, Tenant: "alpha", Token: "tok-a", Deadline: 10 * time.Second}
	in := makeFields(t, 1)

	sr, err := c.Save(7, "gzip", in)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Generation != 1 || sr.Step != 7 || sr.Codec != "gzip" || sr.Fields != len(in) {
		t.Fatalf("save result %+v", sr)
	}
	r, err := c.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if r.Generation != 1 || r.Step != 7 || r.Codec != "gzip" || r.Partial || len(r.Fields) != len(in) {
		t.Fatalf("restored %+v", r)
	}
	for i, nf := range r.Fields {
		if nf.Name != in[i].Name || !nf.Field.Equal(in[i].Field) {
			t.Fatalf("field %d (%s) did not survive the round trip", i, nf.Name)
		}
	}
	ir, err := c.Inspect()
	if err != nil || ir.Tenant != "alpha" || len(ir.Generations) != 1 {
		t.Fatalf("inspect %+v, %v", ir, err)
	}
	for name, scrub := range map[string]func() (ScrubResult, error){
		"fsck":        func() (ScrubResult, error) { return c.Fsck(false) },
		"fsck decode": func() (ScrubResult, error) { return c.Fsck(true) },
		"scrub":       c.Scrub,
	} {
		if res, err := scrub(); err != nil || !res.Clean || res.Checked != 1 {
			t.Fatalf("%s: %+v, %v", name, res, err)
		}
	}
}

// TestClientTypedRefusals brings a daemon to each state it refuses in and
// checks that the refusal reaches the caller as a *StatusError with the
// daemon's status. (429 and 409 need a held admission slot and a replica
// ahead of its coordinator; TestClientStatusErrorShape covers their mapping.)
func TestClientTypedRefusals(t *testing.T) {
	fields := makeFields(t, 1)
	save := func(c *Client) error { _, err := c.Save(1, "none", fields); return err }
	slow := store.NewFaultFS(store.OsFS{})
	slow.SetOpDelay(30 * time.Millisecond)
	cases := []struct {
		name    string
		mutate  func(*Config)
		prepare func(t *testing.T, s *Server, c *Client)
		call    func(c *Client) error
		want    int
	}{
		{name: "bad token", want: http.StatusUnauthorized,
			prepare: func(_ *testing.T, _ *Server, c *Client) { c.Token = "tok-b" },
			call:    func(c *Client) error { _, err := c.Inspect(); return err }},
		{name: "unknown tenant", want: http.StatusUnauthorized,
			prepare: func(_ *testing.T, _ *Server, c *Client) { c.Tenant = "gamma" },
			call:    func(c *Client) error { _, err := c.Inspect(); return err }},
		{name: "nothing to restore", want: http.StatusNotFound,
			call: func(c *Client) error { _, err := c.Restore(); return err }},
		{name: "body over the cap", want: http.StatusRequestEntityTooLarge,
			mutate: func(cfg *Config) { cfg.MaxRequestBytes = 256 }, call: save},
		{name: "over quota", want: http.StatusInsufficientStorage,
			mutate: func(cfg *Config) { cfg.Tenants[0].QuotaBytes = 64 },
			prepare: func(t *testing.T, _ *Server, c *Client) {
				if err := save(c); err != nil { // admitted at usage 0, fills the store past its quota
					t.Fatal(err)
				}
			},
			call: save},
		{name: "draining", want: http.StatusServiceUnavailable,
			prepare: func(t *testing.T, s *Server, _ *Client) {
				if err := s.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
			},
			call: save},
		{name: "deadline expired", want: http.StatusGatewayTimeout,
			mutate:  func(cfg *Config) { cfg.Tenants[0].FS = slow },
			prepare: func(_ *testing.T, _ *Server, c *Client) { c.Deadline = 20 * time.Millisecond },
			call:    save},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := twoTenants(t, tc.mutate)
			c := &Client{BaseURL: ts.URL, Tenant: "alpha", Token: "tok-a"}
			if tc.prepare != nil {
				tc.prepare(t, s, c)
			}
			var se *StatusError
			if err := tc.call(c); !errors.As(err, &se) || se.Code != tc.want || se.Message == "" {
				t.Fatalf("got %v, want a StatusError with code %d and the daemon's message", err, tc.want)
			}
		})
	}
}

// TestClientStatusErrorShape pins how every refusal of the daemon's contract
// maps: the status code, the trimmed body as the message (the status line when
// the body is empty), and on the way in the path, the token and the deadline.
func TestClientStatusErrorShape(t *testing.T) {
	for _, code := range []int{401, 404, 409, 413, 429, 503, 504, 507} {
		for _, body := range []string{"refused: because\n", ""} {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method != "POST" || r.URL.Path != "/v1/alpha/save" || r.URL.RawQuery != "step=3&codec=lz4" ||
					r.Header.Get("Authorization") != "Bearer tok-a" || r.Header.Get("X-Deadline-Ms") != "1500" {
					t.Errorf("request %s %s, headers %v", r.Method, r.URL, r.Header)
				}
				io.Copy(io.Discard, r.Body)
				w.WriteHeader(code)
				io.WriteString(w, body)
			}))
			c := &Client{BaseURL: ts.URL, Tenant: "alpha", Token: "tok-a", Deadline: 1500 * time.Millisecond}
			_, err := c.Save(3, "lz4", makeFields(t, 1))
			ts.Close()
			want := "refused: because"
			if body == "" {
				want = fmt.Sprintf("%d %s", code, http.StatusText(code))
			}
			var se *StatusError
			if !errors.As(err, &se) || se.Code != code || se.Message != want {
				t.Fatalf("code %d, body %q: got %v, want message %q", code, body, err, want)
			}
		}
	}
}
