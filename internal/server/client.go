// client.go is the calling side of the protocol the handlers in server.go
// define — the URL scheme, the bearer token, X-Deadline-Ms, the restore
// response's X-* headers, the field-stream bodies and the typed refusals —
// kept beside them so that the lossyckpt CLI and the experiment harness
// speak it through one implementation. (bench/daemon.go still spells the
// requests by hand: a PR may not edit bench/, so moving it onto Client is
// left to the next [benchmark] PR.)
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client talks to one tenant of a running daemon.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:8777".
	BaseURL string
	// Tenant and Token name the namespace and authenticate against it.
	Tenant, Token string
	// Deadline, when positive, is the request deadline the daemon
	// enforces (X-Deadline-Ms); 0 leaves the daemon's default in force.
	Deadline time.Duration
}

// StatusError is a request the daemon answered with anything but 200: its
// refusals (401 unknown tenant or bad token, 404 nothing restorable, 409
// step conflict, 413 body over the cap, 429 over capacity, 503 draining,
// 504 deadline expired, 507 over quota) and its failures (400, 500).
type StatusError struct {
	Code    int
	Message string // the response body, or the status line when it is empty
}

func (e *StatusError) Error() string { return fmt.Sprintf("%s (HTTP %d)", e.Message, e.Code) }

// do sends one request and returns the response if it is a 200; the caller
// closes its body. Any other status comes back as a *StatusError.
func (c *Client) do(method, op, query string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, fmt.Sprintf("%s/v1/%s/%s%s", c.BaseURL, c.Tenant, op, query), body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+c.Token)
	hc := http.DefaultClient
	if c.Deadline > 0 {
		req.Header.Set("X-Deadline-Ms", strconv.FormatInt(c.Deadline.Milliseconds(), 10))
		// Give the transport a little slack past the server deadline so
		// the typed 504 arrives instead of a client-side timeout.
		hc = &http.Client{Timeout: c.Deadline + 5*time.Second}
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10)) // best effort: the status is the error
		se := &StatusError{Code: resp.StatusCode, Message: strings.TrimSpace(string(msg))}
		if se.Message == "" {
			se.Message = resp.Status
		}
		return nil, se
	}
	return resp, nil
}

// doJSON is do for the endpoints that answer with a JSON document.
func (c *Client) doJSON(method, op, query string, body io.Reader, out any) error {
	resp, err := c.do(method, op, query, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// Save commits fields as the tenant's next generation under the named
// checkpoint codec ("" = none).
func (c *Client) Save(step int, codec string, fields []NamedField) (SaveResult, error) {
	var buf bytes.Buffer
	if err := WriteFields(&buf, fields); err != nil {
		return SaveResult{}, err
	}
	query := fmt.Sprintf("?step=%d&codec=%s", step, url.QueryEscape(codec))
	var sr SaveResult
	err := c.doJSON("POST", "save", query, &buf, &sr)
	return sr, err
}

// Restored is a restore response: the newest restorable generation's
// arrays and where they came from.
type Restored struct {
	Fields     []NamedField
	Generation uint64
	Step       int
	Codec      string
	// Partial reports a lenient recovery, which skipped SkippedFrames
	// damaged frames and returns the arrays it could still verify.
	Partial       bool
	SkippedFrames int
}

// Restore fetches the tenant's newest restorable generation.
func (c *Client) Restore() (Restored, error) {
	resp, err := c.do("GET", "restore", "", nil)
	if err != nil {
		return Restored{}, err
	}
	defer resp.Body.Close()
	r := Restored{Codec: resp.Header.Get("X-Codec")}
	if r.Generation, err = strconv.ParseUint(resp.Header.Get("X-Generation"), 10, 64); err != nil {
		return Restored{}, fmt.Errorf("restore: bad X-Generation: %w", err)
	}
	if r.Step, err = strconv.Atoi(resp.Header.Get("X-Step")); err != nil {
		return Restored{}, fmt.Errorf("restore: bad X-Step: %w", err)
	}
	if p := resp.Header.Get("X-Partial"); p != "" {
		r.Partial = true
		if r.SkippedFrames, err = strconv.Atoi(p); err != nil {
			return Restored{}, fmt.Errorf("restore: bad X-Partial: %w", err)
		}
	}
	r.Fields, err = ReadFields(resp.Body)
	return r, err
}

// Inspect returns the tenant's generation index and occupancy.
func (c *Client) Inspect() (InspectResult, error) {
	var ir InspectResult
	err := c.doJSON("GET", "inspect", "", nil, &ir)
	return ir, err
}

// Fsck runs a verified scrub; decode makes the daemon fully decode every
// entry instead of checking frame CRCs only.
func (c *Client) Fsck(decode bool) (ScrubResult, error) {
	query := ""
	if decode {
		query = "?decode=true"
	}
	var sr ScrubResult
	err := c.doJSON("POST", "fsck", query, nil, &sr)
	return sr, err
}

// Scrub runs the fast scrub (sizes, checksums, expiry; no payload decode).
func (c *Client) Scrub() (ScrubResult, error) {
	var sr ScrubResult
	err := c.doJSON("POST", "scrub", "", nil, &sr)
	return sr, err
}
