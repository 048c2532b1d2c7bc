// tenant.go is the multi-tenant boundary of the checkpoint daemon: each
// tenant owns one store topology (a single root or an N-way replica
// set), one bearer token, and one resource envelope (retention ring,
// TTL, byte quota). Tenants never share a store object, so isolation is
// structural — there is no code path from one tenant's handler to
// another tenant's bytes.
package server

import (
	"crypto/subtle"
	"fmt"
	"time"

	"lossyckpt/internal/store"
)

// TenantConfig describes one tenant's namespace.
type TenantConfig struct {
	// Name is the tenant identifier used in request paths
	// (/v1/{tenant}/...). Required, unique.
	Name string `json:"name"`
	// Token is the bearer token requests must present. Required — the
	// daemon refuses to serve an unauthenticated namespace.
	Token string `json:"token"`
	// Dir is the tenant's store root. Required, unique.
	Dir string `json:"dir"`
	// Keep is the retention ring size (0 = store default of 3,
	// negative = keep everything).
	Keep int `json:"keep,omitempty"`
	// TTL, when positive, stamps every generation with an expiry; the
	// daemon's scrubber prunes expired generations (never the newest).
	TTL time.Duration `json:"ttl,omitempty"`
	// QuotaBytes caps the tenant's stored bytes (sum of retained
	// generation sizes). 0 means unlimited. A save is admitted only
	// while usage is under quota.
	QuotaBytes int64 `json:"quota_bytes,omitempty"`
	// Dedup switches the tenant's store to content-addressed chunk
	// storage: repeated slabs across generations are stored once and
	// committed generations become recipes of chunk references. The
	// quota then naturally meters physical bytes (recipes + shared
	// chunks), not the logical sum of generation sizes.
	Dedup bool `json:"dedup,omitempty"`
	// Replicas spreads the store over N replica subdirectories with
	// quorum commit (0 or 1 = single root).
	Replicas int `json:"replicas,omitempty"`
	// Quorum is the write quorum for Replicas > 1 (0 = majority).
	Quorum int `json:"quorum,omitempty"`
	// Backend names the storage backend ("posix" default, "object").
	Backend string `json:"backend,omitempty"`
	// FS overrides the tenant store's filesystem (tests inject a
	// FaultFS here; nil = the OS filesystem).
	FS store.FS `json:"-"`
}

// tenant is the runtime for one namespace: the opened store plus the
// static config.
type tenant struct {
	cfg TenantConfig
	st  store.Target
}

// open validates cfg and opens the tenant's store topology, recovering
// whatever state the directory holds (rescan and sweep run inside
// store.Open — this is the daemon's crash-safe startup path).
func (tc TenantConfig) open(base store.Options) (*tenant, error) {
	if tc.Name == "" {
		return nil, fmt.Errorf("server: tenant with empty name")
	}
	if tc.Token == "" {
		return nil, fmt.Errorf("server: tenant %q has no token", tc.Name)
	}
	if tc.Dir == "" {
		return nil, fmt.Errorf("server: tenant %q has no store dir", tc.Name)
	}
	opts := base
	opts.Keep = tc.Keep
	opts.TTL = tc.TTL
	opts.Dedup = tc.Dedup
	if tc.FS != nil {
		opts.FS = tc.FS
	}
	if tc.Backend != "" {
		bk, err := store.ParseBackend(tc.Backend)
		if err != nil {
			return nil, fmt.Errorf("server: tenant %q: %w", tc.Name, err)
		}
		opts.Backend = bk
	}
	n := tc.Replicas
	if n == 0 {
		n = 1 // the key left out of the config
	}
	st, err := store.OpenTarget(tc.Dir, n, tc.Quorum, opts)
	if err != nil {
		return nil, fmt.Errorf("server: tenant %q: %w", tc.Name, err)
	}
	return &tenant{cfg: tc, st: st}, nil
}

// authorize checks a presented bearer token in constant time.
func (t *tenant) authorize(token string) bool {
	return subtle.ConstantTimeCompare([]byte(token), []byte(t.cfg.Token)) == 1
}

// usedBytes is the quantity the byte quota is enforced against: the
// store's physical occupancy. For a plain store that is the sum of the
// retained generations' sizes; for a dedup store it is recipes plus
// the shared chunk population, so a tenant is never charged for
// logical bytes dedup did not store. Recomputed per request from the
// store's own index so restarts, scrub pruning and retention all stay
// automatically accounted.
func (t *tenant) usedBytes() int64 {
	return t.st.PhysicalBytes()
}

// overQuota reports whether a new save must be refused.
func (t *tenant) overQuota() bool {
	return t.cfg.QuotaBytes > 0 && t.usedBytes() >= t.cfg.QuotaBytes
}

// close releases the tenant's store, draining replication stragglers
// first so a graceful daemon shutdown leaves replicas converged.
func (t *tenant) close() { t.st.Wait() }
