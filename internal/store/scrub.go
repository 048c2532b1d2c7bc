// scrub.go audits generations already on disk. Commit-time durability
// (temp+fsync+rename, or pointer swap on the object backend) protects
// against crashes, not against media decay after the commit: a bit that
// rots in a retained generation is invisible until restore needs exactly
// that generation. Scrub re-reads every retained generation, re-verifies
// its size and CRC against the manifest (plus an optional content-level
// verifier, e.g. ckpt.StoreVerifier), and moves anything corrupt into
// quarantine — never deleting, so a human or a forensic tool can still
// salvage frames from it. When the newest generation is the casualty the
// manifest is rebuilt from the surviving files, keeping NextSeq monotonic
// so quarantined sequence numbers are never reissued.
package store

import (
	"context"
	"fmt"
	"hash/crc32"
	"sync"
	"time"
)

// QuarantineDir is the subdirectory (under the store root) that the
// posix backend moves corrupt generation files into.
const QuarantineDir = "quarantine"

// ScrubOptions configures one scrub pass.
type ScrubOptions struct {
	// Verify, when non-nil, content-checks each generation payload after
	// the size/CRC check passes (e.g. ckpt.StoreVerifier re-parses stream
	// framing and guard envelopes, optionally with a full decode). A
	// returned error quarantines the generation with reason "verify".
	Verify func(data []byte) error
}

// Quarantined records one generation a scrub removed from the index.
type Quarantined struct {
	Seq uint64
	// Reason is why: "size", "crc" (manifest mismatch), "verify"
	// (ScrubOptions.Verify rejected the content), "recipe" / "chunk"
	// (dedup generation whose recipe fails to decode or references a
	// missing/corrupt chunk), or "divergent" (replicated scrub: record
	// disagrees with the quorum).
	Reason string
	// Path is where the file now lives, relative to the store root.
	Path string
}

// ReplicaScrub is one replica's slice of a replicated scrub pass.
type ReplicaScrub struct {
	// Replica is the replica index (position in the ReplicatedStore).
	Replica int
	// Report is the replica's local scrub result; nil when the replica
	// could not be scrubbed at all.
	Report *ScrubReport
	// Err is the replica-local infrastructure failure, if any.
	Err error
	// Repaired lists generations read-repair re-materialized onto this
	// replica during the convergence phase.
	Repaired []uint64
	// Dropped lists obsolete generations removed from this replica
	// because the quorum has pruned past them.
	Dropped []uint64
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	// Checked counts generations examined.
	Checked int
	// Quarantined lists generations moved to quarantine.
	Quarantined []Quarantined
	// Missing lists indexed generations whose file has vanished: nothing
	// to quarantine, they are just dropped from the index.
	Missing []uint64
	// Expired lists generations TTL retention pruned this pass. Unlike
	// quarantine this destroys the payload — expiry is policy, not
	// corruption — and the newest verified generation is never pruned,
	// so a store cannot scrub itself down to zero restorable state.
	Expired []uint64
	// ManifestRebuilt is true when the newest generation was dropped and
	// the manifest was rebuilt from the surviving files.
	ManifestRebuilt bool
	// GC, on a store with dedup state, reports the mark-and-sweep pass
	// over the chunk store that runs after the generation audit; nil
	// when the store holds no chunks and dedup is off.
	GC *GCReport
	// Replicas, on a replicated scrub, holds each replica's local pass
	// plus what the convergence phase did to it; nil on a plain Store.
	Replicas []ReplicaScrub
	// Divergent counts generations that still differ across replicas
	// after repair — the residual the divergence gauge reports.
	Divergent int
}

// Clean reports whether the pass found nothing wrong.
func (r *ScrubReport) Clean() bool {
	if len(r.Quarantined) != 0 || len(r.Missing) != 0 || r.Divergent != 0 {
		return false
	}
	for _, rs := range r.Replicas {
		if rs.Err != nil || len(rs.Repaired) != 0 || len(rs.Dropped) != 0 {
			return false
		}
		if rs.Report != nil && !rs.Report.Clean() {
			return false
		}
	}
	return true
}

// Scrub audits every retained generation and quarantines corrupt ones.
// It holds the store lock for the whole pass (including Verify calls),
// so commits block behind it; size the scrub interval accordingly. The
// error covers infrastructure failures (unreadable directory, a move
// into quarantine failing) — corrupt generations are not errors, they
// are the report.
func (s *Store) Scrub(opts ScrubOptions) (rep *ScrubReport, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	rep = &ScrubReport{}
	o := s.observer()
	jop := s.begin("store.scrub", "dir", s.dir, "mode", "local")
	defer func() {
		jop.Set("checked", rep.Checked, "quarantined", len(rep.Quarantined), "missing", len(rep.Missing),
			"expired", len(rep.Expired), "rebuilt", rep.ManifestRebuilt)
		jop.End(err)
	}()

	gens := s.generationsLocked()
	var survivors []Generation
	dropped := false
	for _, g := range gens {
		rep.Checked++
		data, reason, missing := s.scrubResolveLocked(g)
		if missing {
			// File vanished (or is unreadable): there is nothing on disk
			// to preserve, so just drop it from the index. Any chunk
			// references it held are released by the GC pass below.
			rep.Missing = append(rep.Missing, g.Seq)
			s.detachRecipeLocked(g.Seq)
			dropped = true
			s.note("store.scrub_missing", "seq", g.Seq)
			continue
		}
		if reason == "" {
			switch {
			case uint64(len(data)) != g.Size:
				reason = "size"
			case crc32.ChecksumIEEE(data) != g.CRC:
				reason = "crc"
			case opts.Verify != nil:
				if verr := opts.Verify(data); verr != nil {
					reason = "verify"
					s.note("store.scrub_verify_failed", "seq", g.Seq, "err", verr.Error())
				}
			}
		}
		if reason == "" {
			survivors = append(survivors, g)
			continue
		}
		qpath, err := s.b.Quarantine(g.Seq)
		if err != nil {
			return rep, fmt.Errorf("store: quarantining gen %d: %w", g.Seq, err)
		}
		// Quarantine parks the recipe; its chunks stay referenced until a
		// GC pass recomputes marks (the quarantined copy keeps them).
		s.detachRecipeLocked(g.Seq)
		dropped = true
		rep.Quarantined = append(rep.Quarantined, Quarantined{Seq: g.Seq, Reason: reason, Path: qpath})
		o.Counter(MetricScrubQuarantined, "reason", reason).Inc()
		s.note("store.scrub_quarantined", "seq", g.Seq, "reason", reason, "path", qpath)
	}

	// TTL retention: prune expired survivors, destroying the payload (it
	// is obsolete by policy, not corrupt). The stamp on the record is
	// authoritative, so expiry is honored even if the store was reopened
	// without Options.TTL. The newest verified generation always
	// survives, and the skew tolerance keeps replicas with disagreeing
	// clocks from prune/repair ping-pong.
	if n := len(survivors); n > 0 {
		nowU := s.opts.now().Unix()
		kept := survivors[:0]
		for i, g := range survivors {
			if i < n-1 && g.Expired(nowU) {
				rep.Expired = append(rep.Expired, g.Seq)
				dropped = true
				s.releaseGenLocked(g)
				o.Counter(MetricExpiredGens).Inc()
				s.note("store.scrub_expired", "seq", g.Seq, "expire_at", g.ExpireAt)
				continue
			}
			kept = append(kept, g)
		}
		survivors = kept
	}

	if dropped {
		newestDropped := len(gens) > 0 && (len(survivors) == 0 || survivors[len(survivors)-1].Seq != gens[len(gens)-1].Seq)
		if newestDropped {
			// The generation a restore would reach for first is gone:
			// rebuild the index from the files themselves, holding
			// NextSeq so quarantined sequence numbers are never reused.
			if err := s.rescan(s.man.NextSeq); err != nil {
				return rep, fmt.Errorf("store: manifest rebuild after scrub: %w", err)
			}
			rep.ManifestRebuilt = true
			o.Counter(MetricManifestRebuilds).Inc()
			s.note("store.scrub_rebuild", "dir", s.dir, "survivors", len(s.man.Gens))
		} else if err := s.adoptLocked(manifest{NextSeq: s.man.NextSeq, Gens: survivors}); err != nil {
			return rep, fmt.Errorf("store: persisting scrubbed manifest: %w", err)
		}
	}

	// Mark-and-sweep the chunk store after the generation audit: the
	// audit above may have quarantined or expired dedup generations, and
	// GC is the crash backstop that collects orphan chunks and rebuilds
	// the refcount ledger from durable truth.
	if s.dedupActiveLocked() {
		gcRep, gcErr := s.gcLocked()
		rep.GC = gcRep
		if gcErr != nil {
			s.note("store.gc_error", "dir", s.dir, "err", gcErr.Error())
		}
	}

	o.Counter(MetricScrubRuns).Inc()
	o.Counter(MetricScrubChecked).Add(float64(rep.Checked))
	return rep, nil
}

// Quarantine moves one generation's payload out of the visible namespace
// without destroying it and drops its manifest record — the exported
// surface the replicated scrubber uses to park divergent copies.
func (s *Store) Quarantine(seq uint64) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, _, ok := s.man.without(seq)
	if !ok {
		return "", fmt.Errorf("%w: generation %d", ErrNoGeneration, seq)
	}
	qpath, err := s.b.Quarantine(seq)
	if err != nil {
		return "", fmt.Errorf("store: quarantining gen %d: %w", seq, err)
	}
	// A dedup recipe keeps its chunk references alive from quarantine;
	// only the per-seq bookkeeping is dropped (see detachRecipeLocked).
	s.detachRecipeLocked(seq)
	// NextSeq is already past the quarantined number, so dropping the
	// record cannot reissue it.
	if err := s.adoptLocked(m); err != nil {
		return qpath, fmt.Errorf("store: quarantine gen %d: manifest: %w", seq, err)
	}
	return qpath, nil
}

// StartScrubber runs Scrub every interval until the returned stop
// function is called. Scrub failures are recorded through the store's
// observer and do not stop the loop. stop is idempotent and waits for an
// in-flight pass to finish.
func (s *Store) StartScrubber(interval time.Duration, opts ScrubOptions) (stop func()) {
	return s.StartScrubberCtx(context.Background(), interval, opts)
}

// StartScrubberCtx is StartScrubber for daemon-style callers: the loop
// also exits when ctx is cancelled, draining an in-flight pass first.
// The returned stop remains usable (idempotent, waits for drain) and is
// equivalent to cancelling ctx.
func (s *Store) StartScrubberCtx(ctx context.Context, interval time.Duration, opts ScrubOptions) (stop func()) {
	return startScrubLoop(ctx, interval, func() {
		if _, err := s.Scrub(opts); err != nil {
			s.note("store.scrub_error", "dir", s.dir, "err", err.Error())
		}
	})
}

// startScrubLoop is the shared scrubber engine: tick until stopped or
// ctx cancelled, never overlapping passes, drain the in-flight pass
// before stop/cancel returns control.
func startScrubLoop(ctx context.Context, interval time.Duration, pass func()) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				// A tick and a cancellation can be ready together; never
				// start a fresh pass after cancellation.
				select {
				case <-done:
					return
				case <-ctx.Done():
					return
				default:
				}
				pass()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		wg.Wait()
	}
}
