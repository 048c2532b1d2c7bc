package store

import (
	"context"
	"fmt"
	"io"
	"time"
)

// Target is the checkpoint-store surface consumers (ckpt, faultsim, the
// CLI) program against: commit, read-back, audit. Both *Store (one
// root) and *ReplicatedStore (N roots with quorum semantics) implement
// it, so a checkpoint pipeline is replication-agnostic — pointing it at
// a replicated target changes durability, not code.
type Target interface {
	// Dir returns the target's root path (the common root for a
	// replicated target).
	Dir() string
	// Rebuilt reports whether opening had to reconstruct any manifest
	// from a directory scan.
	Rebuilt() bool
	// Generations returns the retained generations, oldest first (the
	// newest quorum-agreed view for a replicated target).
	Generations() []Generation
	// Latest returns the newest generation, if any.
	Latest() (Generation, bool)
	// NextSeq returns the next sequence number a commit would use.
	NextSeq() uint64
	// CommitStreamCtx commits the bytes write produces as the next
	// generation without buffering them; cancelling ctx aborts between retry
	// attempts and backoff sleeps, and an error from write aborts the commit.
	CommitStreamCtx(ctx context.Context, step int, write func(io.Writer) error) (Generation, error)
	// ReadGeneration returns generation seq's payload, verified.
	ReadGeneration(seq uint64) ([]byte, error)
	// ReadGenerationRaw returns generation seq's bytes plus whether they
	// verify against the (quorum-agreed) record.
	ReadGenerationRaw(seq uint64) (data []byte, verified bool, err error)
	// PhysicalBytes returns the bytes the target actually occupies for
	// its indexed generations — recipe plus chunk bytes for dedup
	// generations, payload size otherwise, summed over replicas for a
	// replicated target. Quota enforcement meters this, not logical
	// bytes.
	PhysicalBytes() int64
	// DedupStats snapshots the dedup accounting (summed over replicas);
	// Enabled is false for a target opened without Options.Dedup.
	DedupStats() DedupStats
	// Scrub audits every retained generation (and, replicated, heals
	// lagging replicas).
	Scrub(opts ScrubOptions) (*ScrubReport, error)
	// StartScrubber runs Scrub every interval until stop is called.
	StartScrubber(interval time.Duration, opts ScrubOptions) (stop func())
	// StartScrubberCtx is StartScrubber with context cancellation.
	StartScrubberCtx(ctx context.Context, interval time.Duration, opts ScrubOptions) (stop func())
	// Wait returns once no write is still in flight behind a returned
	// commit — a replicated target's stragglers; a single root has none.
	// Call it before the process exits or the roots are torn down.
	Wait()
}

var (
	_ Target = (*Store)(nil)
	_ Target = (*ReplicatedStore)(nil)
)

// Wait implements Target: a single root commits on the caller's goroutine.
func (s *Store) Wait() {}

// OpenTarget opens the store topology under dir: one root for replicas 1
// (the layout of an unreplicated store), otherwise replicas subdirectories
// r0..r{n-1} with write quorum quorum (0 = majority). It is the one place
// the topology's ranges are checked.
func OpenTarget(dir string, replicas, quorum int, opts Options) (Target, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("store: replicas must be >= 1, got %d", replicas)
	}
	if quorum < 0 || quorum > replicas {
		return nil, fmt.Errorf("store: write quorum %d out of range for %d replicas", quorum, replicas)
	}
	// The concrete results are unwrapped so that a failed open returns a nil
	// Target, not an interface holding a nil pointer.
	if replicas == 1 {
		st, err := Open(dir, opts)
		if err != nil {
			return nil, err
		}
		return st, nil
	}
	rs, err := OpenReplicated(dir, ReplicaDirs(dir, replicas), quorum, opts)
	if err != nil {
		return nil, err
	}
	return rs, nil
}
