// retry.go is the store's transient-error ladder: four retries with
// exponential backoff and jitter, bound to the context of the operation in
// flight.
// Backend primitives (create/write/sync/rename/...) run through retry;
// a request whose context is cancelled mid-ladder aborts before the
// next attempt instead of sleeping out the full backoff budget — the
// property the daemon's request deadlines depend on.
package store

import (
	"context"
	"fmt"
	"time"

	"lossyckpt/internal/obs"
)

// retryCtx resolves the context governing the operation currently
// holding s.mu (Background outside ctx-aware entry points). retry runs
// either under s.mu (commits, reads, scrubs) or from Open before the
// store is shared, so the unsynchronized read is safe.
func (s *Store) retryCtx() context.Context {
	if s.opCtx != nil {
		return s.opCtx
	}
	return context.Background()
}

// The ladder's shape: at most maxRetries retries per operation, retry k
// (from 0) after a sleep of backoffBase<<k jittered into its upper half:
// [0.5, 1), [1, 2), [2, 4) and [4, 8) ms, under 15 ms in all.
const (
	maxRetries  = 4
	backoffBase = time.Millisecond
)

// retry runs fn, retrying transient errors with exponential backoff;
// permanent errors, exhausted budgets and a cancelled operation context
// return immediately. Each sleep is jittered into [backoff/2, backoff) so
// replicas retrying a shared fault de-synchronize instead of thundering.
func (s *Store) retry(op string, fn func() error) error {
	ctx := s.retryCtx()
	backoff := backoffBase
	var err error
	for attempt := 0; ; attempt++ {
		err = fn()
		if err == nil || !IsTransient(err) || attempt >= maxRetries {
			return err
		}
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("store: %s retry abandoned: %w (last attempt: %v)", op, cerr, err)
		}
		half := backoff / 2
		sleep := half + time.Duration(s.opts.Jitter()*float64(half))
		if o := obs.Default(); o != nil {
			o.Counter(MetricRetries, "op", op).Inc()
			o.Counter(MetricBackoffSeconds).Add(sleep.Seconds())
		}
		if cerr := s.sleepBackoff(ctx, sleep); cerr != nil {
			return fmt.Errorf("store: %s retry abandoned: %w (last attempt: %v)", op, cerr, err)
		}
		backoff *= 2
	}
}

// sleepBackoff waits out one backoff interval, waking early (and
// returning the context error) when ctx is cancelled. An injected
// Options.Sleep is honored as-is so tests keep deterministic clocks;
// cancellation is then still observed at the next attempt boundary.
func (s *Store) sleepBackoff(ctx context.Context, d time.Duration) error {
	if s.opts.Sleep != nil {
		s.opts.Sleep(d)
		return ctx.Err()
	}
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
