package store

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCommitCtxAlreadyCancelled is the satellite regression: a request
// whose context is already cancelled must not start a commit at all.
func TestCommitCtxAlreadyCancelled(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Sleep: noSleep})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.CommitCtx(ctx, 1, payload(1, 64)); !errors.Is(err, context.Canceled) {
		t.Fatalf("CommitCtx on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := s.CommitStreamCtx(ctx, 1, func(io.Writer) error { return nil }); err == nil {
		t.Fatal("CommitStreamCtx on cancelled ctx succeeded")
	}
	if gens := s.Generations(); len(gens) != 0 {
		t.Fatalf("cancelled commit left %d generations", len(gens))
	}
}

// TestRetryAbortsBetweenAttempts cancels the context from inside the
// first backoff sleep: the ladder must stop instead of burning through
// the remaining retry budget.
func TestRetryAbortsBetweenAttempts(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	attempts := 0
	s, oerr := Open(dir, Options{Sleep: func(time.Duration) { cancel() }})
	if oerr != nil {
		t.Fatal(oerr)
	}

	s.mu.Lock()
	s.opCtx = ctx
	err := s.retry("op", func() error {
		attempts++
		return transientErr{errors.New("flaky")}
	})
	s.opCtx = nil
	s.mu.Unlock()

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("retry under cancelled ctx = %v, want context.Canceled", err)
	}
	if attempts != 1 {
		t.Fatalf("retry kept going after cancellation: %d attempts", attempts)
	}
	if !strings.Contains(err.Error(), "flaky") {
		t.Fatalf("cancellation error should carry the last attempt error: %v", err)
	}
}

// TestRetryDeadlineWakesDefaultSleep exercises the context-aware
// default sleep (no injected Options.Sleep): a deadline expiring during
// a backoff must wake it early, and one that does not lets it run out.
func TestRetryDeadlineWakesDefaultSleep(t *testing.T) {
	s, oerr := Open(t.TempDir(), Options{})
	if oerr != nil {
		t.Fatal(oerr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()

	if err := s.sleepBackoff(ctx, time.Millisecond); err != nil {
		t.Fatalf("a backoff shorter than the deadline = %v, want nil", err)
	}
	start := time.Now()
	// One full sleep would blow the test timeout.
	if err := s.sleepBackoff(ctx, 10*time.Minute); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("backoff past deadline = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not interrupt the backoff sleep: took %v", elapsed)
	}
	// retry wraps what the sleep reports and stops.
	s.mu.Lock()
	s.opCtx = ctx
	attempts := 0
	err := s.retry("op", func() error { attempts++; return transientErr{errors.New("always")} })
	s.opCtx = nil
	s.mu.Unlock()
	if !errors.Is(err, context.DeadlineExceeded) || attempts != 1 {
		t.Fatalf("retry past deadline = %v after %d attempts, want DeadlineExceeded after 1", err, attempts)
	}
}

// TestCommitCtxCancelledMidStreamNoLitter aborts a streaming commit via
// context cancellation mid-payload and verifies the store holds no temp
// litter and the previous generation stays indexed and readable.
func TestCommitCtxCancelledMidStreamNoLitter(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{Sleep: noSleep})
	if _, err := s.Commit(1, payload(1, 512)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	_, err := s.CommitStreamCtx(ctx, 2, func(w io.Writer) error {
		if _, werr := w.Write(payload(2, 256)); werr != nil {
			return werr
		}
		cancel() // producer observes the deadline mid-stream
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted stream commit = %v, want context.Canceled", err)
	}
	ents, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			t.Fatalf("aborted commit left temp litter: %s", filepath.Join(dir, e.Name()))
		}
	}
	gens := s.Generations()
	if len(gens) != 1 || gens[0].Seq != 1 {
		t.Fatalf("previous generation lost after aborted commit: %+v", gens)
	}
	if _, err := s.ReadGeneration(1); err != nil {
		t.Fatalf("generation 1 unreadable after aborted commit: %v", err)
	}
}

// TestReplicatedCommitCtxCancelled verifies cancellation propagates
// through the replicated fan-out.
func TestReplicatedCommitCtxCancelled(t *testing.T) {
	root := t.TempDir()
	r, err := OpenReplicated(root, ReplicaDirs(root, 2), 2, Options{Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.CommitCtx(ctx, 1, payload(1, 64)); !errors.Is(err, context.Canceled) {
		t.Fatalf("replicated CommitCtx on cancelled ctx = %v, want context.Canceled", err)
	}
	r.Wait()
	if gens := r.Generations(); len(gens) != 0 {
		t.Fatalf("cancelled replicated commit left %d generations", len(gens))
	}
}
