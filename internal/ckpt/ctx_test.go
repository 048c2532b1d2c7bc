package ckpt

import (
	"context"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
)

// TestCheckpointStreamToCtxCancelled: an already-dead request must not
// commit anything.
func TestCheckpointStreamToCtxCancelled(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 3)
	mgr := NewManager(None{}, 1)
	registerSample(t, mgr)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := mgr.CheckpointToCtx(ctx, st, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("CheckpointToCtx on cancelled ctx = %v, want context.Canceled", err)
	}
	if gens := st.Generations(); len(gens) != 0 {
		t.Fatalf("cancelled checkpoint committed %d generations", len(gens))
	}
}

// cancelAfterWriter cancels its context after n writes pass through.
type cancelAfterWriter struct {
	w      io.Writer
	cancel context.CancelFunc
	left   int
}

func (c *cancelAfterWriter) Write(p []byte) (int, error) {
	if c.left--; c.left == 0 {
		c.cancel()
	}
	return c.w.Write(p)
}

// TestCheckpointStreamCtxCancelledMidStream: cancellation during the
// stream stops production promptly with the context error, and the
// partial output is clearly an error (no report).
func TestCheckpointStreamCtxCancelledMidStream(t *testing.T) {
	mgr := NewManager(None{}, 1)
	registerSample(t, mgr)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelAfterWriter{w: io.Discard, cancel: cancel, left: 2}
	rep, err := mgr.checkpoint(ctx, sink, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-stream cancel = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Fatalf("cancelled checkpoint returned a report: %+v", rep)
	}
}

// TestCheckpointStreamToCtxMidStreamNoLitter: a cancellation mid-commit
// aborts the store payload — no temp litter, previous latest intact.
func TestCheckpointStreamToCtxMidStreamNoLitter(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 3)
	mgr := NewManager(None{}, 1)
	registerSample(t, mgr)
	if _, _, err := mgr.CheckpointTo(st, 1); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { // cancel as soon as the first bytes hit the store
		defer close(done)
		cancel()
	}()
	<-done
	_, _, err := mgr.CheckpointToCtx(ctx, st, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled commit = %v, want context.Canceled", err)
	}
	ents, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("aborted commit left temp litter: %s", e.Name())
		}
	}
	gens := st.Generations()
	if len(gens) != 1 || gens[0].Seq != 1 {
		t.Fatalf("previous generation lost: %+v", gens)
	}
}

// TestLoadLatestCtxCancelled: a cancelled restore stops walking the
// retention ring.
func TestLoadLatestCtxCancelled(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 3)
	mgr := NewManager(None{}, 1)
	registerSample(t, mgr)
	if _, _, err := mgr.CheckpointTo(st, 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := LoadLatestCtx(ctx, st, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("LoadLatestCtx on cancelled ctx = %v, want context.Canceled", err)
	}
}
