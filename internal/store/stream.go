package store

import (
	"context"
	"io"
)

// stream.go adds the streaming half of the commit protocol. Commit needs
// the whole payload in memory before the store sees its first byte;
// CommitStream hands the producer an io.Writer that feeds the
// backend's PayloadWriter directly, so a pipeline like
// core.CompressChunkedTo overlaps compression with store I/O and the
// store-side memory bound drops to one commitChunk buffer. The durability
// protocol is unchanged per backend: a producer failure mid-stream aborts
// the payload and the previous latest generation stays indexed.

// CommitStream commits the bytes write produces as the next generation
// without buffering them. write's io.Writer batches into commitChunk-sized
// retried writes; the generation's size and CRC accumulate incrementally
// as bytes pass through, so the manifest record is identical to what
// Commit would have written for the same bytes. An error from write (or a
// failed store write underneath it) aborts the commit: the partial payload
// is removed and the previous latest generation stays indexed.
func (s *Store) CommitStream(step int, write func(io.Writer) error) (gen Generation, err error) {
	return s.CommitStreamCtx(context.Background(), step, write)
}

// CommitStreamCtx is CommitStream bound to a request context:
// cancellation aborts the commit between retry attempts and backoff
// sleeps, the partial payload is removed, and the previous latest
// generation stays indexed.
func (s *Store) CommitStreamCtx(ctx context.Context, step int, write func(io.Writer) error) (gen Generation, err error) {
	return s.commit(ctx, autoSeq, step, 0, -1, write)
}
