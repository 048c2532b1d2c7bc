package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
)

// writeInPieces streams data to w in uneven pieces that straddle
// commitChunk boundaries.
func writeInPieces(data []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		sizes := []int{1, 7, 100, 64 << 10, commitChunk, commitChunk + 13}
		for i := 0; len(data) > 0; i++ {
			n := sizes[i%len(sizes)]
			if n > len(data) {
				n = len(data)
			}
			if _, err := w.Write(data[:n]); err != nil {
				return err
			}
			data = data[n:]
		}
		return nil
	}
}

// TestCommitStreamMatchesCommit pins the equivalence contract: the same
// bytes through CommitStream produce a generation with the same size and
// CRC record as Commit, reading back verified and identical.
func TestCommitStreamMatchesCommit(t *testing.T) {
	want := payload(3, 3*commitChunk+777)

	dirA := t.TempDir()
	a := openTest(t, dirA, Options{})
	genA, err := a.Commit(11, want)
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}

	dirB := t.TempDir()
	b := openTest(t, dirB, Options{})
	genB, err := b.CommitStream(11, writeInPieces(want))
	if err != nil {
		t.Fatalf("CommitStream: %v", err)
	}
	if genB.Seq != genA.Seq || genB.Step != genA.Step || genB.Size != genA.Size || genB.CRC != genA.CRC {
		t.Fatalf("streamed generation %+v, buffered %+v", genB, genA)
	}
	got, err := b.ReadGeneration(genB.Seq)
	if err != nil {
		t.Fatalf("ReadGeneration: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("streamed payload mismatch after round trip")
	}
}

func TestCommitStreamEmptyAndTiny(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	gen, err := s.CommitStream(0, func(io.Writer) error { return nil })
	if err != nil {
		t.Fatalf("empty stream: %v", err)
	}
	if gen.Size != 0 {
		t.Fatalf("empty stream size %d", gen.Size)
	}
	gen, err = s.CommitStream(1, func(w io.Writer) error {
		_, err := w.Write([]byte{0xab})
		return err
	})
	if err != nil {
		t.Fatalf("tiny stream: %v", err)
	}
	if got, err := s.ReadGeneration(gen.Seq); err != nil || !bytes.Equal(got, []byte{0xab}) {
		t.Fatalf("tiny read: %v %v", got, err)
	}
}

// TestCommitStreamProducerError checks that a failing producer aborts the
// commit cleanly: no temp litter, previous latest intact, next commit
// reuses the slot.
func TestCommitStreamProducerError(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	if _, err := s.Commit(1, payload(1, 1024)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("producer exploded")
	_, err := s.CommitStream(2, func(w io.Writer) error {
		if _, werr := w.Write(payload(2, commitChunk+5)); werr != nil {
			return werr
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v, want producer failure", err)
	}
	latest, ok := s.Latest()
	if !ok || latest.Seq != 1 {
		t.Fatalf("latest %+v ok=%v, want untouched gen 1", latest, ok)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			t.Fatalf("temp litter %s after aborted stream", e.Name())
		}
	}
	want := payload(3, 2048)
	gen, err := s.CommitStream(3, writeInPieces(want))
	if err != nil {
		t.Fatalf("commit after abort: %v", err)
	}
	if gen.Seq != 2 {
		t.Fatalf("post-abort seq %d, want 2", gen.Seq)
	}
	if got, _ := s.ReadGeneration(2); !bytes.Equal(got, want) {
		t.Fatal("post-abort payload mismatch")
	}
}

// TestCommitStreamWriteFault injects a hard crash at a write boundary
// mid-stream: the producer sees the error through the writer, the commit
// fails, and nothing is indexed.
func TestCommitStreamWriteFault(t *testing.T) {
	inner := t.TempDir()
	ffs := NewFaultFS(OsFS{})
	s := openTest(t, inner, Options{FS: ffs})
	if _, err := s.Commit(1, payload(1, 512)); err != nil {
		t.Fatal(err)
	}
	// Fail the third write op from here on (create + writes of the new
	// temp file); Crash kills every subsequent op too.
	ffs.FailAt(ffs.Ops()+3, Fault{Kind: Crash})
	_, err := s.CommitStream(2, func(w io.Writer) error {
		big := payload(2, 4*commitChunk)
		for off := 0; off < len(big); off += commitChunk {
			if _, werr := w.Write(big[off : off+commitChunk]); werr != nil {
				return werr
			}
		}
		return nil
	})
	if err == nil {
		t.Fatal("stream commit over crashed FS succeeded")
	}
	if !ffs.Crashed() {
		t.Fatal("fault never fired")
	}
}

// TestCommitStreamTransientWriteRetries checks a transient write error is
// absorbed by the store's retry policy without surfacing to the producer.
func TestCommitStreamTransientWriteRetries(t *testing.T) {
	inner := t.TempDir()
	ffs := NewFaultFS(OsFS{})
	s := openTest(t, inner, Options{FS: ffs})
	ffs.FailAt(ffs.Ops()+2, Fault{Kind: ErrorOnce})
	want := payload(5, 2*commitChunk)
	gen, err := s.CommitStream(5, writeInPieces(want))
	if err != nil {
		t.Fatalf("CommitStream with transient fault: %v", err)
	}
	if got, err := s.ReadGeneration(gen.Seq); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read after transient fault: %v", err)
	}
}

// TestCommitWriterUsableOnceOnly guards against a producer retaining the
// writer: writes after finish/abort must fail, not reach the store.
func TestCommitWriterUsableOnceOnly(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	var leaked io.Writer
	if _, err := s.CommitStream(1, func(w io.Writer) error {
		leaked = w
		_, werr := w.Write([]byte("ok"))
		return werr
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := leaked.Write([]byte("late")); err == nil {
		t.Fatal("write after commit finished succeeded")
	}
	if got, err := s.ReadGeneration(1); err != nil || !bytes.Equal(got, []byte("ok")) {
		t.Fatalf("late write leaked into generation: %v %v", got, err)
	}
}
