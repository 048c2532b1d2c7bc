package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lossyckpt/internal/cas"
)

// chunkCreateFS calls at on the nth creation of a chunk file (left holds n)
// and fails that creation with what at returns. A failure is for good: the
// error is not transient, and unlike a FaultFS crash the filesystem lives
// on, so the commit's own cleanup runs.
type chunkCreateFS struct {
	OsFS
	left atomic.Int64
	at   func() error
}

var errChunkCreate = errors.New("chunk create refused")

func (f *chunkCreateFS) Create(name string) (File, error) {
	if strings.Contains(name, CASDir) && f.left.Add(-1) == 0 {
		if err := f.at(); err != nil {
			return nil, err
		}
	}
	return f.OsFS.Create(name)
}

// goroutinesReturn checks, after everything else the test cleans up and
// whether it passed or failed, that the goroutine count is back to what it is
// now: no batch of a commit outlives it.
func goroutinesReturn(t *testing.T) {
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Errorf("%d goroutines left, %d before the subtest", runtime.NumGoroutine(), before)
				return
			}
		}
	})
}

// referenceRecipe is the recipe the serial commit wrote for payload: cut,
// then each chunk hashed in turn.
func referenceRecipe(t *testing.T, cfg cas.Config, payload []byte) []cas.Ref {
	t.Helper()
	chunks, err := cas.Split(cfg, payload)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]cas.Ref, len(chunks))
	for i, c := range chunks {
		refs[i] = cas.Ref{Hash: cas.Sum(c), Len: uint32(len(c))}
	}
	return refs
}

// TestDedupCommitHashesBesideCutter drives the pipelined commit through the
// cases where a view's lifetime, the batch boundary or the order of landing
// matters: a first chunk that spans two writes while the same write carries a
// tail into the chunker's buffer, a chunk repeated inside one batch, writes
// smaller than a chunk, a chunk write that fails in the middle of a batch, a
// write of more batches than may be in flight, a context cancelled while
// chunks are landing, and an inline read-repair of a dedup generation. Every subtest ends with the goroutine count where it
// began. Run with -race: each batch's goroutine reads the views the committing
// goroutine collects and lands into the writer's state after its predecessor.
func TestDedupCommitHashesBesideCutter(t *testing.T) {
	cfg := testChunkCfg // 1/4/16 KiB: a 256 KiB batch is some sixty chunks
	opts := Options{Dedup: true, DedupChunk: cfg, Keep: -1}
	checkGen := func(t *testing.T, s *Store, gen Generation, payload []byte) {
		t.Helper()
		if got, err := s.ReadGeneration(gen.Seq); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("gen %d: read back: err %v, equal %v", gen.Seq, err, bytes.Equal(got, payload))
		}
		s.mu.Lock()
		refs := s.dd.recipes[gen.Seq]
		s.mu.Unlock()
		want := referenceRecipe(t, cfg, payload)
		if len(refs) != len(want) {
			t.Fatalf("gen %d: recipe has %d chunks, serial cut-and-hash gives %d", gen.Seq, len(refs), len(want))
		}
		for i := range want {
			if refs[i] != want[i] {
				t.Fatalf("gen %d: recipe entry %d differs from serial cut-and-hash", gen.Seq, i)
			}
		}
		fsckClean(t, s, "after commit")
	}

	t.Run("first chunk spans writes", func(t *testing.T) {
		goroutinesReturn(t)
		s := openTest(t, t.TempDir(), opts)
		payload := genPayload(41, 1200<<10)
		// Every write begins inside a chunk the previous one carried, runs
		// past one batch, and ends by carrying a tail of its own.
		gen, err := s.CommitStream(1, func(w io.Writer) error {
			for off, n := 0, 100; off < len(payload); n = 300<<10 + 77 {
				end := min(off+n, len(payload))
				p := append([]byte(nil), payload[off:end]...)
				if _, err := w.Write(p); err != nil {
					return err
				}
				clear(p) // the producer reuses its buffer
				off = end
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		checkGen(t, s, gen, payload)
	})

	t.Run("duplicate chunk inside one batch", func(t *testing.T) {
		goroutinesReturn(t)
		s := openTest(t, t.TempDir(), opts)
		a := genPayload(42, 48<<10)
		payload := append(append(append([]byte(nil), a...), a...), a...) // 144 KiB < one batch
		gen, err := s.Commit(1, payload)
		if err != nil {
			t.Fatal(err)
		}
		checkGen(t, s, gen, payload)
		distinct := make(map[cas.Hash]bool)
		refs := referenceRecipe(t, cfg, payload)
		for _, r := range refs {
			distinct[r.Hash] = true
		}
		if len(distinct) == len(refs) {
			t.Fatalf("no chunk repeats among %d; the case tests nothing", len(refs))
		}
		names, err := s.b.ListChunks()
		if err != nil || len(names) != len(distinct) {
			t.Fatalf("%d chunk files for %d distinct chunks (err %v)", len(names), len(distinct), err)
		}
		if st := s.DedupStats(); st.Chunks != len(distinct) {
			t.Fatalf("ledger holds %d chunks, want %d", st.Chunks, len(distinct))
		}
	})

	t.Run("writes smaller than a chunk", func(t *testing.T) {
		goroutinesReturn(t)
		s := openTest(t, t.TempDir(), opts)
		payload := genPayload(43, 90<<10)
		gen, err := s.CommitStream(1, func(w io.Writer) error {
			for off := 0; off < len(payload); off += 700 {
				if _, err := w.Write(payload[off:min(off+700, len(payload))]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		checkGen(t, s, gen, payload)
	})

	t.Run("chunk write fails mid-batch", func(t *testing.T) {
		goroutinesReturn(t)
		ffs := &chunkCreateFS{at: func() error { return errChunkCreate }}
		o := opts
		o.FS = ffs
		dir := t.TempDir()
		s := openTest(t, dir, o)
		base := genPayload(44, 600<<10)
		gen, err := s.Commit(1, base)
		if err != nil {
			t.Fatal(err)
		}
		before, _ := s.b.ListChunks()

		// Fresh content, failing at the 70th new chunk: inside the second
		// batch, with the third being hashed.
		ffs.left.Store(70)
		if _, err := s.CommitCtx(context.Background(), 2, genPayload(45, 900<<10)); !errors.Is(err, errChunkCreate) {
			t.Fatalf("commit with a failing chunk write = %v, want the create error", err)
		}
		after, _ := s.b.ListChunks()
		if strings.Join(after, ",") != strings.Join(before, ",") {
			t.Fatalf("failed commit left %d chunk files, %d before it", len(after), len(before))
		}
		for path := range storeImage(t, dir) {
			if strings.HasSuffix(path, tmpSuffix) {
				t.Fatalf("failed commit left %s", path)
			}
		}
		checkGen(t, s, gen, base)
		// The store goes on committing, reusing what it holds.
		next := mutateRegion(base, 200<<10, 0.02, 46)
		gen2, err := s.Commit(3, next)
		if err != nil {
			t.Fatal(err)
		}
		checkGen(t, s, gen2, next)
	})

	t.Run("more batches than may be in flight", func(t *testing.T) {
		goroutinesReturn(t)
		o := opts
		// The first chunk's creation is held back, so that the cutter runs
		// ahead of the landing by as many batches as it may.
		slow := &chunkCreateFS{at: func() error { time.Sleep(50 * time.Millisecond); return nil }}
		slow.left.Store(1)
		o.FS = slow
		s := openTest(t, t.TempDir(), o)
		// One write of 19 MiB that repeats 48 KiB: past the first repeat every
		// chunk is held, so the cutter reaches the bound while the first
		// batch is still landing, and waits there.
		payload := bytes.Repeat(genPayload(51, 48<<10), 400)
		if len(payload) <= batchesInFlight*hashBatchBytes {
			t.Fatalf("%d bytes do not fill %d batches", len(payload), batchesInFlight)
		}
		gen, err := s.Commit(1, payload)
		if err != nil {
			t.Fatal(err)
		}
		checkGen(t, s, gen, payload)
	})

	for _, writes := range []int{1, 3} {
		t.Run(fmt.Sprintf("context cancelled while chunks land, writes=%d", writes), func(t *testing.T) {
			goroutinesReturn(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfs := &chunkCreateFS{at: func() error { cancel(); return nil }}
			o := opts
			o.FS = cfs
			dir := t.TempDir()
			s := openTest(t, dir, o)
			base := genPayload(47, 600<<10)
			gen, err := s.Commit(1, base)
			if err != nil {
				t.Fatal(err)
			}
			before, _ := s.b.ListChunks()

			// Fresh content, cancelled at the 70th new chunk: inside the
			// second batch, with the ones behind it hashed or being hashed.
			cfs.left.Store(70)
			payload := genPayload(48, 900<<10)
			_, err = s.CommitStreamCtx(ctx, 2, func(w io.Writer) error {
				for i := range writes {
					if _, err := w.Write(payload[i*len(payload)/writes : (i+1)*len(payload)/writes]); err != nil {
						return err
					}
				}
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("commit cancelled mid-landing = %v, want context.Canceled", err)
			}
			after, _ := s.b.ListChunks()
			if strings.Join(after, ",") != strings.Join(before, ",") {
				t.Fatalf("cancelled commit left %d chunk files, %d before it", len(after), len(before))
			}
			for path := range storeImage(t, dir) {
				if strings.HasSuffix(path, tmpSuffix) {
					t.Fatalf("cancelled commit left %s", path)
				}
			}
			checkGen(t, s, gen, base)
			gen2, err := s.Commit(2, payload)
			if err != nil {
				t.Fatal(err)
			}
			checkGen(t, s, gen2, payload)
		})
	}

	t.Run("inline read-repair", func(t *testing.T) {
		goroutinesReturn(t)
		root := t.TempDir()
		o := opts
		o.Sleep = noSleep
		r, err := OpenReplicated(root, ReplicaDirs(root, 3), 2, o)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Wait()
		base := genPayload(49, 900<<10)
		payloads := [][]byte{base, mutateRegion(base, 300<<10, 0.02, 50)}
		for i, p := range payloads {
			if _, err := r.Commit(i+1, p); err != nil {
				t.Fatal(err)
			}
		}
		r.Wait()
		st0, _ := r.Replica(0)
		before, _ := st0.b.ListChunks()
		// Damage replica 0's copy of a chunk past the first batch of the
		// newest generation: the repair re-cuts and re-lands the whole stream,
		// checking every chunk the ledger holds against its file.
		st0.mu.Lock()
		victim := st0.dd.recipes[2][80].Hash
		st0.mu.Unlock()
		path := chunkFile(t, st0, victim.String())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x10
		writeFile(t, path, data)

		if got, err := r.ReadGeneration(2); err != nil || !bytes.Equal(got, payloads[1]) {
			t.Fatalf("replicated read: %v, equal %v", err, bytes.Equal(got, payloads[1]))
		}
		r.Wait()
		for i, p := range payloads {
			checkGen(t, st0, Generation{Seq: uint64(i + 1)}, p)
		}
		if after, _ := st0.b.ListChunks(); strings.Join(after, ",") != strings.Join(before, ",") {
			t.Fatalf("replica 0 holds %d chunk files after the repair, %d before the damage", len(after), len(before))
		}
	})
}
