package store

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"lossyckpt/internal/cas"
)

// chunkCreateFailFS fails the nth creation of a chunk file, for good: the
// error is not transient, and unlike a FaultFS crash the filesystem lives
// on, so the commit's own cleanup runs.
type chunkCreateFailFS struct {
	OsFS
	left atomic.Int64
}

var errChunkCreate = errors.New("chunk create refused")

func (f *chunkCreateFailFS) Create(name string) (File, error) {
	if strings.Contains(name, CASDir) && f.left.Add(-1) == 0 {
		return nil, errChunkCreate
	}
	return f.OsFS.Create(name)
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

// TestDedupCommitHashesBesideCutter drives the batched commit through the
// cases where a view's lifetime or the batch boundary matters: a first chunk
// that spans two writes while the same write carries a tail into the
// chunker's buffer, a chunk repeated inside one hashing batch, writes smaller
// than a chunk, and a chunk write that fails in the middle of a batch. Run
// with -race: the hasher reads the views the committing goroutine collects.
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
		ffs := &chunkCreateFailFS{}
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
}
