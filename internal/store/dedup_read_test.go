package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"lossyckpt/internal/cas"
)

// The dedup read assembles a generation in place, hashing one chunk while it
// reads the next. These tests hold it to the loop it replaced — read a chunk
// whole, check its length and hash, append it, stop at the first that fails —
// over every kind of damage a chunk file or a recipe can have.

// chunkFile is where a backend keeps the chunk of the given name.
func chunkFile(t *testing.T, s *Store, name string) string {
	t.Helper()
	switch b := s.b.(type) {
	case *posixBackend:
		return b.chunkPath(name)
	case *objectBackend:
		return b.key(objChunkPrefix + name)
	}
	t.Fatalf("unknown backend %T", s.b)
	return ""
}

// referenceRead is the read as it was: the verifying prefix of a recipe's
// chunks, each read on its own and appended.
func referenceRead(t *testing.T, s *Store, rec *cas.Recipe) (out []byte, complete bool) {
	t.Helper()
	for _, ref := range rec.Chunks {
		cdata, err := os.ReadFile(chunkFile(t, s, ref.Hash.String()))
		if err != nil || uint32(len(cdata)) != ref.Len || cas.Sum(cdata) != ref.Hash {
			return out, false
		}
		out = append(out, cdata...)
	}
	return out, true
}

// allocatedBy runs f and returns the bytes it allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestDedupReadDamagedChunks(t *testing.T) {
	payload := genPayload(77, 400<<10)
	damages := []struct {
		name string
		do   func(t *testing.T, path string, good []byte)
	}{
		{"flipped", func(t *testing.T, path string, good []byte) {
			bad := append([]byte(nil), good...)
			bad[len(bad)/2] ^= 0x10
			writeFile(t, path, bad)
		}},
		{"flipped last byte", func(t *testing.T, path string, good []byte) {
			bad := append([]byte(nil), good...)
			bad[len(bad)-1] ^= 0x01
			writeFile(t, path, bad)
		}},
		{"missing", func(t *testing.T, path string, good []byte) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
		{"one byte short", func(t *testing.T, path string, good []byte) { writeFile(t, path, good[:len(good)-1]) }},
		{"one byte long", func(t *testing.T, path string, good []byte) {
			writeFile(t, path, append(good[:len(good):len(good)], 0))
		}},
		{"empty", func(t *testing.T, path string, good []byte) { writeFile(t, path, nil) }},
		{"a megabyte long", func(t *testing.T, path string, good []byte) {
			writeFile(t, path, append(good[:len(good):len(good)], make([]byte, 1<<20)...))
		}},
	}
	for _, backend := range []BackendKind{BackendPosix, BackendObject} {
		dir := t.TempDir()
		opts := dedupOpts()
		opts.Backend = backend
		s := openTest(t, dir, opts)
		gen, err := s.Commit(1, payload)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := s.b.ReadPayload(gen.Seq, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := cas.DecodeRecipe(raw)
		if err != nil || len(rec.Chunks) < 8 {
			t.Fatalf("recipe: %v, %d chunks", err, len(rec.Chunks))
		}
		last := len(rec.Chunks) - 1

		// The read the rest is measured against: intact, verified, and no
		// more allocated than the generation, its recipe and small change.
		bound := rec.Size + uint64(len(raw)) + 64<<10
		var data []byte
		var verified bool
		if got := allocatedBy(func() { data, verified, err = s.ReadGenerationRaw(gen.Seq) }); got > bound {
			t.Errorf("%v: an intact read allocated %d bytes, bound %d", backend, got, bound)
		}
		if err != nil || !verified || !bytes.Equal(data, payload) {
			t.Fatalf("%v: intact read: err %v, verified %v, %d bytes", backend, err, verified, len(data))
		}

		for _, victims := range [][]int{{0}, {1}, {last / 2}, {last}, {last - 1, last}, {3, 4}, {4, 3}, {2, last}} {
			for _, dmg := range damages {
				name := fmt.Sprintf("%v/chunks %v %s", backend, victims, dmg.name)
				saved := make(map[string][]byte)
				for _, k := range victims {
					path := chunkFile(t, s, rec.Chunks[k].Hash.String())
					if _, done := saved[path]; done {
						continue // the same content twice in the payload
					}
					good, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					saved[path] = good
					dmg.do(t, path, good)
				}
				want, complete := referenceRead(t, s, rec)
				if complete {
					t.Fatalf("%s: the damage did not take", name)
				}
				// Nothing may cost more than a chunk or two over the bound, but
				// for a chunk file a megabyte too long: that is read to its end
				// as it always was, into a buffer of its own that append grows.
				limit := bound + 2*uint64(testChunkCfg.Max)
				if dmg.name == "a megabyte long" {
					limit += 8 << 20 * uint64(len(victims))
				}
				var data []byte
				var verified bool
				var err error
				if got := allocatedBy(func() { data, verified, err = s.ReadGenerationRaw(gen.Seq) }); got > limit {
					t.Errorf("%s: allocated %d bytes, limit %d", name, got, limit)
				}
				if err != nil || verified {
					t.Errorf("%s: err %v, verified %v; want nil, false", name, err, verified)
				}
				if !bytes.Equal(data, want) {
					t.Errorf("%s: %d bytes came back, the verifying prefix is %d", name, len(data), len(want))
				}
				if !bytes.HasPrefix(payload, data) {
					t.Errorf("%s: what came back is not a prefix of the payload", name)
				}
				for path, good := range saved {
					writeFile(t, path, good)
				}
			}
		}
		if data, verified, err := s.ReadGenerationRaw(gen.Seq); err != nil || !verified || !bytes.Equal(data, payload) {
			t.Fatalf("%v: read after the chunks were put back: err %v, verified %v", backend, err, verified)
		}
	}
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDedupReadLyingRecipe: a recipe whose declared size is not the sum of
// its chunks — whichever way, and however large — resolves to nothing,
// unverified, and sizes no allocation; one that is merely not the manifest's
// comes back whole and unverified.
func TestDedupReadLyingRecipe(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, dedupOpts())
	payload := genPayload(78, 200<<10)
	gen, err := s.Commit(1, payload)
	if err != nil {
		t.Fatal(err)
	}
	genFile := filepath.Join(dir, genName(gen.Seq))
	raw, err := os.ReadFile(genFile)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := cas.DecodeRecipe(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []uint64{rec.Size - 1, rec.Size + 1, 0, 1 << 40, 1<<64 - 1} {
		forged := *rec
		forged.Size = size
		writeFile(t, genFile, forged.Encode())
		var data []byte
		var verified bool
		var err error
		got := allocatedBy(func() { data, verified, err = s.ReadGenerationRaw(gen.Seq) })
		if err != nil || verified || len(data) != 0 {
			t.Errorf("declared size %d: err %v, verified %v, %d bytes; want nil, false, none", size, err, verified, len(data))
		}
		if got > uint64(len(raw))+64<<10 {
			t.Errorf("declared size %d: allocated %d bytes", size, got)
		}
	}
	// Self-consistent, but one chunk short of what the manifest recorded.
	short := cas.Recipe{CRC: rec.CRC, Chunks: rec.Chunks[:len(rec.Chunks)-1]}
	for _, ref := range short.Chunks {
		short.Size += uint64(ref.Len)
	}
	writeFile(t, genFile, short.Encode())
	data, verified, err := s.ReadGenerationRaw(gen.Seq)
	if err != nil || verified || !bytes.Equal(data, payload[:short.Size]) {
		t.Errorf("short recipe: err %v, verified %v, %d bytes; want nil, false, %d", err, verified, len(data), short.Size)
	}
}
