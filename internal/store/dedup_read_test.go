package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"lossyckpt/internal/cas"
)

// The dedup read assembles a generation in place, its chunks read and hashed
// by several readers at once. These tests hold it to the loop it replaced —
// read a chunk whole, check its length and hash, append it, stop at the first
// that fails — over every kind of damage a chunk file or a recipe can have, at
// whatever GOMAXPROCS the test runs with (make race runs them at 1, 2 and 8).

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

// recipeOf decodes the recipe generation seq was committed as.
func recipeOf(t *testing.T, s *Store, seq uint64) (rec *cas.Recipe, raw []byte) {
	t.Helper()
	raw, err := s.b.ReadPayload(seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec, err = cas.DecodeRecipe(raw); err != nil {
		t.Fatal(err)
	}
	return rec, raw
}

// allocatedBy runs f and returns the bytes it allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// chunkDamages are the ways a chunk file can be wrong: do turns the good
// content of the file at path into the damaged one.
var chunkDamages = []struct {
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

// damageChunks damages the chunk files at the given recipe positions and
// returns the function that puts them back.
func damageChunks(t *testing.T, s *Store, rec *cas.Recipe, victims []int, damage func(*testing.T, string, []byte)) (restore func()) {
	t.Helper()
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
		damage(t, path, good)
	}
	return func() {
		for path, good := range saved {
			writeFile(t, path, good)
		}
	}
}

// checkDamagedRead reads generation seq, whose chunks were damaged, and holds
// it to the reference: unverified, the verifying prefix, a prefix of payload,
// and no more allocated than limit.
func checkDamagedRead(t *testing.T, s *Store, seq uint64, rec *cas.Recipe, payload []byte, limit uint64) {
	t.Helper()
	want, complete := referenceRead(t, s, rec)
	if complete {
		t.Fatal("the damage did not take")
	}
	var data []byte
	var verified bool
	var err error
	if got := allocatedBy(func() { data, verified, err = s.ReadGenerationRaw(seq) }); got > limit {
		t.Errorf("allocated %d bytes, limit %d", got, limit)
	}
	if err != nil || verified {
		t.Errorf("err %v, verified %v; want nil, false", err, verified)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("%d bytes came back, the verifying prefix is %d", len(data), len(want))
	}
	if !bytes.HasPrefix(payload, data) {
		t.Error("what came back is not a prefix of the payload")
	}
}

// damageLimit is what a read of damaged chunks may allocate beyond bound: a
// chunk or two, but for a chunk file a megabyte too long, which is read to its
// end as it always was, into a buffer of its own that append grows — once per
// reader that meets it.
func damageLimit(bound uint64, damage string, reads int) uint64 {
	limit := bound + 2*uint64(testChunkCfg.Max)
	if damage == "a megabyte long" {
		limit += 8 << 20 * uint64(reads)
	}
	return limit
}

func TestDedupReadDamagedChunks(t *testing.T) {
	payload := genPayload(77, 400<<10)
	for _, backend := range []BackendKind{BackendPosix, BackendObject} {
		t.Run(backend.String(), func(t *testing.T) {
			opts := dedupOpts()
			opts.Backend = backend
			s := openTest(t, t.TempDir(), opts)
			gen, err := s.Commit(1, payload)
			if err != nil {
				t.Fatal(err)
			}
			rec, raw := recipeOf(t, s, gen.Seq)
			if len(rec.Chunks) < 8 {
				t.Fatalf("recipe of %d chunks", len(rec.Chunks))
			}
			last := len(rec.Chunks) - 1

			// The read the rest is measured against: intact, verified, and no
			// more allocated than the generation, its recipe and small change.
			bound := rec.Size + uint64(len(raw)) + 64<<10
			var data []byte
			var verified bool
			if got := allocatedBy(func() { data, verified, err = s.ReadGenerationRaw(gen.Seq) }); got > bound {
				t.Errorf("an intact read allocated %d bytes, bound %d", got, bound)
			}
			if err != nil || !verified || !bytes.Equal(data, payload) {
				t.Fatalf("intact read: err %v, verified %v, %d bytes", err, verified, len(data))
			}

			// {last - 1, last} and {2, last} put damage in the last reader's
			// share beside damage ahead of it, where the read must end.
			for _, victims := range [][]int{{0}, {1}, {last / 2}, {last}, {last - 1, last}, {3, 4}, {4, 3}, {2, last}} {
				for _, dmg := range chunkDamages {
					t.Run(fmt.Sprintf("chunks %v %s", victims, dmg.name), func(t *testing.T) {
						goroutinesReturn(t)
						defer damageChunks(t, s, rec, victims, dmg.do)()
						checkDamagedRead(t, s, gen.Seq, rec, payload, damageLimit(bound, dmg.name, len(victims)))
					})
				}
			}
			if data, verified, err := s.ReadGenerationRaw(gen.Seq); err != nil || !verified || !bytes.Equal(data, payload) {
				t.Fatalf("read after the chunks were put back: err %v, verified %v", err, verified)
			}
		})
	}
}

// TestDedupReadRepeatedChunk: a run of zeros cuts into one chunk the recipe
// names again and again, so readers open and read the same file side by side
// into neighbouring ranges; damage to it ends the read where the recipe first
// names it.
func TestDedupReadRepeatedChunk(t *testing.T) {
	payload := slices.Concat(genPayload(79, 64<<10), make([]byte, 8*testChunkCfg.Max), genPayload(80, 64<<10))
	for _, backend := range []BackendKind{BackendPosix, BackendObject} {
		t.Run(backend.String(), func(t *testing.T) {
			opts := dedupOpts()
			opts.Backend = backend
			s := openTest(t, t.TempDir(), opts)
			gen, err := s.Commit(1, payload)
			if err != nil {
				t.Fatal(err)
			}
			rec, raw := recipeOf(t, s, gen.Seq)
			var repeated []int // where the recipe names its most named chunk
			for i := range rec.Chunks {
				var at []int
				for j := i; j < len(rec.Chunks); j++ {
					if rec.Chunks[j].Hash == rec.Chunks[i].Hash {
						at = append(at, j)
					}
				}
				if len(at) > len(repeated) {
					repeated = at
				}
			}
			if len(repeated) < 4 || repeated[1] != repeated[0]+1 {
				t.Fatalf("no chunk named four times, twice in a row: %v", repeated)
			}
			bound := rec.Size + uint64(len(raw)) + 64<<10
			for _, dmg := range chunkDamages {
				t.Run(dmg.name, func(t *testing.T) {
					goroutinesReturn(t)
					if data, verified, err := s.ReadGenerationRaw(gen.Seq); err != nil || !verified || !bytes.Equal(data, payload) {
						t.Fatalf("intact read: err %v, verified %v, %d bytes", err, verified, len(data))
					}
					defer damageChunks(t, s, rec, repeated[:1], dmg.do)()
					checkDamagedRead(t, s, gen.Seq, rec, payload, damageLimit(bound, dmg.name, len(repeated)))
				})
			}
		})
	}
}

// TestDedupReadLowestFailureWins holds readChunks to its contract: every i
// read once up to the lowest failure, which is the answer even when a later
// read fails first, and no claim past a failure once it is known.
func TestDedupReadLowestFailureWins(t *testing.T) {
	const n = 64
	readers := min(n, max(2, runtime.GOMAXPROCS(0)))
	t.Run("every chunk read once", func(t *testing.T) {
		goroutinesReturn(t)
		var reads [n]atomic.Int32
		if got := readChunks(n, func(i int) bool { reads[i].Add(1); return true }); got != n {
			t.Fatalf("readChunks = %d with no failure, want %d", got, n)
		}
		for i := range reads {
			if c := reads[i].Load(); c != 1 {
				t.Errorf("chunk %d read %d times", i, c)
			}
		}
		if got := readChunks(0, func(int) bool { t.Error("a read of nothing"); return true }); got != 0 {
			t.Errorf("readChunks(0) = %d", got)
		}
	})
	t.Run("the last reader's chunk fails first", func(t *testing.T) {
		goroutinesReturn(t)
		lastFailed := make(chan struct{})
		got := readChunks(n, func(i int) bool {
			switch i {
			case 0: // held until chunk n-1, which another reader reads, has failed
				<-lastFailed
				return false
			case n - 1:
				close(lastFailed)
				return false
			}
			return true
		})
		if got != 0 {
			t.Fatalf("readChunks = %d, want 0: the lowest failure", got)
		}
	})
	t.Run("no claim past a known failure", func(t *testing.T) {
		goroutinesReturn(t)
		for k := range n {
			var reads [n]atomic.Int32
			failed := make(chan struct{})
			got := readChunks(n, func(i int) bool {
				reads[i].Add(1)
				switch {
				case i == k:
					close(failed)
					return false
				case i > k: // a read past k ends only once k has failed, and fails too
					<-failed
					return false
				}
				return true
			})
			if got != k {
				t.Fatalf("fail at %d: readChunks = %d", k, got)
			}
			past := 0
			for i := range n {
				switch c := reads[i].Load(); {
				case i <= k && c != 1:
					t.Fatalf("fail at %d: chunk %d read %d times", k, i, c)
				case i > k:
					past += int(c)
				}
			}
			// Each other reader may read one chunk past k, claimed before it
			// knew of a failure; a reader that knows of one claims nothing.
			if past > readers-1 {
				t.Fatalf("fail at %d: %d reads past it with %d readers", k, past, readers)
			}
		}
	})
}

// TestFsckDedupIssuesIndependentOfReaders: the chunk audit reads its chunks on
// several readers and still lists its issues in recipe order — one chunk
// bit-flipped in one generation, one missing from another, each once, for the
// first generation that names it — the same at one reader count as at another.
func TestFsckDedupIssuesIndependentOfReaders(t *testing.T) {
	goroutinesReturn(t)
	opts := dedupOpts()
	opts.Keep = -1
	s := openTest(t, t.TempDir(), opts)
	base := genPayload(81, 400<<10)
	for i, p := range [][]byte{base, mutateRegion(base, 200<<10, 0.05, 82)} {
		if _, err := s.Commit(i+1, p); err != nil {
			t.Fatal(err)
		}
	}
	rec1, _ := recipeOf(t, s, 1)
	rec2, _ := recipeOf(t, s, 2)
	var fresh cas.Ref // a chunk only generation 2 holds
	for _, ref := range rec2.Chunks {
		if !slices.ContainsFunc(rec1.Chunks, func(r cas.Ref) bool { return r.Hash == ref.Hash }) {
			fresh = ref
			break
		}
	}
	if fresh.Len == 0 {
		t.Fatal("generation 2 shares every chunk with generation 1")
	}
	flipped := rec1.Chunks[len(rec1.Chunks)-1]
	if err := os.Remove(chunkFile(t, s, fresh.Hash.String())); err != nil {
		t.Fatal(err)
	}
	damageChunks(t, s, rec1, []int{len(rec1.Chunks) - 1}, chunkDamages[0].do)

	var first []DedupFsckIssue
	for _, procs := range []int{1, 8, 2} {
		prev := runtime.GOMAXPROCS(procs)
		rep, err := s.FsckDedup()
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		is := rep.Issues
		if len(is) != 2 ||
			is[0].Kind != "corrupt" || is[0].Seq != 1 || is[0].Hash != flipped.Hash.String() ||
			is[1].Kind != "missing" || is[1].Seq != 2 || is[1].Hash != fresh.Hash.String() {
			t.Fatalf("GOMAXPROCS %d: issues %+v; want gen 1's flipped chunk, then gen 2's missing one", procs, is)
		}
		if first == nil {
			first = is
		} else if !reflect.DeepEqual(is, first) {
			t.Fatalf("GOMAXPROCS %d: issues %+v, at GOMAXPROCS 1 %+v", procs, is, first)
		}
	}
}

// TestReadFileFSStaysInRoom: a read into exactly the room a file should need
// writes nothing past that room, whatever the file's real length, and reads a
// file that fits in place.
func TestReadFileFSStaysInRoom(t *testing.T) {
	const n, guard = 1000, 0xA5
	content := genPayload(83, n+600)
	for _, size := range []int{0, 1, n - 1, n, n + 1, n + 600} {
		path := filepath.Join(t.TempDir(), "f")
		writeFile(t, path, content[:size])
		buf := make([]byte, n+1)
		buf[n] = guard
		got, err := readFileFS(OsFS{}, path, buf[:0:n])
		if err != nil || !bytes.Equal(got, content[:size]) {
			t.Errorf("%d-byte file: err %v, %d bytes back, want them all", size, err, len(got))
		}
		if buf[n] != guard {
			t.Errorf("%d-byte file: the byte past the room was written", size)
		}
		if size > 0 && (&got[0] == &buf[0]) != (size <= n) {
			t.Errorf("%d-byte file: read in place %v", size, &got[0] == &buf[0])
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
