package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// These tests hold the one materialise → index road to its contract: a repair
// is a commit with the record given, and indexing books a generation's chunk
// references before it releases what the generation displaced.

// TestReplicatedInlineRepairKeepsDedupChunks: a read through the replicated
// store that finds one replica's copy of a dedup generation damaged repairs it
// inline — over the record that replica still indexes — and the repair must
// leave the chunks it has just verified or rewritten: afterwards that replica
// alone serves the generation, its audit is clean and it holds as many chunk
// files as before the damage. Both refcount paths: a generation that shares no
// chunk with any other, and one that shares nearly all with its neighbour.
func TestReplicatedInlineRepairKeepsDedupChunks(t *testing.T) {
	damages := map[string]func(t *testing.T, path string){
		"delete": func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		},
		"bit-flip": func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x10
			writeFile(t, path, data)
		},
	}
	base := genPayload(81, 400<<10)
	series := map[string][][]byte{
		"unshared": {base},
		"shared":   {base, mutateRegion(base, 50<<10, 0.02, 82)},
	}
	for _, backend := range []BackendKind{BackendPosix, BackendObject} {
		for sname, payloads := range series {
			for dname, damage := range damages {
				t.Run(backend.String()+"/"+sname+"/"+dname, func(t *testing.T) {
					root := t.TempDir()
					opts := dedupOpts()
					opts.Backend, opts.Sleep, opts.Keep = backend, noSleep, -1
					r, err := OpenReplicated(root, ReplicaDirs(root, 3), 2, opts)
					if err != nil {
						t.Fatal(err)
					}
					defer r.Wait()
					for i, p := range payloads {
						if _, err := r.Commit(i+1, p); err != nil {
							t.Fatal(err)
						}
					}
					r.Wait()
					seq := uint64(len(payloads))
					st0, _ := r.Replica(0)
					before, _ := st0.b.ListChunks()
					// The newest generation's first chunk lies ahead of the
					// mutated region: where there is a neighbour, both hold it.
					st0.mu.Lock()
					victim := st0.dd.recipes[seq][0].Hash
					shared := st0.dd.idx.Refs(victim)
					st0.mu.Unlock()
					if shared != len(payloads) {
						t.Fatalf("damaged chunk has %d references, the case wants %d", shared, len(payloads))
					}
					damage(t, chunkFile(t, st0, victim.String()))
					if _, err := st0.ReadGeneration(seq); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("replica 0 reads its damaged copy: %v", err)
					}

					got, err := r.ReadGeneration(seq)
					if err != nil || !bytes.Equal(got, payloads[seq-1]) {
						t.Fatalf("replicated read: %v, equal=%v", err, bytes.Equal(got, payloads[seq-1]))
					}
					for i, p := range payloads {
						if got, err := st0.ReadGeneration(uint64(i + 1)); err != nil || !bytes.Equal(got, p) {
							t.Fatalf("replica 0 alone, gen %d after the inline repair: %v", i+1, err)
						}
					}
					fsckClean(t, st0, "replica 0 after the inline repair")
					if after, _ := st0.b.ListChunks(); !reflect.DeepEqual(after, before) {
						t.Fatalf("replica 0 holds %d chunk files after the repair, %d before the damage", len(after), len(before))
					}
				})
			}
		}
	}
}

// opsSince is a FaultFS journal from entry before on, less the op numbers
// and the store's directory.
func opsSince(ffs *FaultFS, before int, dir string) []string {
	var ops []string
	for _, line := range ffs.Journal()[before:] {
		_, desc, _ := strings.Cut(line, ": ")
		ops = append(ops, strings.ReplaceAll(desc, dir, "."))
	}
	return ops
}

// TestPutGenerationOpsMatchCommit: installing a generation on an empty store
// is, operation for operation, the commit that produced it — one body writes
// both.
func TestPutGenerationOpsMatchCommit(t *testing.T) {
	for _, backend := range []BackendKind{BackendPosix, BackendObject} {
		for _, tc := range journalPayloads() {
			t.Run(backend.String()+"/"+tc.name, func(t *testing.T) {
				run := func(do func(s *Store) Generation) ([]string, Generation) {
					dir := t.TempDir()
					ffs := NewFaultFS(OsFS{})
					opts := tc.opts
					opts.FS, opts.Backend = ffs, backend
					s := openTest(t, dir, opts)
					before := len(ffs.Journal())
					gen := do(s)
					if got, err := s.ReadGeneration(gen.Seq); err != nil || !bytes.Equal(got, tc.payload) {
						t.Fatalf("read back: %v", err)
					}
					return opsSince(ffs, before, dir), gen
				}
				commitOps, gen := run(func(s *Store) Generation {
					gen, err := s.Commit(7, tc.payload)
					if err != nil {
						t.Fatal(err)
					}
					return gen
				})
				putOps, _ := run(func(s *Store) Generation {
					if err := s.PutGeneration(gen, tc.payload); err != nil {
						t.Fatal(err)
					}
					return gen
				})
				if !reflect.DeepEqual(putOps, commitOps) {
					for i := 0; i < len(putOps) && i < len(commitOps); i++ {
						if putOps[i] != commitOps[i] {
							t.Fatalf("op %d: PutGeneration %q, commit %q", i+1, putOps[i], commitOps[i])
						}
					}
					t.Fatalf("PutGeneration made %d operations, the commit %d", len(putOps), len(commitOps))
				}
			})
		}
	}
}

// manifestFailFS refuses, while armed, to create a manifest image — a
// permanent error on a filesystem that lives on, so the caller's own cleanup
// runs, unlike after a FaultFS crash.
type manifestFailFS struct {
	OsFS
	armed atomic.Bool
}

var errManifestCreate = errors.New("manifest create refused")

func (f *manifestFailFS) Create(name string) (File, error) {
	if base := filepath.Base(name); f.armed.Load() &&
		(strings.HasPrefix(base, manifestName) || strings.HasPrefix(base, objManifestPrefix)) {
		return nil, errManifestCreate
	}
	return f.OsFS.Create(name)
}

// TestPutGenerationManifestFaultKeepsOldRecord: a repair over an indexed
// dedup record whose manifest write fails changes nothing a reader can see.
// The new generation's chunks are the old one's, so nothing the failed call
// releases or cleans up may touch them — with the chunk files intact, and
// with one the repair had to rewrite first.
func TestPutGenerationManifestFaultKeepsOldRecord(t *testing.T) {
	for _, backend := range []BackendKind{BackendPosix, BackendObject} {
		for _, damaged := range []bool{false, true} {
			name := backend.String() + "/chunks intact"
			if damaged {
				name = backend.String() + "/one chunk rewritten"
			}
			t.Run(name, func(t *testing.T) {
				ffs := &manifestFailFS{}
				opts := dedupOpts()
				opts.FS, opts.Backend = ffs, backend
				s := openTest(t, t.TempDir(), opts)
				payload := genPayload(91, 300<<10)
				gen, err := s.Commit(4, payload)
				if err != nil {
					t.Fatal(err)
				}
				before, _ := s.b.ListChunks()
				if damaged {
					if err := os.Remove(chunkFile(t, s, before[len(before)/2])); err != nil {
						t.Fatal(err)
					}
				}
				ffs.armed.Store(true)
				if err := s.PutGeneration(gen, payload); !errors.Is(err, errManifestCreate) {
					t.Fatalf("PutGeneration under a manifest fault: %v", err)
				}
				ffs.armed.Store(false)
				if rec, ok := s.Record(gen.Seq); !ok || rec != gen {
					t.Fatalf("record after the failed put: %+v (indexed %v), want %+v", rec, ok, gen)
				}
				if got, err := s.ReadGeneration(gen.Seq); err != nil || !bytes.Equal(got, payload) {
					t.Fatalf("old record after the failed put: %v", err)
				}
				fsckClean(t, s, "after the failed put")
				if after, _ := s.b.ListChunks(); !reflect.DeepEqual(after, before) {
					t.Fatalf("%d chunk files after the failed put, %d before", len(after), len(before))
				}
			})
		}
	}
}
