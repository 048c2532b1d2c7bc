package store

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	objManifestPrefix = "manifest-"
	objManifestSuffix = ".mf"
	// objQuarantinePrefix keeps the namespace flat: quarantined payloads
	// are copied under this key prefix and the original key deleted (an
	// object store has no rename, so quarantine is copy-then-delete).
	objQuarantinePrefix = "quarantine."
)

// objectBackend is the object-store-style layout: every payload lives
// directly under its final flat key (no temp files, no rename — an
// interrupted PUT leaves an unindexed object the next Sweep collects),
// the manifest is a chain of immutable versioned objects, and the
// commit point is the CRC-protected pointer-record swap described in
// pointer.go. Locally the "object store" is a directory of flat keys;
// in a real deployment the FS implementation would wrap a remote API.
type objectBackend struct {
	dir string
	fs  FS
	rt  retrier
	// ver is the version of the live manifest object, maintained across
	// WriteManifest calls and recovered by Init/ReadManifest scans.
	ver uint64
}

func newObjectBackend(dir string, fs FS, rt retrier) *objectBackend {
	return &objectBackend{dir: dir, fs: fs, rt: rt}
}

func (b *objectBackend) Kind() BackendKind { return BackendObject }

func (b *objectBackend) key(name string) string { return filepath.Join(b.dir, name) }

func manifestKey(v uint64) string {
	return fmt.Sprintf("%s%08d%s", objManifestPrefix, v, objManifestSuffix)
}

// parseManifestKey inverts manifestKey.
func parseManifestKey(name string) (uint64, bool) {
	if !strings.HasPrefix(name, objManifestPrefix) || !strings.HasSuffix(name, objManifestSuffix) {
		return 0, false
	}
	mid := name[len(objManifestPrefix) : len(name)-len(objManifestSuffix)]
	v, err := strconv.ParseUint(mid, 10, 64)
	if err != nil || mid == "" {
		return 0, false
	}
	return v, true
}

func (b *objectBackend) Init() error {
	if err := b.rt("mkdir", func() error { return b.fs.MkdirAll(b.dir) }); err != nil {
		return err
	}
	// Recover the manifest version counter from the keys present, so a
	// reopened store never reuses a version number.
	if names, err := b.fs.ReadDir(b.dir); err == nil {
		for _, name := range names {
			if v, ok := parseManifestKey(name); ok && v > b.ver {
				b.ver = v
			}
		}
	}
	return nil
}

// objectWriter writes the payload straight to its final key; Commit is
// the durable PUT (flush + fsync + close). Visibility is governed by
// the manifest pointer alone: a torn or unreferenced object is garbage,
// not corruption.
type objectWriter struct{ cw *chunkedWriter }

func (b *objectBackend) BeginPayload(seq uint64) (PayloadWriter, error) {
	cw, err := newChunkedWriter(b.fs, b.rt, b.key(genName(seq)))
	if err != nil {
		return nil, err
	}
	return &objectWriter{cw: cw}, nil
}

func (w *objectWriter) Write(p []byte) (int, error) { return w.cw.Write(p) }
func (w *objectWriter) Commit() error               { return w.cw.seal() }
func (w *objectWriter) Abort()                      { w.cw.abort() }

func (b *objectBackend) ReadPayload(seq uint64, dst []byte) ([]byte, error) {
	return readFileFS(b.fs, b.key(genName(seq)), dst)
}

func (b *objectBackend) RemovePayload(seq uint64) error {
	return b.fs.Remove(b.key(genName(seq)))
}

func (b *objectBackend) ListPayloads() ([]uint64, error) {
	names, err := b.fs.ReadDir(b.dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, name := range names {
		if seq, ok := parseGenName(name); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// ReadManifest resolves the pointer record to the live manifest object.
// A missing, torn or stale pointer falls back to scanning the versioned
// manifest objects newest-first for the first image that decodes — so a
// crash anywhere in the pointer swap still recovers either the old or
// the new index, never a torn mix.
func (b *objectBackend) ReadManifest() ([]byte, error) {
	if praw, err := readFileFS(b.fs, b.key(pointerName), nil); err == nil {
		if v, perr := DecodePointer(praw); perr == nil {
			if mraw, rerr := readFileFS(b.fs, b.key(manifestKey(v)), nil); rerr == nil {
				if _, _, derr := DecodeManifest(mraw); derr == nil {
					if v > b.ver {
						b.ver = v
					}
					return mraw, nil
				}
			}
		}
	}
	// Pointer unusable: scan manifest objects, newest version first.
	names, err := b.fs.ReadDir(b.dir)
	if err != nil {
		return nil, err
	}
	var vers []uint64
	for _, name := range names {
		if v, ok := parseManifestKey(name); ok {
			vers = append(vers, v)
		}
	}
	sort.Slice(vers, func(i, j int) bool { return vers[i] > vers[j] })
	for _, v := range vers {
		mraw, rerr := readFileFS(b.fs, b.key(manifestKey(v)), nil)
		if rerr != nil {
			continue
		}
		if _, _, derr := DecodeManifest(mraw); derr != nil {
			continue
		}
		if v > b.ver {
			b.ver = v
		}
		return mraw, nil
	}
	return nil, fmt.Errorf("store: %s: no readable manifest object", b.dir)
}

// WriteManifest is the object backend's commit protocol: write the new
// immutable manifest object, then swap the pointer record to name it.
// A crash before the pointer write leaves the old pointer (old state);
// a torn pointer write fails the pointer CRC and recovery adopts the
// newest decodable manifest object (new state). Either way the store
// reopens to a consistent index. The previous manifest object is kept
// as a recovery fallback; older ones are garbage-collected.
func (b *objectBackend) WriteManifest(data []byte) error {
	v := b.ver + 1
	if err := writeDurable(b.fs, b.rt, b.key(manifestKey(v)), data); err != nil {
		return err
	}
	if err := writeDurable(b.fs, b.rt, b.key(pointerName), EncodePointer(v)); err != nil {
		return err
	}
	prev := b.ver
	b.ver = v
	// Garbage-collect manifest objects older than the kept fallback,
	// best effort: a leftover is litter, not corruption.
	if names, err := b.fs.ReadDir(b.dir); err == nil {
		for _, name := range names {
			if ov, ok := parseManifestKey(name); ok && ov < prev {
				b.fs.Remove(b.key(name))
			}
		}
	}
	return nil
}

// Sweep removes payload objects the manifest does not index (torn or
// never-committed PUTs) and manifest objects that are neither the live
// version nor its kept predecessor — including versions newer than the
// pointer, which are uncommitted images from a crash between the
// manifest-object write and the pointer swap.
func (b *objectBackend) Sweep(indexed map[uint64]bool) int {
	names, err := b.fs.ReadDir(b.dir)
	if err != nil {
		return 0
	}
	swept := 0
	for _, name := range names {
		if seq, ok := parseGenName(name); ok && !indexed[seq] {
			b.fs.Remove(b.key(name))
			swept++
			continue
		}
		if v, ok := parseManifestKey(name); ok && (v+1 < b.ver || v > b.ver) {
			b.fs.Remove(b.key(name))
			swept++
		}
	}
	return swept
}

// objChunkPrefix keys chunk objects in the flat namespace; Sweep's name
// parsers never match it, so chunk lifetime is governed exclusively by
// the refcount ledger and GC.
const objChunkPrefix = "chunk-"

// WriteChunk writes the chunk straight to its final key with a durable
// PUT, like payload objects: a torn PUT leaves garbage under a name no
// committed recipe references (the recipe always commits after its
// chunks), and a later writer of the same name truncates it away.
func (b *objectBackend) WriteChunk(name string, data []byte) error {
	return writeDurable(b.fs, b.rt, b.key(objChunkPrefix+name), data)
}

func (b *objectBackend) ReadChunk(name string, dst []byte) ([]byte, error) {
	return readFileFS(b.fs, b.key(objChunkPrefix+name), dst)
}

func (b *objectBackend) RemoveChunk(name string) error {
	return b.fs.Remove(b.key(objChunkPrefix + name))
}

func (b *objectBackend) ListChunks() ([]string, error) {
	names, err := b.fs.ReadDir(b.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, name := range names {
		if strings.HasPrefix(name, objChunkPrefix) {
			out = append(out, strings.TrimPrefix(name, objChunkPrefix))
		}
	}
	sort.Strings(out)
	return out, nil
}

func (b *objectBackend) QuarantinedPayloads() ([][]byte, error) {
	names, err := b.fs.ReadDir(b.dir)
	if err != nil {
		return nil, nil
	}
	var out [][]byte
	for _, name := range names {
		if !strings.HasPrefix(name, objQuarantinePrefix) {
			continue
		}
		if data, rerr := readFileFS(b.fs, b.key(name), nil); rerr == nil {
			out = append(out, data)
		}
	}
	return out, nil
}

// Quarantine copies the payload under a quarantine.-prefixed key and
// deletes the original — the flat-namespace equivalent of the posix
// backend's quarantine/ rename, with the same never-overwrite suffixing.
func (b *objectBackend) Quarantine(seq uint64) (string, error) {
	data, err := b.ReadPayload(seq, nil)
	if err != nil {
		return "", err
	}
	taken := make(map[string]bool)
	if names, err := b.fs.ReadDir(b.dir); err == nil {
		for _, n := range names {
			taken[n] = true
		}
	}
	base := objQuarantinePrefix + genName(seq)
	name := base
	for i := 1; taken[name]; i++ {
		name = fmt.Sprintf("%s.%d", base, i)
	}
	if err := writeDurable(b.fs, b.rt, b.key(name), data); err != nil {
		return "", err
	}
	if err := b.fs.Remove(b.key(genName(seq))); err != nil {
		return "", err
	}
	return name, nil
}
