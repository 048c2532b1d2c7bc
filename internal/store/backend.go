// backend.go promotes the store's storage layer into a first-class
// Backend interface. A Backend owns the physical layout and the commit
// protocol of one store root; the Store above it owns the manifest
// codec, the retention ring, verification and scrubbing policy. Two
// implementations ship:
//
//   - posixBackend: the original directory layout. Payloads are staged
//     in temp files and published by rename (rename-as-commit), the
//     manifest follows the same temp+fsync+rename protocol, and corrupt
//     generations are renamed into a quarantine/ subdirectory. With the
//     default Options this backend reproduces the pre-Backend store
//     byte-for-byte, operation-for-operation.
//
//   - objectBackend: an object-store-style layout with flat keys and no
//     rename. Payload objects are written directly under their final
//     key; the commit point is a manifest-pointer swap: a versioned
//     manifest object is written, then a small CRC-protected pointer
//     record (CURRENT) is overwritten to name it. A torn pointer write
//     is caught by the pointer CRC and recovery falls back to the
//     newest decodable manifest object.
//
// Both backends route every mutating operation through the store's
// retry policy (capped, jittered exponential backoff for transient
// errors) and through the injectable FS, so FaultFS fault plans and the
// kill-at-every-write-boundary crash matrices apply to each.
package store

import (
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// BackendKind selects a storage backend implementation.
type BackendKind int

const (
	// BackendPosix is the directory backend: rename-as-commit, manifest
	// via temp+fsync+rename, quarantine/ subdirectory.
	BackendPosix BackendKind = iota
	// BackendObject is the object-store-style backend: flat keys, no
	// rename, commit via write-objects-then-manifest-pointer-swap.
	BackendObject
)

// String names the backend kind.
func (k BackendKind) String() string {
	switch k {
	case BackendPosix:
		return "posix"
	case BackendObject:
		return "object"
	}
	return fmt.Sprintf("backend_%d", int(k))
}

// ParseBackend inverts BackendKind.String.
func ParseBackend(s string) (BackendKind, error) {
	switch s {
	case "posix", "":
		return BackendPosix, nil
	case "object":
		return BackendObject, nil
	}
	return 0, fmt.Errorf("store: unknown backend %q (want posix or object)", s)
}

// PayloadWriter streams one generation payload into a backend. Write
// batches into bounded chunks with per-operation retry; Commit makes
// the payload durable and visible under its sequence number (rename for
// posix, durable PUT for object); Abort discards a partial payload.
// After Commit or Abort the writer is dead.
type PayloadWriter interface {
	io.Writer
	Commit() error
	Abort()
}

// Backend is the storage layer under a Store: physical layout plus the
// backend-appropriate atomic-commit protocol. Implementations are
// driven under the Store's mutex and need not be concurrency-safe
// themselves; they must route faults and retries through the FS and
// retrier they were built with.
type Backend interface {
	// Kind identifies the implementation.
	Kind() BackendKind
	// Init prepares the root (created if needed).
	Init() error
	// BeginPayload starts writing generation seq's payload.
	BeginPayload(seq uint64) (PayloadWriter, error)
	// ReadPayload appends generation seq's bytes to dst (see readFileFS).
	ReadPayload(seq uint64, dst []byte) ([]byte, error)
	// RemovePayload deletes generation seq's payload (best effort).
	RemovePayload(seq uint64) error
	// ListPayloads returns the committed-visible payload sequence
	// numbers, ascending.
	ListPayloads() ([]uint64, error)
	// ReadManifest returns the current manifest image, already resolved
	// through whatever indirection the backend uses (pointer records).
	ReadManifest() ([]byte, error)
	// WriteManifest atomically replaces the manifest image; this is the
	// commit point of every store mutation.
	WriteManifest(data []byte) error
	// Sweep removes commit litter (temp files, orphaned manifest
	// versions) and payloads not in indexed, returning how many entries
	// it removed.
	Sweep(indexed map[uint64]bool) int
	// Quarantine moves seq's payload out of the visible namespace
	// without destroying it, returning the destination relative to the
	// store root.
	Quarantine(seq uint64) (string, error)

	// Chunk operations back the content-addressed dedup layer. A chunk
	// is an immutable blob named by the lowercase hex of its content
	// hash; WriteChunk must be durable (the dedup commit protocol relies
	// on every referenced chunk being on stable storage before the
	// recipe commits) and idempotent (rewriting a name with identical
	// content is a no-op by construction, and rewriting a torn leftover
	// replaces it). Unreferenced chunks are garbage, not corruption: GC
	// collects them.
	WriteChunk(name string, data []byte) error
	// ReadChunk appends a chunk's bytes to dst (see readFileFS).
	ReadChunk(name string, dst []byte) ([]byte, error)
	// RemoveChunk deletes a chunk (best effort).
	RemoveChunk(name string) error
	// ListChunks returns the chunk names present, sorted.
	ListChunks() ([]string, error)
	// QuarantinedPayloads returns the raw payload images sitting in
	// quarantine, so GC can keep their chunks marked (a quarantined
	// recipe must stay salvageable).
	QuarantinedPayloads() ([][]byte, error)
}

// retrier is the store's retry policy, injected into backends so every
// mutating operation shares one backoff/jitter/fault model.
type retrier func(op string, fn func() error) error

// --- chunkedWriter ----------------------------------------------------------

// chunkedWriter is the shared low-level payload writer: it batches
// writes into commitChunk-sized retried operations against one open
// file and seals with the sync-before-close protocol. Both backends
// build their PayloadWriters on it. Only bytes that do not fill a block
// are staged in buf; a whole block goes to the file from where it lies.
type chunkedWriter struct {
	fs   FS
	rt   retrier
	f    File
	path string
	buf  []byte
	err  error
}

// newChunkedWriter opens path for writing through the retry policy.
func newChunkedWriter(fs FS, rt retrier, path string) (*chunkedWriter, error) {
	var f File
	if err := rt("create", func() (err error) {
		f, err = fs.Create(path)
		return err
	}); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", path, err)
	}
	return &chunkedWriter{fs: fs, rt: rt, f: f, path: path}, nil
}

// writeDurable creates path holding data, durably: the writes a
// chunkedWriter would make of it — commitChunk-sized blocks, then the rest —
// and the seal, with no staging of an image the caller already holds whole.
func writeDurable(fs FS, rt retrier, path string, data []byte) error {
	w, err := newChunkedWriter(fs, rt, path)
	if err != nil {
		return err
	}
	for len(data) > 0 {
		n := min(len(data), commitChunk)
		if err := w.writeBlock(data[:n]); err != nil {
			return err
		}
		data = data[n:]
	}
	return w.seal()
}

// Write implements io.Writer with commitChunk batching: the file sees the
// same write sizes in the same order however the bytes arrive.
func (w *chunkedWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	for rest := p; len(rest) > 0; {
		if len(w.buf) == 0 && len(rest) >= commitChunk {
			if err := w.writeBlock(rest[:commitChunk]); err != nil {
				return 0, err
			}
			rest = rest[commitChunk:]
			continue
		}
		take := min(commitChunk-len(w.buf), len(rest))
		w.buf = append(w.buf, rest[:take]...)
		rest = rest[take:]
		if len(w.buf) == commitChunk {
			if err := w.flush(); err != nil {
				return 0, err
			}
		}
	}
	return len(p), nil
}

// writeBlock is one write to the file through the retry policy.
func (w *chunkedWriter) writeBlock(block []byte) error {
	if err := w.rt("write", func() error {
		_, werr := w.f.Write(block)
		return werr
	}); err != nil {
		w.discard()
		w.err = fmt.Errorf("store: write %s: %w", w.path, err)
		return w.err
	}
	return nil
}

// flush writes the staged bytes, if any.
func (w *chunkedWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	err := w.writeBlock(w.buf)
	w.buf = w.buf[:0]
	return err
}

// seal flushes the tail, fsyncs and closes the file — the
// sync-before-close protocol every durable payload follows.
func (w *chunkedWriter) seal() error {
	if w.err != nil {
		return w.err
	}
	if err := w.flush(); err != nil {
		return err
	}
	if err := w.rt("sync", func() error { return w.f.Sync() }); err != nil {
		w.discard()
		w.err = fmt.Errorf("store: sync %s: %w", w.path, err)
		return w.err
	}
	if err := w.rt("close", func() error { return w.f.Close() }); err != nil {
		w.fs.Remove(w.path)
		w.err = fmt.Errorf("store: close %s: %w", w.path, err)
		return w.err
	}
	w.err = fmt.Errorf("store: writer for %s already sealed", w.path)
	return nil
}

// abort discards the file after a producer error; idempotent.
func (w *chunkedWriter) abort() {
	if w.err != nil {
		return // already failed and cleaned up
	}
	w.discard()
	w.err = fmt.Errorf("store: writer for %s aborted", w.path)
}

func (w *chunkedWriter) discard() {
	w.f.Close()
	w.fs.Remove(w.path)
}

// --- posixBackend -----------------------------------------------------------

// posixBackend is the original directory layout: gen-%08d.ckpt payload
// files published by rename, MANIFEST via temp+fsync+rename, corrupt
// generations renamed into quarantine/.
type posixBackend struct {
	dir string
	fs  FS
	rt  retrier
}

func newPosixBackend(dir string, fs FS, rt retrier) *posixBackend {
	return &posixBackend{dir: dir, fs: fs, rt: rt}
}

func (b *posixBackend) Kind() BackendKind { return BackendPosix }

func (b *posixBackend) Init() error {
	return b.rt("mkdir", func() error { return b.fs.MkdirAll(b.dir) })
}

func (b *posixBackend) genPath(seq uint64) string {
	return filepath.Join(b.dir, genName(seq))
}

// posixWriter stages the payload in a temp file and publishes it by
// rename + directory fsync on Commit.
type posixWriter struct {
	b          *posixBackend
	cw         *chunkedWriter
	tmp, final string
}

func (b *posixBackend) BeginPayload(seq uint64) (PayloadWriter, error) {
	final := b.genPath(seq)
	cw, err := newChunkedWriter(b.fs, b.rt, final+tmpSuffix)
	if err != nil {
		return nil, err
	}
	return &posixWriter{b: b, cw: cw, tmp: final + tmpSuffix, final: final}, nil
}

func (w *posixWriter) Write(p []byte) (int, error) { return w.cw.Write(p) }

func (w *posixWriter) Commit() error {
	if err := w.cw.seal(); err != nil {
		return err
	}
	if err := w.b.rt("rename", func() error { return w.b.fs.Rename(w.tmp, w.final) }); err != nil {
		w.b.fs.Remove(w.tmp)
		return fmt.Errorf("rename: %w", err)
	}
	if err := w.b.rt("syncdir", func() error { return w.b.fs.SyncDir(w.b.dir) }); err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	return nil
}

func (w *posixWriter) Abort() { w.cw.abort() }

func (b *posixBackend) ReadPayload(seq uint64, dst []byte) ([]byte, error) {
	return readFileFS(b.fs, b.genPath(seq), dst)
}

func (b *posixBackend) RemovePayload(seq uint64) error {
	return b.fs.Remove(b.genPath(seq))
}

func (b *posixBackend) ListPayloads() ([]uint64, error) {
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

func (b *posixBackend) ReadManifest() ([]byte, error) {
	return readFileFS(b.fs, filepath.Join(b.dir, manifestName), nil)
}

// WriteManifest persists the manifest image via temp+fsync+rename — the
// rename is the commit point of every posix store mutation.
func (b *posixBackend) WriteManifest(data []byte) error {
	path := filepath.Join(b.dir, manifestName)
	if err := writeDurable(b.fs, b.rt, path+tmpSuffix, data); err != nil {
		return err
	}
	if err := b.rt("rename", func() error { return b.fs.Rename(path+tmpSuffix, path) }); err != nil {
		b.fs.Remove(path + tmpSuffix)
		return err
	}
	return b.rt("syncdir", func() error { return b.fs.SyncDir(b.dir) })
}

// Sweep removes leftover temp files from interrupted commits and
// generation files no longer in the manifest (pruned but not removed,
// or renamed but never indexed because the crash hit before the
// manifest update).
func (b *posixBackend) Sweep(indexed map[uint64]bool) int {
	names, err := b.fs.ReadDir(b.dir)
	if err != nil {
		return 0
	}
	swept := 0
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			b.fs.Remove(filepath.Join(b.dir, name))
			swept++
			continue
		}
		if seq, ok := parseGenName(name); ok && !indexed[seq] {
			b.fs.Remove(filepath.Join(b.dir, name))
			swept++
		}
	}
	return swept
}

// Quarantine moves one generation file into quarantine/, never
// overwriting an earlier resident: collisions get a .1, .2, ... suffix.
// Returns the destination path relative to the store root.
func (b *posixBackend) Quarantine(seq uint64) (string, error) {
	qdir := filepath.Join(b.dir, QuarantineDir)
	if err := b.fs.MkdirAll(qdir); err != nil {
		return "", err
	}
	taken := make(map[string]bool)
	if names, err := b.fs.ReadDir(qdir); err == nil {
		for _, n := range names {
			taken[n] = true
		}
	}
	base := genName(seq)
	name := base
	for i := 1; taken[name]; i++ {
		name = fmt.Sprintf("%s.%d", base, i)
	}
	if err := b.fs.Rename(filepath.Join(b.dir, base), filepath.Join(qdir, name)); err != nil {
		return "", err
	}
	// Make the move durable: the file left one directory and entered
	// another.
	b.fs.SyncDir(qdir)
	b.fs.SyncDir(b.dir)
	return filepath.Join(QuarantineDir, name), nil
}

// CASDir is the subdirectory (under a posix store root) holding the
// content-addressed chunk files of the dedup layer. It is invisible to
// the root-directory sweep (ReadDir lists files only), so chunk
// lifetime is governed exclusively by the refcount ledger and GC.
const CASDir = "cas"

// chunkSuffix names posix chunk files: <hex-sha256>.chk under cas/.
const chunkSuffix = ".chk"

func (b *posixBackend) chunkPath(name string) string {
	return filepath.Join(b.dir, CASDir, name+chunkSuffix)
}

// WriteChunk stages the chunk in a temp file and publishes it by rename
// — the same rename-as-commit protocol payloads use, so a crash mid-
// write leaves a .tmp the next sweep collects, never a torn chunk under
// a valid name.
func (b *posixBackend) WriteChunk(name string, data []byte) error {
	cdir := filepath.Join(b.dir, CASDir)
	if err := b.rt("mkdir", func() error { return b.fs.MkdirAll(cdir) }); err != nil {
		return err
	}
	final := b.chunkPath(name)
	if err := writeDurable(b.fs, b.rt, final+tmpSuffix, data); err != nil {
		return err
	}
	if err := b.rt("rename", func() error { return b.fs.Rename(final+tmpSuffix, final) }); err != nil {
		b.fs.Remove(final + tmpSuffix)
		return fmt.Errorf("rename: %w", err)
	}
	return b.rt("syncdir", func() error { return b.fs.SyncDir(cdir) })
}

func (b *posixBackend) ReadChunk(name string, dst []byte) ([]byte, error) {
	return readFileFS(b.fs, b.chunkPath(name), dst)
}

func (b *posixBackend) RemoveChunk(name string) error {
	return b.fs.Remove(b.chunkPath(name))
}

func (b *posixBackend) ListChunks() ([]string, error) {
	names, err := b.fs.ReadDir(filepath.Join(b.dir, CASDir))
	if err != nil {
		return nil, nil // no cas/ directory: no chunks
	}
	var out []string
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			// Torn chunk write: litter, collect it here (the root sweep
			// never descends into cas/).
			b.fs.Remove(filepath.Join(b.dir, CASDir, name))
			continue
		}
		if strings.HasSuffix(name, chunkSuffix) {
			out = append(out, strings.TrimSuffix(name, chunkSuffix))
		}
	}
	sort.Strings(out)
	return out, nil
}

func (b *posixBackend) QuarantinedPayloads() ([][]byte, error) {
	qdir := filepath.Join(b.dir, QuarantineDir)
	names, err := b.fs.ReadDir(qdir)
	if err != nil {
		return nil, nil // no quarantine directory yet
	}
	var out [][]byte
	for _, name := range names {
		if data, rerr := readFileFS(b.fs, filepath.Join(qdir, name), nil); rerr == nil {
			out = append(out, data)
		}
	}
	return out, nil
}

// readFileFS appends one file, read through an FS, to dst. The bytes land in
// dst's spare capacity, which grows only when bytes arrive that do not fit; a
// caller that knows the size to expect passes a dst with exactly that room and
// the file is read in place, once, writing nothing past the room — so windows
// of one buffer side by side can be read into at the same time.
func readFileFS(fsys FS, path string, dst []byte) ([]byte, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return dst, err
	}
	defer f.Close()
	for {
		var n int
		if full := len(dst) == cap(dst); full && len(dst) > 0 {
			// The file may end here: a one-byte read into dst's own last byte,
			// put back after, tells without growing dst.
			last := len(dst) - 1
			kept := dst[last]
			n, err = f.Read(dst[last:])
			if dst[last], kept = kept, dst[last]; n > 0 {
				dst = append(dst, kept) // more than was expected: a copy of its own
			}
		} else {
			if full {
				dst = slices.Grow(dst, 512)
			}
			n, err = f.Read(dst[len(dst):cap(dst)])
			dst = dst[:len(dst)+n]
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}
