package store

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lossyckpt/internal/cas"
	"lossyckpt/internal/obs"
	"lossyckpt/internal/obs/journal"
)

// Errors returned by the store.
var (
	// ErrCorrupt indicates a generation file whose size or CRC does not
	// match the manifest record.
	ErrCorrupt = errors.New("store: generation corrupt")
	// ErrNoGeneration indicates the store holds no (matching) generation.
	ErrNoGeneration = errors.New("store: no generation available")
	// ErrSeqConflict indicates a coordinator-assigned or PutGeneration sequence
	// number the store cannot accept (already allocated or indexed).
	ErrSeqConflict = errors.New("store: sequence conflict")
)

const (
	manifestName = "MANIFEST"
	genPrefix    = "gen-"
	genSuffix    = ".ckpt"
	tmpSuffix    = ".tmp"
	// commitChunk is the write granularity of payload files: bounded
	// buffers, and real torn-write boundaries for the crash harness.
	commitChunk = 256 << 10
)

// Options configures a Store.
type Options struct {
	// Keep is the retention ring size: the last Keep generations survive,
	// older ones are pruned after each commit. 0 means 3; negative keeps
	// everything.
	Keep int
	// FS is the filesystem implementation; nil means OsFS.
	FS FS
	// Backend selects the storage layout and commit protocol (default
	// BackendPosix — the rename-as-commit directory backend).
	Backend BackendKind
	// Sleep is the backoff clock, injectable for tests; nil means a
	// context-aware sleep that wakes early when the operation's context
	// is cancelled (see retry.go). An injected Sleep is called as-is and
	// is not interruptible.
	Sleep func(time.Duration)
	// TTL, when positive, stamps every committed generation with an
	// expiry (commit time + TTL); the scrubber prunes expired
	// generations, except the newest one (a store never scrubs itself
	// down to zero restorable checkpoints). 0 disables TTL retention.
	TTL time.Duration
	// Now is the wall clock for TTL stamps and expiry checks, injectable
	// for tests; nil means time.Now.
	Now func() time.Time
	// Jitter is the backoff randomness source, returning values in
	// [0,1): each retry sleeps backoff/2 + jitter·backoff/2, so N
	// replicas retrying a shared fault spread out instead of thundering
	// in lockstep. nil means a process-wide seeded source; inject a
	// deterministic func for reproducible tests.
	Jitter func() float64
	// Dedup switches commits to the content-addressed path: payloads are
	// cut into content-defined chunks stored once under their SHA-256
	// name, and each generation becomes a small recipe of chunk
	// references (see dedup.go). Reads are dispatched per generation by
	// a manifest flag, so a store can hold a mix of dedup and plain
	// generations and Dedup can be toggled between opens. Off by
	// default; with it off the store's output is byte-identical to a
	// build without the dedup layer.
	Dedup bool
	// DedupChunk overrides the content-defined chunker bounds (zero
	// values mean the cas defaults: 64 KiB min / 256 KiB avg / 1 MiB
	// max). All replicas of one replicated store must agree on these
	// bounds or quorum voting over recipes breaks.
	DedupChunk cas.Config
}

func (o Options) withDefaults() Options {
	if o.Keep == 0 {
		o.Keep = 3
	}
	if o.FS == nil {
		o.FS = OsFS{}
	}
	if o.Jitter == nil {
		o.Jitter = defaultJitter
	}
	return o
}

// defaultJitter is the process-wide backoff randomness source, locked
// because replicas of one Replicated store retry concurrently.
var (
	jitterMu   sync.Mutex
	jitterRand = rand.New(rand.NewSource(time.Now().UnixNano()))
)

func defaultJitter() float64 {
	jitterMu.Lock()
	defer jitterMu.Unlock()
	return jitterRand.Float64()
}

// Store is a crash-safe multi-generation checkpoint store rooted at one
// directory (or object-store namespace — see Backend). A mutex
// serializes commits, reads and scrubs, so one Store may be shared by
// goroutines in a process (an interval scrubber runs alongside
// commits); it is still not safe for multiple processes — the
// durability guarantees are about crashes, not concurrent writers.
type Store struct {
	dir  string
	b    Backend
	opts Options

	mu  sync.Mutex // guards man, opCtx and all directory mutations
	man manifest
	// opCtx is the context of the operation currently holding mu (nil
	// outside ctx-aware entry points). The retry ladder reads it so a
	// cancelled request aborts between attempts instead of sleeping out
	// the full capped backoff.
	opCtx context.Context
	// rebuilt records that Open found no valid manifest and recovered
	// the generation index by scanning the directory.
	rebuilt bool
	// dd is the dedup layer's in-memory state (refcount ledger, recipe
	// bookkeeping); always present so a store opened without
	// Options.Dedup can still read and audit dedup generations.
	dd *dedupState
}

// Open opens (creating if needed) the store rooted at dir. A missing or
// corrupt manifest is rebuilt by scanning the generation files, and
// leftover temp files from interrupted commits are swept.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := opts.DedupChunk.Validate(); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{dir: dir, opts: opts, dd: newDedupState(opts.DedupChunk)}
	switch opts.Backend {
	case BackendObject:
		s.b = newObjectBackend(dir, opts.FS, s.retry)
	default:
		s.b = newPosixBackend(dir, opts.FS, s.retry)
	}
	if err := s.b.Init(); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}

	raw, err := s.b.ReadManifest()
	if err == nil {
		if gens, next, derr := DecodeManifest(raw); derr == nil {
			s.man = manifest{NextSeq: next, Gens: gens}
		} else {
			err = derr
		}
	}
	if err != nil {
		// Manifest missing, unreadable or corrupt: recover the index
		// from the generation files themselves.
		if rerr := s.rescan(0); rerr != nil {
			return nil, fmt.Errorf("store: open %s: rescan: %w", dir, rerr)
		}
		s.rebuilt = true
		obs.Default().Counter(MetricManifestRebuilds).Inc()
		journal.Note("store.manifest_rebuilt", "dir", dir, "generations", len(s.man.Gens))
	}
	s.sweep()
	s.loadDedupLocked()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Backend returns the storage backend kind this store runs on.
func (s *Store) Backend() BackendKind { return s.b.Kind() }

// Rebuilt reports whether Open had to reconstruct the manifest from a
// directory scan (i.e. the manifest was missing or corrupt).
func (s *Store) Rebuilt() bool { return s.rebuilt }

// Generations returns the retained generations, oldest first.
func (s *Store) Generations() []Generation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.generationsLocked()
}

func (s *Store) generationsLocked() []Generation {
	return append([]Generation(nil), s.man.Gens...)
}

// Latest returns the newest generation, if any.
func (s *Store) Latest() (Generation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.latest()
}

// NextSeq returns the next sequence number this store would allocate —
// the coordination input for replicated commits.
func (s *Store) NextSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextSeqLocked()
}

func (s *Store) nextSeqLocked() uint64 {
	if s.man.NextSeq == 0 {
		return 1 // sequence numbers are 1-based so "no generation" is unambiguous
	}
	return s.man.NextSeq
}

// genName returns the file name of a generation.
func genName(seq uint64) string {
	return fmt.Sprintf("%s%08d%s", genPrefix, seq, genSuffix)
}

// GenName returns the file name generation seq is stored under, relative
// to a store's root — the hook external tooling (faultsim's replica-loss
// injector, forensics) uses to address a generation payload directly.
func GenName(seq uint64) string { return genName(seq) }

// parseGenName inverts genName.
func parseGenName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, genPrefix) || !strings.HasSuffix(name, genSuffix) {
		return 0, false
	}
	mid := name[len(genPrefix) : len(name)-len(genSuffix)]
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil || mid == "" {
		return 0, false
	}
	return seq, true
}

// Commit atomically adds payload as the next generation: payload made
// durable through the backend's protocol (temp file → fsync → rename
// for posix; durable PUT for object) → manifest update (the commit
// point) → retention pruning. On any error the store's previous latest
// generation is still intact and indexed.
func (s *Store) Commit(step int, payload []byte) (gen Generation, err error) {
	return s.CommitCtx(context.Background(), step, payload)
}

// CommitCtx is Commit bound to a request context: cancellation aborts
// the commit between retry attempts and backoff sleeps. The previous
// latest generation stays indexed on abort. The payload is the parts in
// order, fed to the backend as they are, never joined.
func (s *Store) CommitCtx(ctx context.Context, step int, parts ...[]byte) (gen Generation, err error) {
	return s.commit(ctx, autoSeq, step, 0, partsLen(parts), feedParts(parts))
}

// autoSeq asks commit for the store's next sequence number and an expiry
// stamped now.
const autoSeq = ^uint64(0)

// commit is the one way into a commit body, behind every exported Commit*
// and the replicated coordinator: argument and context checks, the lock,
// the request context the retry loop observes, the sequence number (size
// labels the commit's operation; negative: not known up front). A coordinator
// passes the sequence number AND the expiry stamp, so a replicated commit
// records byte-identical metadata on every replica (an expiry computed per
// replica would break quorum record voting); a seq behind the store's own is
// ErrSeqConflict.
func (s *Store) commit(ctx context.Context, seq uint64, step int, expireAt int64, size int, feed func(io.Writer) error) (gen Generation, err error) {
	if step < 0 {
		return Generation{}, fmt.Errorf("store: negative step %d", step)
	}
	if seq == 0 {
		return Generation{}, fmt.Errorf("%w: sequence numbers are 1-based", ErrSeqConflict)
	}
	if err := ctx.Err(); err != nil {
		if seq == autoSeq {
			return Generation{}, fmt.Errorf("store: commit: %w", err)
		}
		return Generation{}, fmt.Errorf("store: commit gen %d: %w", seq, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.opCtx = ctx
	defer func() { s.opCtx = nil }()
	switch next := s.nextSeqLocked(); {
	case seq == autoSeq:
		seq, expireAt = next, s.opts.expireStamp()
	case seq < next:
		return Generation{}, fmt.Errorf("%w: commit at %d but store is at %d", ErrSeqConflict, seq, next)
	}
	return s.commitAtLocked(seq, step, expireAt, size, feed)
}

// feedParts is the producer of a payload held in memory: each part written
// once, in order.
func feedParts(parts [][]byte) func(io.Writer) error {
	return func(w io.Writer) error {
		for _, p := range parts {
			if _, err := w.Write(p); err != nil {
				return err
			}
		}
		return nil
	}
}

func partsLen(parts [][]byte) (n int) {
	for _, p := range parts {
		n += len(p)
	}
	return n
}

// countingWriter accumulates the size and CRC of everything written
// through it, so the manifest record is identical whether the payload
// was buffered or streamed.
type countingWriter struct {
	w   io.Writer
	n   uint64
	crc uint32
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	if n > 0 {
		c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
		c.n += uint64(n)
	}
	return n, err
}

// ctxFailWriter fails writes once ctx is dead, so a cancelled commit
// aborts at the next chunk boundary instead of streaming on.
type ctxFailWriter struct {
	ctx context.Context
	w   io.Writer
}

func (c ctxFailWriter) Write(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.w.Write(p)
}

// commitAtLocked is a commit behind the prologue: materialise the payload
// under seq, index it — the commit point, retention ring applied — and
// account for it. The caller holds s.mu and has validated seq.
func (s *Store) commitAtLocked(seq uint64, step int, expireAt int64, size int, feed func(io.Writer) error) (gen Generation, err error) {
	// One operation per commit, with a progress breadcrumb at each
	// durability milestone so a kill leaves the stage reached and bytes
	// committed on record.
	var handed any = "streamed"
	if size >= 0 {
		handed = size
	}
	jop := journal.Begin("store.commit", "dir", s.dir, "backend", s.b.Kind().String(), "bytes", handed)
	jop.SetSeq(seq)
	jop.SetStep(step)
	defer func() { jop.End(err) }()
	mat, err := s.materializeLocked(seq, s.opts.Dedup, false, feed, jop)
	if err != nil {
		return Generation{}, fmt.Errorf("store: commit gen %d: %w", seq, err)
	}
	gen = Generation{Seq: seq, Step: uint64(step), Size: mat.size, CRC: mat.crc, ExpireAt: expireAt}
	if mat.dw != nil {
		gen.Flags = GenFlagDedup
	}
	if err := s.indexLocked(gen, mat, true); err != nil {
		return Generation{}, fmt.Errorf("store: commit gen %d: manifest: %w", seq, err)
	}
	physical := mat.objectBytes
	if dw := mat.dw; dw != nil {
		physical += dw.newBytes
		if o := obs.Default(); o != nil {
			o.Counter(MetricDedupChunksNew).Add(float64(len(dw.newChunks)))
			o.Counter(MetricDedupChunksReused).Add(float64(dw.reused))
			o.Counter(MetricDedupLogicalBytes).Add(float64(mat.size))
			o.Counter(MetricDedupPhysicalBytes).Add(float64(physical))
			if mat.size > 0 {
				o.Gauge(MetricDedupRatio).Set(float64(mat.size) / float64(physical))
			}
		}
		jop.Set("dedup", "true", "chunks_new", len(dw.newChunks), "chunks_reused", dw.reused)
	}
	jop.SetBytes(int64(mat.size), physical)
	obs.Default().Counter(MetricCommitBytes).Add(float64(gen.Size))
	return gen, nil
}

// materialized is a generation made durable but not yet indexed: size and CRC
// of the logical payload, the size of the payload object that holds it (the
// payload itself, or its recipe) and, for a dedup generation, the writer that
// cut it, with the recipe's references and the chunks written for them.
type materialized struct {
	size        uint64
	crc         uint32
	objectBytes int64
	dw          *dedupWriter
}

// materializeLocked is the one body that turns a payload into a durable
// generation under seq, for every commit and every repair. Plain, feed streams
// into the backend's PayloadWriter and Commit publishes it. Dedup puts a
// dedupWriter in front: the stream is cut, the chunks the ledger does not hold
// are written, and the recipe is then the payload the same writer publishes —
// every chunk durable before its recipe, the recipe before the manifest write
// that follows in indexLocked. A repair is that body with a dedupWriter that
// does not take the ledger's word for a chunk (dedupWriter.repair). A failure
// leaves only litter the next sweep takes: the partial payload object is
// aborted, the chunks written are removed.
func (s *Store) materializeLocked(seq uint64, dedup, repair bool, feed func(io.Writer) error, jop *journal.Op) (mat materialized, err error) {
	// A ctx-bound commit refuses further payload bytes — and the
	// durability flush below — once its context dies: the abort path
	// still runs (cleanup ops ignore the dead request context), so a
	// cancelled commit removes its partial payload instead of littering.
	ctx := s.retryCtx()
	guarded := func(cw *countingWriter) io.Writer {
		if ctx.Done() != nil {
			return ctxFailWriter{ctx: ctx, w: cw}
		}
		return cw
	}
	what, durable := "stream", "payload_durable"
	if dedup {
		dw := &dedupWriter{s: s, repair: repair, staged: make(map[cas.Hash]bool), inFlight: make(chan struct{}, batchesInFlight)}
		if dw.chunker, err = cas.NewChunker(s.dd.cfg, dw.emit); err != nil {
			return mat, err
		}
		mat.dw = dw
		defer func() {
			if err != nil {
				s.abortLocked(dw)
			}
		}()
		cw := &countingWriter{w: dw}
		if err = feed(guarded(cw)); err == nil {
			err = dw.finish()
		}
		if err != nil {
			return mat, fmt.Errorf("stream: %w", err)
		}
		if err = ctx.Err(); err != nil {
			return mat, err
		}
		jop.Progress("chunks_durable", dw.newBytes)
		mat.size, mat.crc = cw.n, cw.crc
		raw := (&cas.Recipe{Size: cw.n, CRC: cw.crc, Chunks: dw.refs}).Encode()
		what, durable, feed = "recipe", "recipe_durable", feedParts([][]byte{raw})
	}
	pw, err := s.b.BeginPayload(seq)
	if err != nil {
		return mat, err
	}
	cw := &countingWriter{w: pw}
	if err = feed(guarded(cw)); err != nil {
		pw.Abort()
		return mat, fmt.Errorf("%s: %w", what, err)
	}
	if err = ctx.Err(); err != nil {
		pw.Abort()
		return mat, err
	}
	mat.objectBytes = int64(cw.n)
	if !dedup {
		mat.size, mat.crc = cw.n, cw.crc
		jop.Progress("payload_streamed", mat.objectBytes)
	}
	if err = pw.Commit(); err != nil {
		return mat, err
	}
	jop.Progress(durable, mat.objectBytes)
	return mat, nil
}

// indexLocked names a materialised generation in the manifest — the commit
// point: before the write the store indexes what it did, after it gen is what
// its sequence number reads. The record replaces one of the same sequence
// number (a repair; the caller is authoritative) or goes in in order, ring
// applies Keep, NextSeq only moves forward. Only after the write, and in this
// order, the new generation's chunk references are booked and what it
// displaced is released: the references of the record it replaced, payload and
// references of the generations off the ring. Book before release: a chunk
// the new generation shares with a displaced one would otherwise reach zero
// and be deleted under the generation just indexed. A failed write removes
// the chunks mat's commit wrote and changes nothing else.
func (s *Store) indexLocked(gen Generation, mat materialized, ring bool) error {
	gens := s.generationsLocked()
	i := sort.Search(len(gens), func(i int) bool { return gens[i].Seq >= gen.Seq })
	var replaced []cas.Ref
	if i < len(gens) && gens[i].Seq == gen.Seq {
		gens[i], replaced = gen, s.dd.recipes[gen.Seq]
	} else {
		gens = slices.Insert(gens, i, gen)
	}
	var dropped []Generation
	if cut := len(gens) - s.opts.Keep; ring && s.opts.Keep > 0 && cut > 0 {
		dropped, gens = gens[:cut], gens[cut:]
	}
	if err := s.adoptLocked(manifest{NextSeq: max(s.man.NextSeq, gen.Seq+1), Gens: gens}); err != nil {
		s.abortLocked(mat.dw)
		return err
	}
	s.detachRecipeLocked(gen.Seq)
	if dw := mat.dw; dw != nil {
		s.dd.idx.Add(dw.refs)
		s.dd.recipes[gen.Seq] = dw.refs
		s.dd.recipeBytes[gen.Seq] = mat.objectBytes
	}
	s.releaseRefsLocked(replaced)
	// Prune outside the ring, best effort: a leftover file is garbage,
	// not corruption, and the next Open sweeps unindexed generations too.
	for _, g := range dropped {
		s.releaseGenLocked(g)
	}
	if o := obs.Default(); o != nil && len(dropped) > 0 {
		o.Counter(MetricPrunedGens).Add(float64(len(dropped)))
	}
	return nil
}

// adoptLocked is the one manifest write: m persisted through the backend's
// atomic protocol and, only then, the index the store answers from.
func (s *Store) adoptLocked(m manifest) error {
	if err := s.b.WriteManifest(m.encode()); err != nil {
		return err
	}
	s.man = m
	return nil
}

// now resolves the wall clock.
func (o Options) now() time.Time {
	if o.Now != nil {
		return o.Now()
	}
	return time.Now()
}

// expireStamp returns the expiry second for a generation committed now
// (0 when TTL retention is off).
func (o Options) expireStamp() int64 {
	if o.TTL <= 0 {
		return 0
	}
	return o.now().Add(o.TTL).Unix()
}

// PutGeneration installs an externally known generation record plus its
// payload — the read-repair primitive: a replica that missed or
// corrupted gen receives the quorum-agreed copy. The payload must match
// the record's size and CRC. An existing record for the same sequence
// number is replaced (the caller is authoritative); NextSeq only ever
// moves forward. It is a commit's materialise → index with the record given:
// a record flagged dedup is re-chunked from the logical payload — chunking is
// deterministic, so the repaired replica converges on the recipe and chunk
// set of its peers — by a dedupWriter in repair mode, because a repair runs
// precisely when some chunk the ledger counts is missing or damaged on disk.
func (s *Store) PutGeneration(gen Generation, payload []byte) error {
	if uint64(len(payload)) != gen.Size || crc32.ChecksumIEEE(payload) != gen.CRC {
		return fmt.Errorf("%w: put gen %d: payload does not match record", ErrCorrupt, gen.Seq)
	}
	if gen.Seq == 0 {
		return fmt.Errorf("%w: put gen 0", ErrSeqConflict)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	mat, err := s.materializeLocked(gen.Seq, gen.Dedup(), true, feedParts([][]byte{payload}), nil)
	if err != nil {
		return fmt.Errorf("store: put gen %d: %w", gen.Seq, err)
	}
	if err := s.indexLocked(gen, mat, false); err != nil {
		return fmt.Errorf("store: put gen %d: manifest: %w", gen.Seq, err)
	}
	return nil
}

// Drop removes a generation's payload and manifest record — retention
// cleanup for replicas holding generations their peers have pruned.
// Unlike Quarantine it destroys the payload; use it only for
// generations the caller knows are obsolete.
func (s *Store) Drop(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, gen, ok := s.man.without(seq)
	if !ok {
		return fmt.Errorf("%w: generation %d", ErrNoGeneration, seq)
	}
	if err := s.adoptLocked(m); err != nil {
		return fmt.Errorf("store: drop gen %d: manifest: %w", seq, err)
	}
	s.releaseGenLocked(gen)
	return nil
}

// ReadGeneration returns the payload of generation seq after verifying
// its size and CRC against the manifest; a mismatch returns ErrCorrupt.
func (s *Store) ReadGeneration(seq uint64) ([]byte, error) {
	data, ok, err := s.ReadGenerationRaw(seq)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: generation %d fails size/CRC verification", ErrCorrupt, seq)
	}
	return data, nil
}

// ReadGenerationRaw returns generation seq's bytes plus whether they
// verify against the manifest record. Torn tails come back with
// verified=false so frame-level partial recovery can still mine them.
func (s *Store) ReadGenerationRaw(seq uint64) (data []byte, verified bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var gen *Generation
	for i := range s.man.Gens {
		if s.man.Gens[i].Seq == seq {
			gen = &s.man.Gens[i]
			break
		}
	}
	if gen == nil {
		return nil, false, fmt.Errorf("%w: generation %d", ErrNoGeneration, seq)
	}
	if gen.Dedup() {
		data, verified, err = s.readDedupLocked(*gen)
		if err != nil {
			return nil, false, err
		}
	} else {
		// The manifest says how long the file should be: read it in place,
		// trusting the figure for no more than a first allocation of bounded
		// size.
		data, err = s.b.ReadPayload(seq, make([]byte, 0, min(gen.Size, 64<<20)))
		if err != nil {
			return nil, false, fmt.Errorf("store: read gen %d: %w", seq, err)
		}
		verified = uint64(len(data)) == gen.Size && crc32.ChecksumIEEE(data) == gen.CRC
	}
	obs.Default().Counter(MetricReads, "verified", strconv.FormatBool(verified)).Inc()
	if !verified {
		journal.Note("store.read_unverified", "seq", seq, "bytes", len(data))
	}
	return data, verified, nil
}

// Record returns the manifest record for generation seq, if indexed.
func (s *Store) Record(seq uint64) (Generation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, g := range s.man.Gens {
		if g.Seq == seq {
			return g, true
		}
	}
	return Generation{}, false
}

// rescan rebuilds the manifest by scanning generation files: the
// recovery path for a lost or corrupt manifest. Sizes and CRCs are
// recomputed from the files, so a torn generation tail records as-is
// and later fails ReadGeneration verification only if it was also
// indexed before — after a rescan the files are the source of truth.
// NextSeq never drops below minNext, so a rebuild triggered after the
// newest generation left the directory (quarantine) cannot reuse its
// sequence number against a file still sitting in quarantine/.
func (s *Store) rescan(minNext uint64) error {
	seqs, err := s.b.ListPayloads()
	if err != nil {
		return err
	}
	prior := make(map[uint64]Generation, len(s.man.Gens))
	for _, g := range s.man.Gens {
		prior[g.Seq] = g
	}
	var gens []Generation
	var maxSeq uint64
	for _, seq := range seqs {
		data, err := s.b.ReadPayload(seq, nil)
		if err != nil {
			continue // unreadable generation: skip, don't fail recovery
		}
		g := Generation{
			Seq:  seq,
			Size: uint64(len(data)),
			CRC:  crc32.ChecksumIEEE(data),
		}
		// A payload that decodes as a chunk recipe is a dedup generation:
		// record the LOGICAL size/CRC from the recipe header and restore
		// the flag, so the rebuilt manifest keeps the read path
		// dispatching correctly. (Recipes carry a magic plus a trailing
		// CRC, so a plain payload cannot masquerade as one.)
		if rec, derr := cas.DecodeRecipe(data); derr == nil {
			g.Size = rec.Size
			g.CRC = rec.CRC
			g.Flags = GenFlagDedup
		}
		// The payload bytes carry no step number or expiry; when the old
		// index still matches the file, keep both instead of zeroing
		// them. A generation whose stamp is lost becomes immortal — the
		// fail-safe direction: recovery never invents a reason to delete.
		if p, ok := prior[seq]; ok && p.Size == g.Size && p.CRC == g.CRC {
			g.Step = p.Step
			g.ExpireAt = p.ExpireAt
		}
		gens = append(gens, g)
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].Seq < gens[j].Seq })
	next := maxSeq + 1
	if next < minNext {
		next = minNext
	}
	// Persisting the recovered index is best effort: the files are the truth
	// either way, and the next Open just rescans again.
	if m := (manifest{NextSeq: next, Gens: gens}); s.adoptLocked(m) != nil {
		s.man = m
	}
	return nil
}

// sweep removes commit litter through the backend (temp files, orphan
// manifest versions, payloads no longer indexed).
func (s *Store) sweep() {
	indexed := make(map[uint64]bool, len(s.man.Gens))
	for _, g := range s.man.Gens {
		indexed[g.Seq] = true
	}
	swept := s.b.Sweep(indexed)
	if swept > 0 {
		obs.Default().Counter(MetricSweptFiles).Add(float64(swept))
		journal.Note("store.sweep", "dir", s.dir, "removed", swept)
	}
}
