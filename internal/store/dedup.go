// dedup.go is the store half of the content-addressed dedup layer.
// With Options.Dedup on, a commit no longer stores the logical payload:
// materializeLocked (store.go) — the one body every commit and every repair
// runs — puts a dedupWriter in front of the payload writer, so the byte
// stream is cut into content-defined chunks (internal/cas),
// each chunk is written at most once under its SHA-256 name through the
// backend's durable-write protocol, and the generation's payload object
// becomes a small recipe listing the chunk references. The manifest
// record keeps describing the LOGICAL bytes (size and CRC of what
// ReadGeneration returns), so replication quorum voting, read-repair
// and restore fallback are dedup-agnostic; a GenFlagDedup bit tells the
// read path to resolve the recipe.
//
// Crash consistency is inherited, not re-invented: every chunk is
// durable before the recipe commits, the recipe is durable before the
// manifest commits, and the manifest update remains the single commit
// point; indexLocked books a generation's references before it releases
// those of whatever the generation displaced. A crash anywhere leaves at worst unreferenced chunks and an
// unindexed recipe — garbage, never corruption — collected by the next
// Open (orphan-chunk sweep) or GC pass.
//
// A commit cuts, hashes and writes as a pipeline (dedupWriter): the chunker
// emits views of the bytes being written, the committing goroutine collects
// them in batches of hashBatchBytes and cuts on, and each batch's goroutine
// SHA-256s it, waits for the batch before it, then lands it — the ledger
// lookup and WriteChunk, with its fsyncs. Batches land strictly in stream
// order, one at a time, and every view has landed before the Write that lent
// it returns; the recipe and the manifest follow on the committing goroutine.
// So every backend operation keeps its order, and a fault plan counts the
// operations it always counted.
//
// Reference counts live in an in-memory ledger (cas.Index) rebuilt at
// Open from the recipes of indexed and quarantined generations, kept
// current across commits and prunes, and reconstructed from scratch by
// the mark-and-sweep GC that runs with every Scrub — so a counter can
// never drift from the durable truth for longer than one GC cycle.
package store

import (
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"lossyckpt/internal/cas"
	"lossyckpt/internal/obs"
	"lossyckpt/internal/obs/journal"
)

// dedupState is the in-memory side of the chunk store: the refcount
// ledger plus the per-generation recipe bookkeeping that lets prune and
// Drop release references without re-reading recipes from disk.
type dedupState struct {
	cfg cas.Config
	idx *cas.Index
	// recipes maps indexed generation seq → its chunk references.
	// Quarantined recipes leave this map but keep their index references
	// until a GC pass recomputes marks (their chunks must stay
	// salvageable).
	recipes map[uint64][]cas.Ref
	// recipeBytes tracks the physical size of each indexed recipe object
	// for PhysicalBytes accounting.
	recipeBytes map[uint64]int64
}

func newDedupState(cfg cas.Config) *dedupState {
	return &dedupState{
		cfg:         cfg,
		idx:         cas.NewIndex(),
		recipes:     make(map[uint64][]cas.Ref),
		recipeBytes: make(map[uint64]int64),
	}
}

// markLocked is the mark phase Open, GC and fsck share: a fresh ledger and
// recipe bookkeeping computed from durable state alone — the recipe of every
// indexed dedup generation, plus the references of whatever in quarantine
// parses as a recipe (counted in quarantined; a quarantined recipe must stay
// salvageable). What an indexed recipe that cannot be read or decoded means
// is the caller's policy: unreadable gets each one, and a non-nil return
// stops the walk.
func (s *Store) markLocked(unreadable func(Generation, error) error) (dd *dedupState, quarantined int, err error) {
	dd = newDedupState(s.dd.cfg)
	for _, g := range s.man.Gens {
		if !g.Dedup() {
			continue
		}
		raw, rerr := s.b.ReadPayload(g.Seq, nil)
		var rec *cas.Recipe
		if rerr == nil {
			rec, rerr = cas.DecodeRecipe(raw)
		}
		if rerr != nil {
			if err := unreadable(g, rerr); err != nil {
				return dd, quarantined, err
			}
			continue
		}
		dd.idx.Add(rec.Chunks)
		dd.recipes[g.Seq] = rec.Chunks
		dd.recipeBytes[g.Seq] = int64(len(raw))
	}
	if qs, qerr := s.b.QuarantinedPayloads(); qerr == nil {
		for _, raw := range qs {
			if rec, derr := cas.DecodeRecipe(raw); derr == nil {
				dd.idx.Add(rec.Chunks)
				quarantined++
			}
		}
	}
	return dd, quarantined, nil
}

// sweepChunksLocked removes the chunk files among names that idx does not
// hold, and returns how many.
func (s *Store) sweepChunksLocked(names []string, idx *cas.Index) (swept int) {
	for _, name := range names {
		if h, perr := cas.ParseHash(name); perr == nil && idx.Has(h) {
			continue
		}
		s.b.RemoveChunk(name)
		swept++
	}
	return swept
}

// loadDedupLocked rebuilds the refcount ledger at Open, then sweeps orphan
// chunks (crash leftovers) — the open half of the "no chunk leaks beyond one
// GC cycle" guarantee. Unreadable indexed recipes disable the orphan sweep
// for this open (fail-safe: never sweep a chunk whose liveness is unknown);
// the scrubber will quarantine the recipe and the next GC converges.
func (s *Store) loadDedupLocked() {
	chunkNames, _ := s.b.ListChunks()
	if !s.opts.Dedup && len(chunkNames) == 0 && !slices.ContainsFunc(s.man.Gens, Generation.Dedup) {
		return
	}
	safeToSweep := true
	s.dd, _, _ = s.markLocked(func(Generation, error) error {
		safeToSweep = false
		return nil
	})
	if !safeToSweep {
		return
	}
	swept := s.sweepChunksLocked(chunkNames, s.dd.idx)
	if swept > 0 {
		obs.Default().Counter(MetricGCSweptChunks).Add(float64(swept))
		journal.Note("store.dedup_open_sweep", "dir", s.dir, "swept", swept)
	}
}

// hashBatchBytes is how many chunk bytes the cutter collects before it hands
// them to a goroutine of their own. The size is what makes the hand-off pay: at
// one chunk per hand-off (16 KiB) waking a goroutine costs what hashing beside
// the cutter saves.
const hashBatchBytes = 256 << 10

// batchesInFlight bounds the batches handed off and not yet landed, and with
// them the goroutines one Write starts: 16 MiB of stream, more than a 9.4 MB
// sparse16_delta_dedup save, so the cutter waits for a slow landing only in a
// larger stream.
const batchesInFlight = 64

// dedupWriter is the front of a dedup generation's materialisation
// (materializeLocked, its only maker): it cuts the stream into chunks and
// hands them over a batch at a time to a goroutine that hashes them, waits for
// the batch before it to land, and lands them — a reference each, and a
// durable chunk file for those the ledger does not hold. The batches land one
// after another in stream order, so every backend operation keeps its order,
// while the cutter cuts on. The chunks are views of the slice being written
// and of the chunker's carried buffer, both reused once Write returns, so
// every Write ends by waiting until what it emitted has landed.
//
// Everything below err is the landing goroutines' and is read by the
// committing goroutine only once the last batch has landed (settle).
type dedupWriter struct {
	s       *Store
	chunker *cas.Chunker
	// repair is set when the stream re-materialises a generation a replica
	// lost or damaged: the ledger is then no proof of a chunk — the repair runs
	// precisely because some chunk it counts is missing or corrupt on disk,
	// and a quarantined recipe keeps that hash referenced — so a ledger hit is
	// checked against the durable copy, and what does not check out rewritten.
	repair   bool
	cur      [][]byte      // the chunks of the batch being collected
	curBytes int           // and their size
	landed   chan struct{} // closed once the batch launched last has landed; nil before the first
	inFlight chan struct{} // a token per batch handed off and not yet landed

	err       error // the first failure; nothing lands after it
	refs      []cas.Ref
	newChunks []cas.Hash
	staged    map[cas.Hash]bool
	reused    int
	newBytes  int64
}

func (w *dedupWriter) emit(chunk []byte) error {
	if w.cur == nil {
		w.cur = make([][]byte, 0, 32) // a batch of 16 KiB chunks, with room
	}
	w.cur = append(w.cur, chunk)
	if w.curBytes += len(chunk); w.curBytes >= hashBatchBytes {
		w.launch()
	}
	return nil
}

// launch hands the collected batch to a goroutine that hashes it and lands it
// after the batch launched before it.
func (w *dedupWriter) launch() {
	chunks, prev, landed := w.cur, w.landed, make(chan struct{})
	w.cur, w.curBytes, w.landed = nil, 0, landed
	w.inFlight <- struct{}{}
	go func() {
		defer func() { <-w.inFlight; close(landed) }()
		sums := make([]cas.Hash, len(chunks))
		for i, chunk := range chunks {
			sums[i] = cas.Sum(chunk)
		}
		if prev != nil {
			<-prev
		}
		w.land(chunks, sums)
	}()
}

// land takes a batch's chunks in stream order: a reference each, and a durable
// chunk file for those neither the ledger nor this commit holds yet. After a
// failure it does nothing.
func (w *dedupWriter) land(chunks [][]byte, sums []cas.Hash) {
	for i, chunk := range chunks {
		if w.err != nil {
			return
		}
		h := sums[i]
		w.refs = append(w.refs, cas.Ref{Hash: h, Len: uint32(len(chunk))})
		if w.held(h) {
			w.reused++
			continue
		}
		if w.err = w.s.b.WriteChunk(h.String(), chunk); w.err != nil {
			return
		}
		w.staged[h] = true
		w.newChunks = append(w.newChunks, h)
		w.newBytes += int64(len(chunk))
	}
}

// held reports whether h's chunk needs no write: this stream wrote it already,
// or the ledger holds it — whose word a repair checks against the chunk file,
// once per hash.
func (w *dedupWriter) held(h cas.Hash) bool {
	if w.staged[h] || !w.s.dd.idx.Has(h) {
		return w.staged[h]
	}
	if w.repair {
		data, err := w.s.b.ReadChunk(h.String(), nil)
		w.staged[h] = err == nil && cas.Sum(data) == h
		return w.staged[h]
	}
	return true
}

// settle launches what is still collected and waits until everything emitted
// so far has landed.
func (w *dedupWriter) settle() error {
	if len(w.cur) > 0 {
		w.launch()
	}
	if w.landed != nil {
		<-w.landed
	}
	return w.err
}

// Write implements io.Writer.
func (w *dedupWriter) Write(p []byte) (int, error) {
	_, _ = w.chunker.Write(p) // emit never fails: a landing failure is settle's to return
	if err := w.settle(); err != nil {
		return 0, err
	}
	return len(p), nil
}

// finish cuts and lands the stream's last chunk.
func (w *dedupWriter) finish() error {
	_ = w.chunker.Flush() // as in Write
	return w.settle()
}

// abortLocked removes the chunks a materialisation that will not be indexed
// wrote: nothing durable references them, and eager cleanup keeps the error
// path litter-free (a crash instead leaves them for the open sweep). A chunk
// the ledger holds stays — a repair rewrote it under a generation that is
// still indexed, or parked in quarantine.
func (s *Store) abortLocked(dw *dedupWriter) {
	if dw == nil {
		return
	}
	for _, h := range dw.newChunks {
		if !s.dd.idx.Has(h) {
			s.b.RemoveChunk(h.String())
		}
	}
}

// readDedupLocked resolves a dedup generation: read the recipe, fetch
// and hash-verify each chunk, reassemble. Mirroring the plain read
// contract, corruption is reported through verified=false — with the
// verifying prefix of the payload, so frame-level partial recovery can
// still mine it — and err is reserved for a missing payload object.
func (s *Store) readDedupLocked(gen Generation) (data []byte, verified bool, err error) {
	raw, err := s.b.ReadPayload(gen.Seq, fileRoom(nil, int(s.dd.recipeBytes[gen.Seq])))
	if err != nil {
		return nil, false, fmt.Errorf("store: read gen %d: %w", gen.Seq, err)
	}
	out, reason := s.assembleLocked(raw)
	verified = reason == "" &&
		uint64(len(out)) == gen.Size &&
		crc32.ChecksumIEEE(out) == gen.CRC
	return out, verified, nil
}

// assembleLocked resolves a recipe image into the payload it describes: one
// buffer of the size the recipe declares, every chunk file read straight
// into its range of it. It returns the chunks that verify ahead of the first
// that does not — unreadable, of the wrong length, or not hashing to its
// address — and which layer failed: "recipe", "chunk", or "" for none.
//
// Chunk i is hashed on a second goroutine while chunk i+1 is read. Every
// file operation stays on this one, in recipe order; after a chunk that
// fails its hash, at most the next one has been read as well.
func (s *Store) assembleLocked(raw []byte) (data []byte, reason string) {
	rec, derr := cas.DecodeRecipe(raw)
	if derr != nil {
		return nil, "recipe"
	}
	out := fileRoom(nil, int(rec.Size)) // the chunks' lengths add up to it (DecodeRecipe)
	type read struct {
		chunk []byte
		want  cas.Hash
		off   int64
	}
	reads := make(chan read) // unbuffered: the hasher is at most one chunk behind
	var bad atomic.Int64     // where the first chunk whose hash failed starts
	bad.Store(math.MaxInt64)
	hashed := make(chan struct{})
	go func() {
		defer close(hashed)
		for r := range reads {
			if cas.Sum(r.chunk) != r.want {
				bad.CompareAndSwap(math.MaxInt64, r.off)
			}
		}
	}()
	for _, ref := range rec.Chunks {
		if bad.Load() != math.MaxInt64 {
			break
		}
		chunk, cerr := s.b.ReadChunk(ref.Hash.String(), fileRoom(out, int(ref.Len)))
		if cerr != nil || uint32(len(chunk)) != ref.Len {
			break
		}
		reads <- read{chunk, ref.Hash, int64(len(out))}
		out = out[:len(out)+len(chunk)]
	}
	close(reads)
	<-hashed
	if out = out[:min(int64(len(out)), bad.Load())]; uint64(len(out)) < rec.Size {
		reason = "chunk"
	}
	return out, reason
}

// releaseGenLocked removes a generation's payload and, for dedup
// generations, drops its chunk references — deleting chunks that
// reached zero. The destructive prune path (retention, Drop, TTL
// expiry); quarantine goes through detachRecipeLocked instead.
func (s *Store) releaseGenLocked(g Generation) {
	s.releaseRefsLocked(s.dd.recipes[g.Seq])
	s.detachRecipeLocked(g.Seq)
	s.b.RemovePayload(g.Seq)
}

// releaseRefsLocked takes one reference off each chunk in refs and deletes
// the chunk files that reached zero.
func (s *Store) releaseRefsLocked(refs []cas.Ref) {
	for _, h := range s.dd.idx.Release(refs) {
		s.b.RemoveChunk(h.String())
	}
}

// detachRecipeLocked forgets a generation's recipe bookkeeping WITHOUT
// releasing its index references — the quarantine path: the recipe
// object still exists (in quarantine) and its chunks must survive until
// a GC pass recomputes marks from the quarantine listing.
func (s *Store) detachRecipeLocked(seq uint64) {
	delete(s.dd.recipes, seq)
	delete(s.dd.recipeBytes, seq)
}

// GCReport summarizes one mark-and-sweep pass over the chunk store.
type GCReport struct {
	// LiveChunks / LiveBytes describe the chunk population referenced by
	// indexed or quarantined recipes after the pass.
	LiveChunks int
	LiveBytes  int64
	// SweptChunks counts unreferenced chunk objects removed.
	SweptChunks int
	// QuarantinedRecipes counts quarantined payloads that parsed as
	// recipes and contributed marks.
	QuarantinedRecipes int
}

// GC runs a full mark-and-sweep over the chunk store: marks are the
// chunk references of every indexed dedup generation plus every
// quarantined payload that parses as a recipe; everything else is
// swept. The refcount ledger is rebuilt from the marks, so GC is also
// the self-healing backstop for any in-memory drift. It holds the store
// lock for the whole pass — a restore can never observe a half-swept
// chunk set.
func (s *Store) GC() (*GCReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gcLocked()
}

func (s *Store) gcLocked() (rep *GCReport, err error) {
	rep = &GCReport{}
	jop := journal.Begin("store.gc", "dir", s.dir, "backend", s.b.Kind().String())
	defer func() {
		jop.Set("live_chunks", rep.LiveChunks, "swept_chunks", rep.SweptChunks,
			"quarantined_recipes", rep.QuarantinedRecipes)
		jop.End(err)
	}()
	// An indexed recipe we cannot read means chunk liveness is unknown;
	// sweeping now could destroy live data. Fail the pass — the scrubber
	// quarantines the recipe and the next GC converges.
	dd, quarantined, err := s.markLocked(func(g Generation, err error) error {
		return fmt.Errorf("store: gc: recipe for gen %d unreadable: %w", g.Seq, err)
	})
	rep.QuarantinedRecipes = quarantined
	if err != nil {
		return rep, err
	}
	names, lerr := s.b.ListChunks()
	if lerr != nil {
		return rep, fmt.Errorf("store: gc: listing chunks: %w", lerr)
	}
	rep.SweptChunks = s.sweepChunksLocked(names, dd.idx)
	s.dd = dd
	rep.LiveChunks = dd.idx.Chunks()
	rep.LiveBytes = dd.idx.Bytes()
	o := obs.Default()
	o.Counter(MetricGCRuns).Inc()
	o.Counter(MetricGCSweptChunks).Add(float64(rep.SweptChunks))
	o.Gauge(MetricGCLiveChunks).Set(float64(rep.LiveChunks))
	return rep, nil
}

// dedupActiveLocked reports whether this store has any dedup state
// worth scrubbing/collecting.
func (s *Store) dedupActiveLocked() bool {
	if s.opts.Dedup || s.dd.idx.Chunks() > 0 {
		return true
	}
	for _, g := range s.man.Gens {
		if g.Dedup() {
			return true
		}
	}
	return false
}

// scrubResolveLocked materializes a generation's logical bytes for the
// scrubber. For plain generations it is a payload read; for dedup
// generations it resolves the recipe, reporting recipe/chunk-level
// damage through its own reasons ("recipe", "chunk") so the quarantine
// record names the failing layer.
func (s *Store) scrubResolveLocked(g Generation) (data []byte, reason string, missing bool) {
	raw, err := s.b.ReadPayload(g.Seq, nil)
	if err != nil {
		return nil, "", true
	}
	if !g.Dedup() {
		return raw, "", false
	}
	if data, reason = s.assembleLocked(raw); reason != "" {
		data = nil
	}
	return data, reason, false
}

// DedupStats is the store's dedup accounting surface (CLI inspect,
// server quotas, the X17 experiment).
type DedupStats struct {
	// Enabled reports whether new commits dedup.
	Enabled bool
	// DedupGens counts indexed generations stored as recipes.
	DedupGens int
	// LogicalBytes sums the logical payload sizes of dedup generations.
	LogicalBytes int64
	// RecipeBytes sums the physical size of their recipe objects.
	RecipeBytes int64
	// Chunks / ChunkBytes describe the live chunk population (including
	// chunks held alive by quarantined recipes).
	Chunks     int
	ChunkBytes int64
}

// Ratio returns logical bytes per physical byte for the dedup subset —
// the dedup-ratio gauge (1.0 means no savings; 0 when nothing dedups).
func (d DedupStats) Ratio() float64 {
	phys := d.RecipeBytes + d.ChunkBytes
	if phys <= 0 {
		return 0
	}
	return float64(d.LogicalBytes) / float64(phys)
}

// DedupStats snapshots the dedup accounting.
func (s *Store) DedupStats() DedupStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := DedupStats{Enabled: s.opts.Dedup}
	for _, g := range s.man.Gens {
		if !g.Dedup() {
			continue
		}
		st.DedupGens++
		st.LogicalBytes += int64(g.Size)
		st.RecipeBytes += s.dd.recipeBytes[g.Seq]
	}
	st.Chunks = s.dd.idx.Chunks()
	st.ChunkBytes = s.dd.idx.Bytes()
	return st
}

// PhysicalBytes returns the bytes this store actually occupies for its
// indexed generations: raw payloads at face value, dedup generations as
// recipe bytes plus the (shared) live chunk population. This is what
// quota enforcement should meter — charging logical bytes would tax the
// tenant for data dedup never stored.
func (s *Store) PhysicalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, g := range s.man.Gens {
		if g.Dedup() {
			n += s.dd.recipeBytes[g.Seq]
		} else {
			n += int64(g.Size)
		}
	}
	return n + s.dd.idx.Bytes()
}

// DedupFsckIssue is one inconsistency found by FsckDedup.
type DedupFsckIssue struct {
	// Kind is "recipe" (indexed recipe unreadable/undecodable), "refcount"
	// (ledger count differs from recomputed truth), "missing" (referenced
	// chunk absent), "corrupt" (chunk content does not match its name) or
	// "orphan" (chunk referenced by nothing — pending GC).
	Kind   string
	Seq    uint64
	Hash   string
	Detail string
}

// DedupFsckReport is the chunk-level audit fsck runs.
type DedupFsckReport struct {
	DedupGens     int
	ChunksChecked int
	Issues        []DedupFsckIssue
}

// Clean reports whether the audit found no inconsistencies (orphans
// included — run GC first if orphans should be tolerated).
func (r *DedupFsckReport) Clean() bool { return len(r.Issues) == 0 }

// FsckDedup audits the chunk layer: every indexed recipe must decode,
// every referenced chunk must exist and hash to its name, and the
// in-memory refcount ledger must match counts recomputed from the
// recipes. Orphan chunks are reported (kind "orphan") but are expected
// transiently between a crash and the next GC.
func (s *Store) FsckDedup() (*DedupFsckReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := &DedupFsckReport{}
	// Quarantined recipes hold marks too — they count into truth so their
	// chunks are not misreported as orphans or refcount drift.
	dd, _, _ := s.markLocked(func(g Generation, err error) error {
		rep.Issues = append(rep.Issues, DedupFsckIssue{Kind: "recipe", Seq: g.Seq, Detail: err.Error()})
		return nil
	})
	truth := dd.idx
	checked := make(map[cas.Hash]bool)
	for _, g := range s.man.Gens {
		if !g.Dedup() {
			continue
		}
		rep.DedupGens++
		for _, ref := range dd.recipes[g.Seq] {
			if checked[ref.Hash] {
				continue
			}
			checked[ref.Hash] = true
			rep.ChunksChecked++
			cdata, cerr := s.b.ReadChunk(ref.Hash.String(), nil)
			switch {
			case cerr != nil:
				rep.Issues = append(rep.Issues, DedupFsckIssue{Kind: "missing", Seq: g.Seq, Hash: ref.Hash.String(), Detail: cerr.Error()})
			case cas.Sum(cdata) != ref.Hash || uint32(len(cdata)) != ref.Len:
				rep.Issues = append(rep.Issues, DedupFsckIssue{Kind: "corrupt", Seq: g.Seq, Hash: ref.Hash.String(),
					Detail: fmt.Sprintf("%d bytes, content does not match address", len(cdata))})
			}
		}
	}
	// Ledger vs recomputed truth, both directions.
	hashes := truth.Hashes()
	sort.Slice(hashes, func(i, j int) bool {
		return hashes[i].String() < hashes[j].String()
	})
	for _, h := range hashes {
		if got, want := s.dd.idx.Refs(h), truth.Refs(h); got != want {
			rep.Issues = append(rep.Issues, DedupFsckIssue{Kind: "refcount", Hash: h.String(),
				Detail: fmt.Sprintf("ledger %d, recipes imply %d", got, want)})
		}
	}
	for _, h := range s.dd.idx.Hashes() {
		if truth.Refs(h) == 0 {
			rep.Issues = append(rep.Issues, DedupFsckIssue{Kind: "refcount", Hash: h.String(),
				Detail: fmt.Sprintf("ledger %d, recipes imply 0", s.dd.idx.Refs(h))})
		}
	}
	if names, err := s.b.ListChunks(); err == nil {
		for _, name := range names {
			h, perr := cas.ParseHash(name)
			if perr != nil || truth.Refs(h) == 0 {
				rep.Issues = append(rep.Issues, DedupFsckIssue{Kind: "orphan", Hash: name})
			}
		}
	}
	return rep, nil
}
