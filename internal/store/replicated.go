// replicated.go layers N-way replication over the single-root Store.
// A ReplicatedStore owns N replicas (each a complete Store on its own
// backend root) and a write quorum W:
//
//   - Commit/CommitStream fan one payload out to every live replica
//     under one coordinator-chosen sequence number and succeed once W
//     replicas report byte-identical generation records; the call
//     returns at quorum, so one slow replica does not gate the commit
//     (its straggling write finishes in the background).
//   - Reads serve the newest quorum-agreed generation: a record counts
//     as agreed when at least R = N−W+1 replicas index the identical
//     record, the standard overlap guarantee that any read quorum
//     intersects every write quorum. Payload reads fall back across the
//     record's holders until a copy verifies.
//   - Read-repair re-materializes the winning copy onto replicas that
//     are missing it, hold a divergent record, or fail verification —
//     inline during reads, and wholesale during Scrub, which also
//     drops retention stragglers and quarantines sub-quorum orphans so
//     replicas converge byte-identical.
//
// A failed quorum write leaves partial state on the replicas that did
// accept it; that state is sub-quorum, so reads never serve it, and the
// next scrub parks it in quarantine.
package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"lossyckpt/internal/obs"
	"lossyckpt/internal/obs/journal"
)

// ErrQuorum indicates an operation that could not assemble its quorum.
var ErrQuorum = errors.New("store: quorum not reached")

// replica is one member of a ReplicatedStore: an open Store, or the
// error that kept it from opening.
type replica struct {
	dir string
	st  *Store
	err error
	// tail is the completion signal of the replica's most recently
	// enqueued commit (guarded by cmu). Commits chain on it so that
	// stragglers from at-quorum early returns still apply in coordinator
	// order — otherwise commit k+1 could reach a replica before its
	// commit k did, and k would die there with ErrSeqConflict.
	tail chan struct{}
}

// ReplicatedStore replicates a checkpoint store across N backend roots
// with W-of-N quorum commits and read-repair. It implements Target, so
// checkpoint pipelines use it exactly like a Store.
type ReplicatedStore struct {
	root     string
	w        int
	replicas []replica
	opts     Options

	// cmu serializes replicated operations (commit, read+repair, scrub)
	// so the coordinator observes each replica set consistently. The
	// replicas' own locks still serialize straggler writes that outlive
	// an at-quorum early return.
	cmu     sync.Mutex
	lastSeq uint64
	// wg tracks straggler goroutines from at-quorum early returns; Wait
	// drains them.
	wg sync.WaitGroup
}

// ReplicaDirs returns the conventional replica roots under root for an
// N-way store: root/r0 … root/r{n-1}. n < 2 returns just root, keeping
// the single-replica layout byte-identical to an unreplicated store.
func ReplicaDirs(root string, n int) []string {
	if n < 2 {
		return []string{root}
	}
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(root, fmt.Sprintf("r%d", i))
	}
	return dirs
}

// OpenReplicated opens an N-way replicated store over dirs with write
// quorum w (0 means majority). opts configures every replica;
// replicaFS, when non-empty, must have one FS per dir and overrides
// opts.FS per replica — the hook for per-replica fault injection. A
// replica that fails to open is carried as dead (commits skip it,
// scrub reports it); only a store with zero openable replicas is an
// error.
func OpenReplicated(root string, dirs []string, w int, opts Options, replicaFS ...FS) (*ReplicatedStore, error) {
	n := len(dirs)
	if len(replicaFS) != 0 && len(replicaFS) != n {
		return nil, fmt.Errorf("store: %d replica filesystems for %d replicas", len(replicaFS), n)
	}
	if n == 0 {
		return nil, errors.New("store: replicated store needs at least one replica")
	}
	if w == 0 {
		w = n/2 + 1
	}
	if w < 1 || w > n {
		return nil, fmt.Errorf("store: write quorum %d out of range for %d replicas", w, n)
	}
	r := &ReplicatedStore{root: root, w: w, opts: opts.withDefaults()}
	live := 0
	for i, dir := range dirs {
		ropts := opts
		if len(replicaFS) == n && replicaFS[i] != nil {
			ropts.FS = replicaFS[i]
		}
		st, err := Open(dir, ropts)
		r.replicas = append(r.replicas, replica{dir: dir, st: st, err: err})
		if err == nil {
			live++
			r.lastSeq = maxU64(r.lastSeq, st.NextSeq()-1)
		}
	}
	if live == 0 {
		return nil, fmt.Errorf("store: no replica of %s opened: %w", root, r.replicas[0].err)
	}
	return r, nil
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Dir returns the replicated store's common root.
func (r *ReplicatedStore) Dir() string { return r.root }

// Quorum returns the write quorum W.
func (r *ReplicatedStore) Quorum() int { return r.w }

// Replicas returns how many replicas the store spans (live or dead).
func (r *ReplicatedStore) Replicas() int { return len(r.replicas) }

// Replica returns replica i's Store (nil if it failed to open) and its
// open error, the per-replica surface the fault harness inspects.
func (r *ReplicatedStore) Replica(i int) (*Store, error) {
	return r.replicas[i].st, r.replicas[i].err
}

// readQuorum is R = N−W+1: the holder count that guarantees overlap
// with every successful write quorum.
func (r *ReplicatedStore) readQuorum() int { return len(r.replicas) - r.w + 1 }

// liveIdx returns the indexes of replicas that opened.
func (r *ReplicatedStore) liveIdx() []int {
	var live []int
	for i := range r.replicas {
		if r.replicas[i].st != nil {
			live = append(live, i)
		}
	}
	return live
}

// Rebuilt reports whether any live replica rebuilt its manifest at open.
func (r *ReplicatedStore) Rebuilt() bool {
	for _, rc := range r.replicas {
		if rc.st != nil && rc.st.Rebuilt() {
			return true
		}
	}
	return false
}

// Wait drains straggler replica writes left behind by at-quorum early
// returns — call before tearing down the replica roots.
func (r *ReplicatedStore) Wait() { r.wg.Wait() }

// PhysicalBytes sums the physical occupancy of every live replica —
// each replica holds its own recipe objects and chunk population, so
// the replicated total is the straightforward sum.
func (r *ReplicatedStore) PhysicalBytes() int64 {
	var n int64
	for _, i := range r.liveIdx() {
		n += r.replicas[i].st.PhysicalBytes()
	}
	return n
}

// DedupStats aggregates the dedup accounting across live replicas:
// counts and bytes sum (each replica stores its own recipes and
// chunks); Enabled reflects the shared options.
func (r *ReplicatedStore) DedupStats() DedupStats {
	var out DedupStats
	out.Enabled = r.opts.Dedup
	for _, i := range r.liveIdx() {
		st := r.replicas[i].st.DedupStats()
		out.DedupGens += st.DedupGens
		out.LogicalBytes += st.LogicalBytes
		out.RecipeBytes += st.RecipeBytes
		out.Chunks += st.Chunks
		out.ChunkBytes += st.ChunkBytes
	}
	return out
}

func (r *ReplicatedStore) observer() *obs.Registry {
	if r.opts.Observer != nil {
		return r.opts.Observer
	}
	return obs.Default()
}

// journal resolves the replicated store's effective flight recorder.
func (r *ReplicatedStore) journal() *journal.Journal {
	if r.opts.Journal != nil {
		return r.opts.Journal
	}
	return journal.Default()
}

// begin and note record on the coordinator's effective journal and registry
// (see Store.begin).
func (r *ReplicatedStore) begin(op string, attrs ...any) *journal.Op {
	return r.journal().Begin(r.observer(), op, attrs...)
}

func (r *ReplicatedStore) note(op string, attrs ...any) {
	r.journal().Note(r.observer(), op, attrs...)
}

// NextSeq returns the sequence number the next replicated commit will
// use: ahead of every live replica and of every commit this coordinator
// has already quorum-acknowledged.
func (r *ReplicatedStore) NextSeq() uint64 {
	r.cmu.Lock()
	defer r.cmu.Unlock()
	return r.nextSeqLocked()
}

func (r *ReplicatedStore) nextSeqLocked() uint64 {
	seq := r.lastSeq + 1
	for _, i := range r.liveIdx() {
		seq = maxU64(seq, r.replicas[i].st.NextSeq())
	}
	return seq
}

type commitRes struct {
	idx int
	gen Generation
	err error
}

// enqueueLocked runs fn on replica idx's serial commit chain: fn starts
// only after every previously enqueued commit for that replica has
// finished. Callers hold cmu, so chain order is coordinator order.
func (r *ReplicatedStore) enqueueLocked(idx int, fn func()) {
	rc := &r.replicas[idx]
	prev := rc.tail
	done := make(chan struct{})
	rc.tail = done
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer close(done)
		if prev != nil {
			<-prev
		}
		fn()
	}()
}

// Commit fans payload out to every live replica under one sequence
// number and returns once W replicas hold byte-identical records.
func (r *ReplicatedStore) Commit(step int, payload []byte) (Generation, error) {
	return r.CommitCtx(context.Background(), step, payload)
}

// CommitCtx is Commit bound to a request context: the coordinator's
// context reaches every replica's retry ladder, so cancellation aborts
// the fan-out between attempts instead of sleeping out N backoff
// budgets. Every replica reads the same parts, stragglers still after the
// quorum has answered: the caller must leave them unmodified.
func (r *ReplicatedStore) CommitCtx(ctx context.Context, step int, parts ...[]byte) (Generation, error) {
	return r.commit(ctx, step, partsLen(parts), feedParts(parts), nil)
}

// CommitStream streams write's output to every live replica at once
// (one synchronous pipe per replica — the stream paces at the slowest
// live branch) and succeeds once W replicas hold identical records.
func (r *ReplicatedStore) CommitStream(step int, write func(io.Writer) error) (Generation, error) {
	return r.CommitStreamCtx(context.Background(), step, write)
}

// CommitStreamCtx is CommitStream bound to a request context; the
// coordinator's context reaches every replica's commit and retry
// ladder.
func (r *ReplicatedStore) CommitStreamCtx(ctx context.Context, step int, write func(io.Writer) error) (Generation, error) {
	return r.commit(ctx, step, -1, nil, write)
}

// commit is the one coordinator behind every replicated commit: one sequence
// number and one expiry stamp for all replicas (so each records the identical
// generation and quorum voting stays byte-exact), one Store.commit enqueued on
// each live replica's chain, the votes collected until W agree. The payload
// reaches the replicas in one of two ways. feed is a payload held in memory:
// every replica reads it where it lies. write is a producer that runs once,
// here, on the caller's goroutine: its stream is teed into one pipe per
// replica, and each replica's commit copies from its pipe.
func (r *ReplicatedStore) commit(ctx context.Context, step, size int, feed, write func(io.Writer) error) (Generation, error) {
	if step < 0 {
		return Generation{}, fmt.Errorf("store: negative step %d", step)
	}
	if err := ctx.Err(); err != nil {
		return Generation{}, fmt.Errorf("store: replicated commit: %w", err)
	}
	r.cmu.Lock()
	defer r.cmu.Unlock()
	live := r.liveIdx()
	if len(live) < r.w {
		return Generation{}, r.quorumFailure("commit", fmt.Errorf("%d live replicas < quorum %d", len(live), r.w))
	}
	seq := r.nextSeqLocked()
	exp := r.opts.expireStamp()
	results := make(chan commitRes, len(live))
	var tee fanoutWriter
	for _, idx := range live {
		idx, st, feed := idx, r.replicas[idx].st, feed
		release := func(error) {}
		if write != nil {
			pr, pw := io.Pipe()
			tee.pws = append(tee.pws, pw)
			feed = func(w io.Writer) error {
				_, cerr := io.Copy(w, pr)
				return cerr
			}
			// Release the producer: a failed branch propagates its error
			// to the next fanout write instead of blocking it.
			release = func(err error) { pr.CloseWithError(err) }
		}
		r.enqueueLocked(idx, func() {
			gen, err := st.commit(ctx, seq, step, exp, size, feed)
			release(err)
			results <- commitRes{idx: idx, gen: gen, err: err}
		})
	}
	if write != nil {
		tee.dead = make([]bool, len(tee.pws))
		werr := write(&tee)
		for _, pw := range tee.pws {
			pw.CloseWithError(werr) // a nil error closes the branch as the end of the stream
		}
		if werr != nil {
			for range live {
				<-results
			}
			return Generation{}, fmt.Errorf("store: replicated commit gen %d: stream: %w", seq, werr)
		}
	}
	return r.collectQuorumLocked("commit", seq, results, len(live))
}

// fanoutWriter tees a producer's stream into one pipe per replica. A
// replica whose commit dies closes its pipe reader with the error, so
// the next write to that branch fails and the branch is dropped — the
// producer keeps streaming to the survivors and never blocks on a dead
// replica. Only when every branch is dead does Write error out.
type fanoutWriter struct {
	pws  []*io.PipeWriter
	dead []bool
}

func (f *fanoutWriter) Write(p []byte) (int, error) {
	alive := 0
	for i, pw := range f.pws {
		if f.dead[i] {
			continue
		}
		if _, err := pw.Write(p); err != nil {
			f.dead[i] = true
			continue
		}
		alive++
	}
	if alive == 0 {
		return 0, errors.New("store: replicated stream: every replica failed")
	}
	return len(p), nil
}

// collectQuorumLocked gathers per-replica commit results until W of
// them agree on one record (success, returned immediately — stragglers
// drain in the background) or too many have failed for W agreement to
// remain possible.
func (r *ReplicatedStore) collectQuorumLocked(op string, seq uint64, results <-chan commitRes, total int) (Generation, error) {
	o := r.observer()
	// The quorum operation: every replica's vote lands on it, including
	// stragglers that finish after the at-quorum early return (their
	// votes still count in metrics; votes after End are dropped from the
	// journal record).
	jop := r.begin("store.quorum_commit", "op", op, "quorum", r.w, "replicas", total)
	jop.SetSeq(seq)
	counts := make(map[Generation]int)
	received, failed := 0, 0
	var firstErr error
	record := func(res commitRes) (Generation, bool) {
		received++
		o.Counter(MetricReplicaCommits,
			"replica", strconv.Itoa(res.idx),
			"ok", strconv.FormatBool(res.err == nil)).Inc()
		jop.Vote(strconv.Itoa(res.idx), res.err == nil, res.err)
		if res.err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("replica %d: %w", res.idx, res.err)
			}
			r.note("store.replica_commit_failed", "replica", res.idx, "seq", seq, "err", res.err.Error())
			return Generation{}, false
		}
		counts[res.gen]++
		return res.gen, counts[res.gen] >= r.w
	}
	for received < total {
		gen, quorum := record(<-results)
		if quorum {
			if len(counts) > 1 {
				r.note("store.replica_commit_divergent", "seq", seq, "records", len(counts))
			}
			r.lastSeq = seq
			// Drain stragglers off-path so their metrics still land.
			if rest := total - received; rest > 0 {
				r.wg.Add(1)
				go func(rest int) {
					defer r.wg.Done()
					for i := 0; i < rest; i++ {
						record(<-results)
					}
				}(rest)
			}
			jop.SetBytes(0, int64(gen.Size))
			jop.End(nil)
			return gen, nil
		}
		if total-failed < r.w {
			break
		}
	}
	// Quorum unreachable; drain whatever is still in flight.
	if rest := total - received; rest > 0 {
		r.wg.Add(1)
		go func(rest int) {
			defer r.wg.Done()
			for i := 0; i < rest; i++ {
				record(<-results)
			}
		}(rest)
	}
	if firstErr == nil {
		firstErr = errors.New("replicas disagree on the committed record")
	}
	qerr := r.quorumFailure(op, fmt.Errorf("gen %d: %w", seq, firstErr))
	jop.End(qerr)
	return Generation{}, qerr
}

func (r *ReplicatedStore) quorumFailure(op string, cause error) error {
	r.observer().Counter(MetricQuorumFailures, "op", op).Inc()
	r.note("store.quorum_failure", "op", op, "err", cause.Error())
	return fmt.Errorf("%w: %s: %v", ErrQuorum, op, cause)
}

// Generations returns the newest quorum-agreed view: records at least
// R = N−W+1 live replicas hold identically, oldest first. When nothing
// reaches R (a degraded store), it falls back to the union view — for
// each sequence number, the record the most replicas hold — so restore
// can still mine whatever survives.
func (r *ReplicatedStore) Generations() []Generation {
	r.cmu.Lock()
	defer r.cmu.Unlock()
	return r.generationsLocked()
}

func (r *ReplicatedStore) generationsLocked() []Generation {
	agreed, union := r.viewsLocked()
	view := agreed
	if len(view) == 0 {
		view = union
	}
	gens := make([]Generation, 0, len(view))
	for _, g := range view {
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].Seq < gens[j].Seq })
	return gens
}

// viewsLocked computes both membership views in one pass: the
// quorum-agreed records (holder count ≥ R) and the best-effort union
// (per seq, the record with the most holders).
func (r *ReplicatedStore) viewsLocked() (agreed, union map[uint64]Generation) {
	counts := make(map[Generation]int)
	for _, i := range r.liveIdx() {
		for _, g := range r.replicas[i].st.Generations() {
			counts[g]++
		}
	}
	agreed = make(map[uint64]Generation)
	union = make(map[uint64]Generation)
	best := make(map[uint64]int)
	rq := r.readQuorum()
	for g, n := range counts {
		if n > best[g.Seq] || (n == best[g.Seq] && betterRecord(g, union[g.Seq])) {
			best[g.Seq] = n
			union[g.Seq] = g
		}
		if n >= rq {
			if cur, ok := agreed[g.Seq]; !ok || n > counts[cur] || (n == counts[cur] && betterRecord(g, cur)) {
				agreed[g.Seq] = g
			}
		}
	}
	return agreed, union
}

// betterRecord is the deterministic tie-break between two equally held
// records for one sequence number.
func betterRecord(a, b Generation) bool {
	if a.Size != b.Size {
		return a.Size > b.Size
	}
	return a.CRC > b.CRC
}

// Latest returns the newest quorum-agreed generation, if any.
func (r *ReplicatedStore) Latest() (Generation, bool) {
	gens := r.Generations()
	if len(gens) == 0 {
		return Generation{}, false
	}
	return gens[len(gens)-1], true
}

// ReadGeneration returns generation seq's payload from the first
// replica whose copy verifies, repairing the others; no verifiable copy
// anywhere is ErrCorrupt.
func (r *ReplicatedStore) ReadGeneration(seq uint64) ([]byte, error) {
	data, ok, err := r.ReadGenerationRaw(seq)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: generation %d fails verification on every replica", ErrCorrupt, seq)
	}
	return data, nil
}

// ReadGenerationRaw reads generation seq with per-replica fallback and
// inline read-repair: candidate records are tried in holder-count order,
// each holder's payload verified against the record, and the first
// verified copy wins. Replicas missing the generation, holding a
// divergent record, or failing verification receive the winning copy
// before the read returns. With no verified copy anywhere the longest
// raw payload comes back with verified=false (frame-level salvage), and
// nothing is repaired.
func (r *ReplicatedStore) ReadGenerationRaw(seq uint64) (data []byte, verified bool, err error) {
	r.cmu.Lock()
	defer r.cmu.Unlock()
	o := r.observer()
	live := r.liveIdx()

	holders := make(map[Generation][]int)
	var missing []int
	for _, idx := range live {
		if g, ok := r.replicas[idx].st.Record(seq); ok {
			holders[g] = append(holders[g], idx)
		} else {
			missing = append(missing, idx)
		}
	}
	if len(holders) == 0 {
		return nil, false, fmt.Errorf("%w: generation %d on any replica", ErrNoGeneration, seq)
	}
	candidates := make([]Generation, 0, len(holders))
	for g := range holders {
		candidates = append(candidates, g)
	}
	sort.Slice(candidates, func(i, j int) bool {
		if len(holders[candidates[i]]) != len(holders[candidates[j]]) {
			return len(holders[candidates[i]]) > len(holders[candidates[j]])
		}
		return betterRecord(candidates[i], candidates[j])
	})

	bad := make(map[int]bool) // replicas whose copy failed to verify
	var winner *Generation
	var winData []byte
search:
	for _, cand := range candidates {
		for _, idx := range holders[cand] {
			d, ok, rerr := r.replicas[idx].st.ReadGenerationRaw(seq)
			if rerr == nil && ok {
				g := cand
				winner, winData = &g, d
				break search
			}
			bad[idx] = true
			reason := "corrupt"
			if rerr != nil {
				reason = rerr.Error()
			}
			r.note("store.replica_read_failed", "replica", idx, "seq", seq, "reason", reason)
		}
	}
	if winner == nil {
		// Salvage path: no verified copy anywhere. Return the longest raw
		// bytes so frame-level partial recovery can mine them.
		var best []byte
		for _, cand := range candidates {
			for _, idx := range holders[cand] {
				if d, _, rerr := r.replicas[idx].st.ReadGenerationRaw(seq); rerr == nil && len(d) > len(best) {
					best = d
				}
			}
		}
		if best == nil {
			return nil, false, fmt.Errorf("%w: generation %d unreadable on every replica", ErrCorrupt, seq)
		}
		return best, false, nil
	}

	// Read-repair: push the winning copy onto every live replica that
	// lacks it, holds a different record, or failed verification.
	winnerHolders := make(map[int]bool)
	for _, idx := range holders[*winner] {
		winnerHolders[idx] = true
	}
	for _, idx := range live {
		reason := ""
		switch {
		case bad[idx]:
			reason = "corrupt"
		case !winnerHolders[idx]:
			reason = "missing"
			if _, ok := r.replicas[idx].st.Record(seq); ok {
				reason = "divergent"
			}
		}
		if reason == "" {
			continue
		}
		if perr := r.replicas[idx].st.PutGeneration(*winner, winData); perr != nil {
			r.note("store.read_repair_failed", "replica", idx, "seq", seq, "err", perr.Error())
			continue
		}
		o.Counter(MetricReadRepairs, "replica", strconv.Itoa(idx), "reason", reason).Inc()
		r.note("store.read_repair", "replica", idx, "seq", seq, "reason", reason)
	}
	return winData, true, nil
}

// Scrub audits every replica and then converges them: each live replica
// runs its local scrub (quarantining corrupt payloads), the
// quorum-agreed membership is recomputed, agreed generations are
// re-materialized onto replicas missing or diverging from them, and
// sub-quorum leftovers are dropped (older than the agreed ring —
// retention lag) or quarantined (newer or conflicting — e.g. the debris
// of a failed quorum write). When no generation is quorum-agreed the
// convergence phase is skipped entirely rather than destroy last
// surviving copies. The report aggregates per-replica results and the
// residual divergence, which also feeds the divergence gauge.
func (r *ReplicatedStore) Scrub(opts ScrubOptions) (rep *ScrubReport, err error) {
	r.cmu.Lock()
	defer r.cmu.Unlock()
	o := r.observer()
	jop := r.begin("store.scrub", "mode", "replicated")
	rep = &ScrubReport{Replicas: make([]ReplicaScrub, len(r.replicas))}
	defer func() {
		repaired := 0
		for _, rs := range rep.Replicas {
			repaired += len(rs.Repaired)
		}
		jop.Set("checked", rep.Checked, "quarantined", len(rep.Quarantined), "repaired", repaired)
		jop.End(err)
	}()

	for i := range r.replicas {
		rs := &rep.Replicas[i]
		rs.Replica = i
		rc := &r.replicas[i]
		if rc.st == nil {
			rs.Err = rc.err
			continue
		}
		lrep, lerr := rc.st.Scrub(opts)
		rs.Report, rs.Err = lrep, lerr
		if lrep != nil {
			rep.Checked += lrep.Checked
			rep.Quarantined = append(rep.Quarantined, lrep.Quarantined...)
			rep.Missing = append(rep.Missing, lrep.Missing...)
			rep.Expired = append(rep.Expired, lrep.Expired...)
			rep.ManifestRebuilt = rep.ManifestRebuilt || lrep.ManifestRebuilt
		}
	}

	agreed, _ := r.viewsLocked()
	if len(agreed) > 0 {
		oldest := ^uint64(0)
		for seq := range agreed {
			if seq < oldest {
				oldest = seq
			}
		}
		for _, idx := range r.liveIdx() {
			st := r.replicas[idx].st
			rs := &rep.Replicas[idx]
			local := make(map[uint64]Generation)
			for _, g := range st.Generations() {
				local[g.Seq] = g
			}
			// Heal: every agreed generation must exist here, byte-identical.
			// Expired generations are exempt — replica-local TTL pruning is
			// about to remove them everywhere, and re-materializing a copy
			// one replica already pruned would ping-pong against it.
			nowU := r.opts.now().Unix()
			for seq, want := range agreed {
				if want.Expired(nowU) {
					continue
				}
				if have, ok := local[seq]; ok && have == want {
					continue
				}
				reason := "missing"
				if _, ok := local[seq]; ok {
					reason = "divergent"
				}
				data := r.readAgreedLocked(want)
				if data == nil {
					r.note("store.scrub_repair_unreadable", "replica", idx, "seq", seq)
					continue
				}
				if perr := st.PutGeneration(want, data); perr != nil {
					r.note("store.scrub_repair_failed", "replica", idx, "seq", seq, "err", perr.Error())
					continue
				}
				rs.Repaired = append(rs.Repaired, seq)
				o.Counter(MetricReadRepairs, "replica", strconv.Itoa(idx), "reason", reason).Inc()
				r.note("store.scrub_repair", "replica", idx, "seq", seq, "reason", reason)
			}
			// Converge: local generations outside the agreed set are
			// retention lag (older than a full agreed ring, meaning the
			// quorum deliberately pruned them — drop) or sub-quorum
			// debris (park in quarantine, never destroy). An agreed ring
			// below retention capacity proves nothing was pruned, so
			// older orphans are quarantined too, not destroyed.
			ringFull := r.opts.Keep > 0 && len(agreed) >= r.opts.Keep
			for seq := range local {
				if _, ok := agreed[seq]; ok {
					continue
				}
				if seq < oldest && ringFull {
					if derr := st.Drop(seq); derr == nil {
						rs.Dropped = append(rs.Dropped, seq)
					}
					continue
				}
				if qpath, qerr := st.Quarantine(seq); qerr == nil {
					rep.Quarantined = append(rep.Quarantined, Quarantined{Seq: seq, Reason: "divergent", Path: qpath})
					o.Counter(MetricScrubQuarantined, "reason", "divergent").Inc()
					r.note("store.scrub_quarantined", "replica", idx, "seq", seq, "reason", "divergent")
				}
			}
			sort.Slice(rs.Repaired, func(a, b int) bool { return rs.Repaired[a] < rs.Repaired[b] })
			sort.Slice(rs.Dropped, func(a, b int) bool { return rs.Dropped[a] < rs.Dropped[b] })
		}
	}

	rep.Divergent = r.divergenceLocked()
	o.Gauge(MetricReplicaDiverged).Set(float64(rep.Divergent))
	return rep, nil
}

// readAgreedLocked returns a verified copy of an agreed generation from
// any live replica holding exactly that record.
func (r *ReplicatedStore) readAgreedLocked(want Generation) []byte {
	for _, idx := range r.liveIdx() {
		if g, ok := r.replicas[idx].st.Record(want.Seq); !ok || g != want {
			continue
		}
		if d, ok, err := r.replicas[idx].st.ReadGenerationRaw(want.Seq); err == nil && ok {
			return d
		}
	}
	return nil
}

// Divergence counts generations the live replicas still disagree on —
// missing on some live replica or recorded differently.
func (r *ReplicatedStore) Divergence() int {
	r.cmu.Lock()
	defer r.cmu.Unlock()
	return r.divergenceLocked()
}

func (r *ReplicatedStore) divergenceLocked() int {
	live := r.liveIdx()
	perSeq := make(map[uint64]map[Generation]int)
	for _, idx := range live {
		for _, g := range r.replicas[idx].st.Generations() {
			if perSeq[g.Seq] == nil {
				perSeq[g.Seq] = make(map[Generation]int)
			}
			perSeq[g.Seq][g]++
		}
	}
	divergent := 0
	for _, recs := range perSeq {
		uniform := len(recs) == 1
		for _, n := range recs {
			if n != len(live) {
				uniform = false
			}
		}
		if !uniform {
			divergent++
		}
	}
	return divergent
}

// StartScrubber runs the replicated Scrub every interval until the
// returned stop function is called.
func (r *ReplicatedStore) StartScrubber(interval time.Duration, opts ScrubOptions) (stop func()) {
	return r.StartScrubberCtx(context.Background(), interval, opts)
}

// StartScrubberCtx is StartScrubber with context cancellation; an
// in-flight pass drains before stop or cancellation returns control.
func (r *ReplicatedStore) StartScrubberCtx(ctx context.Context, interval time.Duration, opts ScrubOptions) (stop func()) {
	return startScrubLoop(ctx, interval, func() {
		if _, err := r.Scrub(opts); err != nil {
			r.note("store.scrub_error", "dir", r.root, "err", err.Error())
		}
	})
}
