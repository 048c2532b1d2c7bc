// storeio.go connects the checkpoint manager to the crash-safe on-disk
// store: CheckpointTo streams one checkpoint into a new generation,
// RestoreLatest walks the retention ring newest-to-oldest and falls
// back across generations — and, as a last resort, to frame-level
// partial recovery — until it finds restorable state. LoadLatest is the
// registration-free variant for tooling that discovers the variables
// and shapes from the stream itself.
package ckpt

import (
	"context"
	"errors"
	"fmt"
	"io"

	"lossyckpt/internal/grid"
	"lossyckpt/internal/guard"
	"lossyckpt/internal/obs"
	"lossyckpt/internal/obs/journal"
	"lossyckpt/internal/store"
)

// ErrStoreEmpty indicates no generation in the store could be restored,
// even partially.
var ErrStoreEmpty = errors.New("ckpt: no restorable generation in store")

// CheckpointTo compresses the registered arrays and commits the checkpoint
// stream atomically as the store's next generation, writing it into the
// store as it is produced: compression, entropy coding and store I/O
// overlap, and neither the manager nor the store holds the stream. st may be
// a plain *store.Store or a *store.ReplicatedStore — the pipeline is
// replication-agnostic; a replicated commit is paced by its slowest live
// replica. The returned Generation records the committed sequence number,
// size and CRC.
func (m *Manager) CheckpointTo(st store.Target, step int) (rep *Report, gen store.Generation, err error) {
	return m.CheckpointToCtx(context.Background(), st, step)
}

// CheckpointStreamTo is CheckpointTo.
//
// Deprecated: use CheckpointTo, which commits the same stream the same way.
func (m *Manager) CheckpointStreamTo(st store.Target, step int) (*Report, store.Generation, error) {
	return m.CheckpointTo(st, step)
}

// CheckpointToCtx is CheckpointTo bound to a request context: the context
// reaches both the producer (entry boundaries and writes) and the store's
// commit and retry path, so one cancellation tears the whole pipeline down.
// A cancellation or an encode error aborts the commit: the partial payload is
// removed and the previous latest generation stays indexed.
//
// One operation spans the save, encode and commit, so the store's commit and
// vote records become its children; it ends with the generation committed.
func (m *Manager) CheckpointToCtx(ctx context.Context, st store.Target, step int) (rep *Report, gen store.Generation, err error) {
	op := m.beginCheckpoint(step)
	defer func() { op.SetSeq(gen.Seq); op.End(err) }()
	gen, err = st.CommitStreamCtx(ctx, step, func(w io.Writer) error {
		var cerr error
		rep, cerr = m.writeCheckpoint(ctx, op, w, step)
		return cerr
	})
	if err != nil {
		return nil, store.Generation{}, err
	}
	return rep, gen, nil
}

// newestFirst is the walk every restore from a store makes: try on each
// generation, newest first, in a strict pass — only bytes that verify against
// the manifest — and, only if no generation restores so, a lenient one that
// hands over whatever bytes are there for frame-level recovery. It returns at
// the first try that succeeds; when none does, every failure is joined into
// ErrStoreEmpty. skipped, if not nil, hears of each generation the strict
// pass had to pass over, and why.
func newestFirst(ctx context.Context, st store.Target, skipped func(seq uint64, reason string), try func(g store.Generation, data []byte, lenient bool) error) error {
	gens := st.Generations()
	var failures []error
	for _, lenient := range []bool{false, true} {
		for i := len(gens) - 1; i >= 0; i-- {
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("ckpt: restore: %w", cerr)
			}
			g := gens[i]
			data, verified, err := st.ReadGenerationRaw(g.Seq)
			reason := "restore_error"
			switch {
			case err != nil:
				reason = "read_error"
			case !verified && !lenient:
				err, reason = store.ErrCorrupt, "unverified"
			default:
				err = try(g, data, lenient)
			}
			switch {
			case err == nil:
				return nil
			case lenient:
				failures = append(failures, fmt.Errorf("gen %d partial: %w", g.Seq, err))
			default:
				failures = append(failures, fmt.Errorf("gen %d: %w", g.Seq, err))
				if skipped != nil {
					skipped(g.Seq, reason)
				}
			}
		}
	}
	return fmt.Errorf("%w: %d generations tried: %v", ErrStoreEmpty, len(gens), errors.Join(failures...))
}

// StoreRestore reports which generation a store-level restore used and
// how complete it was.
type StoreRestore struct {
	// Generation is the sequence number restored from.
	Generation uint64
	// Step is the application step recorded in the restored stream.
	Step int
	// Partial is true when only a subset of registered arrays could be
	// restored (frame-level recovery from a damaged generation).
	Partial bool
	// Restored and Skipped name the registered arrays that were / were
	// not recovered. Skipped is empty for full restores.
	Restored []string
	Skipped  []string
	// Report is the underlying restore accounting.
	Report *Report
}

// RestoreLatest restores the registered arrays from the newest
// restorable generation. The fallback order is: full verified restore
// from the newest generation backwards, then — only if no generation
// restores completely — frame-level partial recovery, again newest
// first, taking the first generation that yields at least one verified
// array. Every failure is carried in the returned error if nothing at
// all is restorable. The full restores that failed along the way decoded
// in place (see Restore), so an array named in Skipped holds whatever they
// left in it, not necessarily what it held before the call.
func (m *Manager) RestoreLatest(st store.Target) (sr *StoreRestore, err error) {
	// One operation per call, however many generations the walk tries: the
	// inner restores fill it, the ones it passes over are counted and noted.
	op := m.beginRestore("latest")
	defer func() {
		if sr != nil {
			op.SetSeq(sr.Generation)
			if sr.Partial {
				op.Set("partial", "true")
			}
		}
		op.End(err)
	}()
	err = newestFirst(context.Background(), st, m.recordFallback,
		func(g store.Generation, data []byte, lenient bool) error {
			rep, skipped, err := m.restore(op, &byteReader{b: data}, lenient)
			if err != nil {
				return err
			}
			sr = &StoreRestore{
				Generation: g.Seq,
				Step:       rep.Step,
				Partial:    len(skipped) > 0,
				Restored:   namesOf(rep),
				Skipped:    skipped,
				Report:     rep,
			}
			return nil
		})
	return sr, err
}

// recordFallback counts one generation the restore walk had to skip,
// labeled with why, and notes which.
func (m *Manager) recordFallback(seq uint64, reason string) {
	obs.Default().Counter(MetricStoreFallbacks, "reason", reason).Inc()
	journal.Note("ckpt.store_fallback", "gen", seq, "reason", reason)
}

func namesOf(rep *Report) []string {
	names := make([]string, len(rep.Entries))
	for i, e := range rep.Entries {
		names[i] = e.Name
	}
	return names
}

// LoadedField is one array recovered by LoadLatest.
type LoadedField struct {
	Name  string
	Field *grid.Field
	// Guarantee is the guard annotation the entry carried (nil for
	// non-guard codecs): the quality promise the generation restores with.
	Guarantee *guard.Annotation
}

// LoadedCheckpoint is the registration-free result of LoadLatest.
type LoadedCheckpoint struct {
	Generation uint64
	Step       int
	Codec      string
	// Partial is true when some declared frames could not be recovered.
	Partial bool
	Fields  []LoadedField
	// SkippedFrames counts declared frames that failed verification or
	// decoding.
	SkippedFrames int
}

// LoadLatest reads the newest restorable generation without any
// registration: variables, shapes and the codec are discovered from the
// stream. Like RestoreLatest it walks generations newest-to-oldest,
// preferring a fully verified load, then falls back to frame-level
// partial recovery. workers bounds decode parallelism, across entries
// and inside one (0 = GOMAXPROCS).
func LoadLatest(st store.Target, workers int) (lc *LoadedCheckpoint, err error) {
	return LoadLatestCtx(context.Background(), st, workers)
}

// LoadLatestCtx is LoadLatest bound to a request context: cancellation
// is observed between generation attempts, so a restore walking a deep
// retention ring of damaged generations stops when its request dies.
func LoadLatestCtx(ctx context.Context, st store.Target, workers int) (lc *LoadedCheckpoint, err error) {
	op := journal.Begin("ckpt.restore", "mode", "load_latest")
	defer func() {
		if lc != nil {
			op.SetStep(lc.Step)
			op.SetSeq(lc.Generation)
			op.Set("codec", lc.Codec)
			for _, lf := range lc.Fields {
				op.Entry(journal.Entry{Var: lf.Name})
			}
			if lc.SkippedFrames > 0 {
				op.Set("skipped_frames", lc.SkippedFrames)
			}
		}
		op.End(err)
	}()
	err = newestFirst(ctx, st, nil, func(g store.Generation, data []byte, lenient bool) (err error) {
		if lc, err = loadStream(&byteReader{b: data}, workers, lenient); err == nil {
			lc.Generation = g.Seq
		}
		return err
	})
	return lc, err
}

// decoderFor builds the codec a registration-free reader decodes with.
// workers reaches the codecs that decode one array on several goroutines.
func decoderFor(name string, workers int) (Codec, error) {
	codec, err := CodecByName(name)
	switch c := codec.(type) {
	case *Lossy:
		c.Options.Workers = workers
	case *Guard:
		c.Options.Workers = workers
	}
	return codec, err
}

// loadStream decodes a checkpoint stream with no registration. In
// lenient mode damaged frames are skipped and a torn tail ends the
// scan; in strict mode any damage is fatal. workers bounds the entries
// decoded at once, for every codec, and the decode inside one array.
func loadStream(br *byteReader, workers int, lenient bool) (*LoadedCheckpoint, error) {
	hdr, err := readStreamHeader(br)
	if err != nil {
		return nil, err
	}
	codec, err := decoderFor(hdr.Codec, workers)
	if err != nil {
		return nil, err
	}

	lc := &LoadedCheckpoint{Step: hdr.Step, Codec: hdr.Codec}
	claimed := make(map[string]bool, hdr.Count)
	scan := entryScan{
		codec: codec, workers: workers, lenient: lenient,
		claim: func(ent *rawEntry) (*grid.Field, error) {
			if claimed[ent.Name] {
				return nil, fmt.Errorf("%w: duplicate variable %q", ErrFormat, ent.Name)
			}
			claimed[ent.Name] = true
			return nil, nil
		},
		land: func(ent *rawEntry, f *grid.Field) {
			lc.Fields = append(lc.Fields, LoadedField{
				Name: ent.Name, Field: f, Guarantee: entryGuarantee(ent.Payload)})
		},
	}
	if lc.SkippedFrames, err = scan.run(br, hdr); err != nil {
		return nil, err
	}
	lc.Partial = lc.SkippedFrames > 0
	if len(lc.Fields) == 0 {
		return nil, fmt.Errorf("%w: no frame verified", ErrFormat)
	}
	return lc, nil
}
