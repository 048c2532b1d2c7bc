package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"lossyckpt/internal/ckpt"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/guard"
	"lossyckpt/internal/stats"
	"lossyckpt/internal/store"
)

// A session is one opened store or daemon with the application arrays of
// its clients. The driver times save and restore; load, check and stored run
// between the timed calls.
type session interface {
	clients() int
	// load advances client c's application to cycle n.
	load(c, n int)
	// save commits client c's arrays as a new durable generation.
	save(c int) error
	// restore brings that generation back into client c's second set of
	// arrays, as a restarted process would.
	restore(c int) error
	// check compares what restore returned with what save was given.
	check(c int) (quality, error)
	// stored is the physical bytes the target holds per logical byte of the
	// generations it retains.
	stored(c int) (float64, error)
	// finish audits everything the run committed and releases the session.
	finish() error
	// abandon releases a session that only measured set-up.
	abandon()
	// peakRSSMB is the peak resident set of the process doing the work.
	peakRSSMB() float64
}

// quality is the worst reconstruction error seen: the paper's Eq. 6 maximum
// relative error in percent and the lowest PSNR, psnrExact when bit-exact.
type quality struct {
	maxRelPct float64
	psnrMin   float64
}

const psnrExact = 400

func (q *quality) merge(o quality) {
	q.maxRelPct = math.Max(q.maxRelPct, o.maxRelPct)
	q.psnrMin = math.Min(q.psnrMin, o.psnrMin)
}

// checkField holds one restored field to the workload's promise.
func (w *workload) checkField(name string, orig, got *grid.Field, ann *guard.Annotation) (quality, error) {
	if w.guarded && ann == nil {
		return quality{}, fmt.Errorf("%s: restored without a guard annotation", name)
	}
	if w.lossless || (ann != nil && ann.Mode == guard.Lossless) {
		if !orig.Equal(got) {
			return quality{}, fmt.Errorf("%s: lossless restore is not bit-exact", name)
		}
		return quality{0, psnrExact}, nil
	}
	rel, err := stats.MaxRelError(orig.Data(), got.Data())
	if err != nil {
		return quality{}, err
	}
	psnr, err := stats.PSNR(orig.Data(), got.Data())
	if err != nil {
		return quality{}, err
	}
	q := quality{100 * rel, math.Min(psnr, psnrExact)}
	switch {
	case ann != nil && !(rel <= ann.AchievedMaxRel && psnr >= ann.PSNRFloor):
		return q, fmt.Errorf("%s: max rel err %g, PSNR %.2f dB outside the annotation (%v)", name, rel, psnr, *ann)
	case ann == nil && !(q.maxRelPct <= w.ceilPct):
		return q, fmt.Errorf("%s: max rel err %.4f%% above the recorded ceiling %.4f%%", name, q.maxRelPct, w.ceilPct)
	}
	return q, nil
}

// inproc drives ckpt.Manager against a store.Target in this process: one
// manager over the live arrays saves, a second over its own arrays restores
// (a restore into the saver would also reset its delta cache every cycle).
type inproc struct {
	w      *workload
	in     *inputs
	st     *store.Store
	codec  ckpt.Codec
	saver  *ckpt.Manager
	loader *ckpt.Manager
	live   []*grid.Field
	back   []*grid.Field
	step   int
	gen    store.Generation
	last   *ckpt.StoreRestore
}

func openInproc(w *workload, in *inputs, dir string, fsys store.FS) (*inproc, error) {
	opts := w.storeOpts
	opts.FS = fsys
	st, err := store.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	s := &inproc{w: w, in: in, st: st, live: in.newFields(true), back: in.newFields(false)}
	s.codec = w.newCodec(in)
	s.saver, s.loader, err = newManagers(w, s.codec, in.names, s.live, s.back)
	return s, err
}

// newManagers builds the pair every save→restore path here uses: one manager
// over the live arrays that saves, one over the second set that restores,
// both with GOMAXPROCS workers.
func newManagers(w *workload, codec ckpt.Codec, names []string, live, back []*grid.Field) (saver, loader *ckpt.Manager, err error) {
	workers := runtime.GOMAXPROCS(0)
	saver, loader = ckpt.NewManager(codec, workers), ckpt.NewManager(codec, workers)
	saver.SetDelta(w.delta)
	for i, name := range names {
		if err := errors.Join(saver.Register(name, live[i]), loader.Register(name, back[i])); err != nil {
			return nil, nil, err
		}
	}
	return saver, loader, nil
}

func (s *inproc) clients() int  { return 1 }
func (s *inproc) load(_, n int) { s.in.load(n, s.live) }

func (s *inproc) save(int) (err error) {
	s.step++
	if s.w.stream {
		_, s.gen, err = s.saver.CheckpointStreamTo(s.st, s.step)
	} else {
		_, s.gen, err = s.saver.CheckpointTo(s.st, s.step)
	}
	return err
}

func (s *inproc) restore(int) (err error) {
	s.last, err = s.loader.RestoreLatest(s.st)
	return err
}

func (s *inproc) check(int) (quality, error) {
	q := quality{psnrMin: psnrExact}
	if s.last.Generation != s.gen.Seq || s.last.Step != s.step || s.last.Partial {
		return q, fmt.Errorf("restored generation %d step %d partial=%v, saved generation %d step %d",
			s.last.Generation, s.last.Step, s.last.Partial, s.gen.Seq, s.step)
	}
	anns := map[string]*guard.Annotation{}
	for _, e := range s.last.Report.Entries {
		anns[e.Name] = e.Guarantee
	}
	for i, name := range s.in.names {
		fq, err := s.w.checkField(name, s.live[i], s.back[i], anns[name])
		if err != nil {
			return q, err
		}
		q.merge(fq)
	}
	return q, nil
}

func (s *inproc) stored(int) (float64, error) {
	return float64(s.st.PhysicalBytes()) / float64(len(s.st.Generations())*s.in.logical), nil
}

func (s *inproc) finish() error {
	rep, err := s.st.Scrub(store.ScrubOptions{Verify: ckpt.StoreVerifier(true, 0)})
	if err != nil {
		return fmt.Errorf("scrub: %w", err)
	}
	if !rep.Clean() {
		return fmt.Errorf("scrub quarantined %d, lost %d generations", len(rep.Quarantined), len(rep.Missing))
	}
	if s.w.storeOpts.Dedup {
		fr, err := s.st.FsckDedup()
		if err != nil {
			return fmt.Errorf("dedup fsck: %w", err)
		}
		if !fr.Clean() {
			return fmt.Errorf("dedup fsck: %d issues, first %+v", len(fr.Issues), fr.Issues[0])
		}
	}
	return nil
}

func (s *inproc) abandon() {}

func (s *inproc) peakRSSMB() float64 { return selfPeakRSSMB() }
