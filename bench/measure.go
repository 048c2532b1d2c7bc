package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"lossyckpt/internal/store"
)

// config is one invocation: a workload, the seed its inputs come from and
// how long to measure.
type config struct {
	w       *workload
	seed    int64
	seconds float64
	// scale divides the leading extent of every array and cycles, when
	// positive, replaces the time limit: the program always runs at scale 1
	// for seconds, only the tests set 16 and a cycle count.
	scale  int
	cycles int
	// dir holds the run's stores and logs, spanDir receives the span file.
	dir     string
	spanDir string
	daemon  string
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports. The last line of standard output carries
// exactly correct, attempted, failed and metrics; the other fields go to the
// result file.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   int               `json:"samples"`
	InputGenS float64           `json:"input_gen_s"`
	// MaxRelErrPct is the worst Eq. 6 relative error any check saw.
	MaxRelErrPct float64  `json:"max_rel_err_pct"`
	Errors       []string `json:"errors,omitempty"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{v, unit}
}

// fail counts one op that errored, was refused or broke the promise.
func (r *result) fail(err error) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, err.Error())
	}
	fmt.Fprintln(os.Stderr, "bench: FAILED OP:", err)
}

// open makes one set-up of the workload in a fresh directory.
func (c *config) open(in *inputs, fsys store.FS) (session, error) {
	dir, err := os.MkdirTemp(c.dir, "setup-")
	if err != nil {
		return nil, err
	}
	if c.w.daemon {
		return openDaemon(c.w, in, dir, c.daemon)
	}
	return openInproc(c.w, in, dir, fsys)
}

// opTimes are the samples one client collected: the time of every successful
// save and restore, and of every cycle whose save and restore both succeeded.
type opTimes struct {
	saveMs, restoreMs, cycleMs, stored []float64
	quality                            quality
}

// newOpTimes starts with the quality of a run that has lost nothing yet.
func newOpTimes() opTimes { return opTimes{quality: quality{psnrMin: psnrExact}} }

// drive runs client c's closed loop: advance the application, save, restore,
// check, with only save and restore timed; a cycle's time is the sum of the
// two. The clients of a session move in step, meeting before every op, and odd
// clients run half a cycle behind the even ones (an untimed save first), so
// that every timed save runs beside
// another client's restore and never beside its save: what an op costs then
// depends on the program and not on how the clients happened to drift. The
// loop ends on a cycle boundary after cycles cycles, or when cycles is 0 at
// the deadline. Cycle numbers start at first so that a later phase continues
// the snapshot ring where the earlier one stopped.
func drive(s session, t *tracer, c, first, cycles int, deadline time.Time, res *result, meet *rendezvous) opTimes {
	ot := newOpTimes()
	nest := s.clients() == 1
	attempt := func(err error) bool {
		meet.mu.Lock()
		defer meet.mu.Unlock()
		res.Attempted++
		if err != nil {
			res.fail(err)
		}
		return err == nil
	}
	n := first
	s.load(c, n)
	restoring := c%2 == 1
	savedMs := 0.0 // the cycle's timed save, 0 when there was none or it failed
	if restoring {
		attempt(s.save(c))
	}
	for ops := 0; ; ops++ {
		done := ops%2 == 0 && (cycles > 0 && ops >= 2*cycles || cycles == 0 && !time.Now().Before(deadline))
		if meet.wait(done) {
			return ot
		}
		if restoring {
			d, err := t.in("e2e.restore", nest, func() error { return s.restore(c) })
			if err == nil {
				var q quality
				if q, err = s.check(c); err == nil {
					ot.quality.merge(q)
				}
			}
			if attempt(err) {
				ot.restoreMs = append(ot.restoreMs, ms(d))
				if savedMs > 0 {
					ot.cycleMs = append(ot.cycleMs, savedMs+ms(d))
				}
			}
			n++
			s.load(c, n)
		} else {
			d, err := t.in("e2e.save", nest, func() error { return s.save(c) })
			savedMs = 0
			if attempt(err) {
				savedMs = ms(d)
				ot.saveMs = append(ot.saveMs, savedMs)
				if ratio, err := s.stored(c); err == nil {
					ot.stored = append(ot.stored, ratio)
				}
			}
		}
		restoring = !restoring
	}
}

// rendezvous is where the clients of a session meet before each op.
type rendezvous struct {
	mu      sync.Mutex
	arrived *sync.Cond
	parties int
	waiting int
	round   int
	stop    bool
}

func newRendezvous(parties int) *rendezvous {
	r := &rendezvous{parties: parties}
	r.arrived = sync.NewCond(&r.mu)
	return r
}

// wait blocks until every party has called it and reports whether any of
// them asked to stop, to all of them alike.
func (r *rendezvous) wait(stop bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stop = r.stop || stop
	r.waiting++
	if r.waiting == r.parties {
		r.waiting = 0
		r.round++
		r.arrived.Broadcast()
		return r.stop
	}
	for round := r.round; round == r.round; {
		r.arrived.Wait()
	}
	return r.stop
}

// driveAll runs every client of the session at once and merges their samples.
func driveAll(s session, t *tracer, first, cycles int, deadline time.Time, res *result) opTimes {
	var (
		wg   sync.WaitGroup
		per  = make([]opTimes, s.clients())
		meet = newRendezvous(s.clients())
	)
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			per[c] = drive(s, t, c, first, cycles, deadline, res, meet)
		}(c)
	}
	wg.Wait()
	all := newOpTimes()
	for _, ot := range per {
		all.add(ot)
	}
	return all
}

func (ot *opTimes) add(o opTimes) {
	ot.saveMs = append(ot.saveMs, o.saveMs...)
	ot.restoreMs = append(ot.restoreMs, o.restoreMs...)
	ot.cycleMs = append(ot.cycleMs, o.cycleMs...)
	ot.stored = append(ot.stored, o.stored...)
	ot.quality.merge(o.quality)
}

// setUp opens the workload and runs the warm-up cycles: pools fill, the
// tuner decides, the delta cache is primed, the retention ring starts to
// prune. Making the inputs and building the daemon are not part of it.
func (c *config) setUp(in *inputs, fsys store.FS) (session, float64, error) {
	t0 := time.Now()
	s, err := c.open(in, fsys)
	if err != nil {
		return nil, 0, err
	}
	warm := &result{Metrics: map[string]metric{}}
	driveAll(s, nil, 0, warmupCycles, time.Time{}, warm)
	if warm.Failed > 0 {
		s.abandon()
		return nil, 0, fmt.Errorf("warm-up: %s", warm.Errors[0])
	}
	return s, time.Since(t0).Seconds(), nil
}

const setUps = 3

// quiet is the quantile of a run's op times that the time metrics report. The
// host these runs share slows the guest's processors by 15-45 % for stretches
// of seconds to minutes (CPU time grows with wall time, nothing is stolen, no
// page faults: see BASELINE.md), so the median of a run reads either speed or
// a mix of the two. The fifth percentile reads the host's undisturbed speed
// as long as a twentieth of the run's ops met it.
const quiet = 0.05

// begin makes the run's inputs from the seed, before anything is timed, and
// the result they are reported in.
func (c *config) begin() (*result, *inputs, error) {
	t0 := time.Now()
	in, err := c.w.newInputs(c.seed, c.scale)
	if err != nil {
		return nil, nil, err
	}
	return &result{Workload: c.w.name, Metrics: map[string]metric{}, InputGenS: time.Since(t0).Seconds()}, in, nil
}

// runEndToEnd is the untraced run: set up setUps times and keep the median
// time, measure the closed loop on the last set-up, audit what it stored.
func (c *config) runEndToEnd() (*result, error) {
	res, in, err := c.begin()
	if err != nil {
		return nil, err
	}

	var (
		s      session
		setups []float64
	)
	for i := 0; i < setUps; i++ {
		if s != nil {
			s.abandon()
		}
		var took float64
		if s, took, err = c.setUp(in, nil); err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}

	t := driveAll(s, nil, warmupCycles, c.cycles, time.Now().Add(time.Duration(c.seconds*float64(time.Second))), res)
	if err := s.finish(); err != nil {
		res.Attempted++
		res.fail(fmt.Errorf("end-of-run audit: %w", err))
	}
	if len(t.cycleMs) == 0 || len(t.stored) == 0 {
		return nil, fmt.Errorf("no successful cycle: %v", res.Errors)
	}

	res.Samples, res.MaxRelErrPct = len(t.saveMs), t.quality.maxRelPct
	res.Correct = res.Failed == 0
	res.set("setup_s", median(setups), "s")
	res.set("save_ms_p05", quantile(t.saveMs, quiet), "ms")
	res.set("restore_ms_p05", quantile(t.restoreMs, quiet), "ms")
	// A cycle moves the arrays out and back in; every client does so at once.
	res.set("goodput_mb_s", float64(s.clients())*2*float64(in.logical)/1e3/quantile(t.cycleMs, quiet), "MB/s")
	res.set("stored_bytes_per_raw_byte", median(t.stored), "ratio")
	res.set("psnr_db_min", t.quality.psnrMin, "dB")
	res.set("ok_ops_pct", 100*float64(res.Attempted-res.Failed)/float64(res.Attempted), "%")
	res.set("peak_rss_mb", s.peakRSSMB(), "MB")
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics; 0 for no samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// tail returns the highest percentile that still has ten samples beyond it
// (the median when there are fewer than twenty) and its value.
func tail(v []float64) (pct, value float64) {
	pct = 50
	if n := len(v); n >= 20 {
		pct = 100 * float64(n-10) / float64(n)
	}
	return pct, quantile(v, pct/100)
}

func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// procPeakRSSMB reads VmHWM of a live process.
func procPeakRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}
