package store

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"lossyckpt/internal/obs"
	"lossyckpt/internal/obs/journal"
)

// Fault-injection errors.
var (
	// ErrCrashed is returned by every FaultFS operation at and after a
	// Crash or TornWrite fault point — the moral equivalent of the
	// process dying: nothing else reaches the disk.
	ErrCrashed = errors.New("store: simulated crash")
	// ErrInjected is the base of transient injected errors (ErrorOnce).
	ErrInjected = errors.New("store: injected transient error")
)

// FaultKind selects what goes wrong at an operation boundary.
type FaultKind int

const (
	// ErrorOnce fails the operation once with a transient error and
	// leaves the filesystem untouched; a retry of the same call succeeds.
	ErrorOnce FaultKind = iota
	// Crash fails the operation before it takes effect and kills the FS:
	// every subsequent operation returns ErrCrashed.
	Crash
	// TornWrite applies only part of a Write (TornBytes bytes) to the
	// underlying file and then crashes — the classic torn page.
	TornWrite
	// BitFlip silently flips one bit (bit FlipBit of byte FlipByte) in
	// the data of a Write and lets the operation succeed — at-rest
	// corruption that only CRCs can catch.
	BitFlip
	// Truncate cuts a file down to its first TornBytes bytes. It is only
	// meaningful through CorruptAtRest (post-commit media decay); as an
	// op-boundary fault it is ignored.
	Truncate
	// Latency delays the operation by Delay and then lets it succeed —
	// a slow disk or replica, not a broken one. Combine with SetOpDelay
	// for a blanket-slow replica instead of one slow operation.
	Latency
)

// String names the fault kind (used as the kind label on the injected
// fault counter).
func (k FaultKind) String() string {
	switch k {
	case ErrorOnce:
		return "error_once"
	case Crash:
		return "crash"
	case TornWrite:
		return "torn_write"
	case BitFlip:
		return "bit_flip"
	case Truncate:
		return "truncate"
	case Latency:
		return "latency"
	}
	return fmt.Sprintf("kind_%d", int(k))
}

// MetricInjectedFaults counts faults a FaultFS actually fired, labeled by
// kind=<error_once|crash|torn_write|bit_flip>.
const MetricInjectedFaults = "lossyckpt_faultfs_injected_faults_total"

// Fault describes one injected failure.
type Fault struct {
	Kind FaultKind
	// TornBytes is how many leading bytes of the Write survive
	// (TornWrite only).
	TornBytes int
	// FlipByte/FlipBit locate the corrupted bit (BitFlip only). FlipByte
	// is clamped to the written buffer.
	FlipByte int
	FlipBit  uint
	// Delay is how long a Latency fault stalls the operation.
	Delay time.Duration
}

// transientErr marks injected errors as retryable.
type transientErr struct{ error }

func (transientErr) Transient() bool { return true }

// IsTransient reports whether err advertises itself as retryable via a
// Transient() bool method anywhere in its chain.
func IsTransient(err error) bool {
	for err != nil {
		if t, ok := err.(interface{ Transient() bool }); ok && t.Transient() {
			return true
		}
		err = errors.Unwrap(err)
	}
	return false
}

// FaultFS wraps an FS and injects faults at numbered operation
// boundaries. Every FS call and every File Write/Sync/Close counts as
// one operation (reads are free: crash consistency is about writes).
// Concurrency-safe; one fault plan per instance.
type FaultFS struct {
	inner FS

	mu      sync.Mutex
	op      int
	faults  map[int]Fault
	crashed bool
	journal []string
	// opDelay stalls every counted operation — a blanket-slow replica.
	opDelay time.Duration
	// sleep is the latency clock, injectable so slow-replica tests can
	// record delays instead of waiting them out; nil means time.Sleep.
	sleep func(time.Duration)
}

// NewFaultFS wraps inner with an empty fault plan.
func NewFaultFS(inner FS) *FaultFS {
	return &FaultFS{inner: inner, faults: make(map[int]Fault)}
}

// FailAt schedules fault f at the op-th counted operation (1-based).
func (f *FaultFS) FailAt(op int, fault Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults[op] = fault
}

// SetOpDelay stalls every subsequent counted operation by d — the
// blanket slow replica. Zero turns it off.
func (f *FaultFS) SetOpDelay(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.opDelay = d
}

// SetSleep injects the latency clock (nil restores time.Sleep), so
// tests can observe slow-replica stalls without real wall time.
func (f *FaultFS) SetSleep(fn func(time.Duration)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sleep = fn
}

// CrashNow kills the FS immediately, independent of the op schedule:
// every subsequent operation returns ErrCrashed. The model for a
// replica dying between operations (process kill, node loss).
func (f *FaultFS) CrashNow() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return
	}
	f.crashed = true
	f.journal = append(f.journal, fmt.Sprintf("op %d+: crash now", f.op))
	f.injectedLocked(Crash, "crash now")
}

// injectedLocked counts and notes one fault firing at the current operation;
// callers hold f.mu.
func (f *FaultFS) injectedLocked(kind FaultKind, desc string) {
	obs.Default().Counter(MetricInjectedFaults, "kind", kind.String()).Inc()
	journal.Note("faultfs.injected", "kind", kind.String(), "op", f.op, "desc", desc)
}

// Ops returns the number of operations counted so far.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.op
}

// Crashed reports whether a Crash/TornWrite fault has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Journal returns the op log ("op 3: create foo.tmp") for diagnostics.
func (f *FaultFS) Journal() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.journal...)
}

// step counts one operation and returns the fault scheduled for it, if
// any. It returns ErrCrashed once the FS is dead. Latency (per-fault or
// blanket SetOpDelay) is served outside the lock so a slow replica
// stalls only itself, never readers of the plan.
func (f *FaultFS) step(desc string) (Fault, bool, error) {
	fault, ok, delay, sleep, err := f.stepLocked(desc)
	if err == nil && delay > 0 {
		sleep(delay)
	}
	return fault, ok, err
}

func (f *FaultFS) stepLocked(desc string) (Fault, bool, time.Duration, func(time.Duration), error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sleep := f.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	if f.crashed {
		return Fault{}, false, 0, sleep, ErrCrashed
	}
	f.op++
	f.journal = append(f.journal, fmt.Sprintf("op %d: %s", f.op, desc))
	delay := f.opDelay
	fault, ok := f.faults[f.op]
	if !ok {
		return Fault{}, false, delay, sleep, nil
	}
	f.injectedLocked(fault.Kind, desc)
	switch fault.Kind {
	case ErrorOnce:
		// Consume the fault so the retry succeeds.
		delete(f.faults, f.op)
		return fault, true, 0, sleep, transientErr{fmt.Errorf("%w at op %d (%s)", ErrInjected, f.op, desc)}
	case Crash:
		f.crashed = true
		return fault, true, 0, sleep, fmt.Errorf("%w at op %d (%s)", ErrCrashed, f.op, desc)
	case TornWrite, BitFlip:
		return fault, true, delay, sleep, nil
	case Latency:
		return fault, true, delay + fault.Delay, sleep, nil
	}
	return Fault{}, false, delay, sleep, nil
}

// crash marks the FS dead (used by TornWrite after the partial write).
func (f *FaultFS) crash() {
	f.mu.Lock()
	f.crashed = true
	f.mu.Unlock()
}

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) {
	if _, _, err := f.step("create " + name); err != nil {
		return nil, err
	}
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name, inner: file}, nil
}

// Open implements FS. Opens for reading are not counted, but a dead FS
// stays dead.
func (f *FaultFS) Open(name string) (File, error) {
	f.mu.Lock()
	dead := f.crashed
	f.mu.Unlock()
	if dead {
		return nil, ErrCrashed
	}
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name, inner: file, readOnly: true}, nil
}

// Rename implements FS.
func (f *FaultFS) Rename(oldname, newname string) error {
	if _, _, err := f.step("rename " + oldname + " -> " + newname); err != nil {
		return err
	}
	return f.inner.Rename(oldname, newname)
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	if _, _, err := f.step("remove " + name); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

// ReadDir implements FS (uncounted read).
func (f *FaultFS) ReadDir(dir string) ([]string, error) {
	f.mu.Lock()
	dead := f.crashed
	f.mu.Unlock()
	if dead {
		return nil, ErrCrashed
	}
	return f.inner.ReadDir(dir)
}

// MkdirAll implements FS.
func (f *FaultFS) MkdirAll(dir string) error {
	if _, _, err := f.step("mkdir " + dir); err != nil {
		return err
	}
	return f.inner.MkdirAll(dir)
}

// SyncDir implements FS.
func (f *FaultFS) SyncDir(dir string) error {
	if _, _, err := f.step("syncdir " + dir); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

// faultFile routes Write/Sync/Close through the fault plan.
type faultFile struct {
	fs       *FaultFS
	name     string
	inner    File
	readOnly bool
}

func (ff *faultFile) Read(p []byte) (int, error) { return ff.inner.Read(p) }

func (ff *faultFile) Write(p []byte) (int, error) {
	fault, ok, err := ff.fs.step(fmt.Sprintf("write %d bytes to %s", len(p), ff.name))
	if err != nil {
		return 0, err
	}
	if ok {
		switch fault.Kind {
		case TornWrite:
			n := fault.TornBytes
			if n > len(p) {
				n = len(p)
			}
			if n > 0 {
				ff.inner.Write(p[:n])
				ff.inner.Sync()
			}
			ff.fs.crash()
			return n, fmt.Errorf("%w: torn write (%d of %d bytes) to %s", ErrCrashed, n, len(p), ff.name)
		case BitFlip:
			mut := append([]byte(nil), p...)
			if len(mut) > 0 {
				i := fault.FlipByte
				if i >= len(mut) {
					i = len(mut) - 1
				}
				mut[i] ^= 1 << (fault.FlipBit % 8)
			}
			n, err := ff.inner.Write(mut)
			if n > len(p) {
				n = len(p)
			}
			return n, err
		}
	}
	return ff.inner.Write(p)
}

func (ff *faultFile) Sync() error {
	if ff.readOnly {
		return ff.inner.Sync()
	}
	if _, _, err := ff.fs.step("sync " + ff.name); err != nil {
		return err
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Close() error {
	if ff.readOnly {
		return ff.inner.Close()
	}
	if _, _, err := ff.fs.step("close " + ff.name); err != nil {
		// On a simulated crash the OS would reclaim the descriptor;
		// mirror that so crash sweeps don't leak descriptors. A
		// transient error must leave the file open for the retry.
		if ff.fs.Crashed() {
			ff.inner.Close()
		}
		return err
	}
	return ff.inner.Close()
}

// CorruptAtRest damages a file that is already durably on "disk",
// bypassing the op counter and fault plan: the model for silent media
// decay after a successful commit, which scrubbing exists to catch.
// BitFlip flips bit FlipBit of byte FlipByte (clamped); Truncate keeps
// only the first TornBytes bytes. Other kinds are rejected.
func (f *FaultFS) CorruptAtRest(name string, fault Fault) error {
	f.mu.Lock()
	inner := f.inner
	f.mu.Unlock()

	src, err := inner.Open(name)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(src)
	src.Close()
	if err != nil {
		return err
	}

	switch fault.Kind {
	case BitFlip:
		if len(data) == 0 {
			return fmt.Errorf("store: CorruptAtRest(%s): empty file", name)
		}
		i := fault.FlipByte
		if i >= len(data) {
			i = len(data) - 1
		}
		if i < 0 {
			i = 0
		}
		data[i] ^= 1 << (fault.FlipBit % 8)
	case Truncate:
		n := fault.TornBytes
		if n < 0 {
			n = 0
		}
		if n >= len(data) {
			return fmt.Errorf("store: CorruptAtRest(%s): truncate to %d leaves %d-byte file intact", name, n, len(data))
		}
		data = data[:n]
	default:
		return fmt.Errorf("store: CorruptAtRest(%s): kind %s not applicable at rest", name, fault.Kind)
	}

	dst, err := inner.Create(name)
	if err != nil {
		return err
	}
	if _, err := dst.Write(data); err != nil {
		dst.Close()
		return err
	}
	if err := dst.Sync(); err != nil {
		dst.Close()
		return err
	}
	if err := dst.Close(); err != nil {
		return err
	}
	obs.Default().Counter(MetricInjectedFaults, "kind", fault.Kind.String()).Inc()
	journal.Note("faultfs.corrupt_at_rest", "kind", fault.Kind.String(), "name", name)
	return nil
}
