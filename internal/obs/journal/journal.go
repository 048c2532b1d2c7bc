// Package journal is the flight recorder: every significant operation
// (checkpoint, restore, store commit, quorum vote, read-repair, scrub,
// tune probe, guard escalation) emits one structured wide event to an
// append-only JSONL file, so a single failed or slow operation can be
// replayed after the fact from the journal alone — no debugger, no
// re-run. The journal is bounded (size-based rotation over a small
// ring of files) and deliberately boring: encoding/json, O_APPEND
// writes, one mutex. A nil *Journal is a valid no-op recorder, exactly
// like a nil *obs.Registry, so call sites never branch on "is the
// flight recorder on".
//
// It is also the one front door for telemetry about operations: Begin
// opens an operation on the process journal and registry together (the
// method of the same name takes an explicit pair), and what the registry
// shows of it — its <SpanName>_seconds, _total and _errors_total series —
// is recorded by End, never a second time by the call site. A Note is a
// journal record only: the registry holds numbers, the journal events.
//
// Records carry an operation ID and the ID of the operation that was
// active when they began, so a checkpoint's store commit, its replica
// votes, and any guard escalations raised while encoding all join
// under one trace. Parent attribution uses a process-wide "active
// operation" register: exact for the sequential CLI and faultsim
// paths, best-effort when independent operations genuinely overlap.
package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lossyckpt/internal/obs"
)

// Defaults for Options fields left zero.
const (
	DefaultMaxBytes       = 4 << 20   // rotate the active file beyond 4 MiB
	DefaultMaxFiles       = 4         // active file + 3 rotated predecessors
	DefaultMaxRecordBytes = 256 << 10 // drop single records larger than this
)

// Options configures a Journal. The zero value is usable.
type Options struct {
	// MaxBytes rotates the active file once it exceeds this size.
	MaxBytes int64
	// MaxFiles bounds the rotation ring: the active file plus
	// MaxFiles-1 rotated predecessors (path.1 newest … path.N oldest).
	MaxFiles int
	// MaxRecordBytes drops any single encoded record larger than this
	// (counted on the process registry) instead of letting one degenerate
	// event blow the ring.
	MaxRecordBytes int
}

// Metric names the journal emits on the process registry.
const (
	MetricRecords        = "lossyckpt_journal_records_total"
	MetricBytes          = "lossyckpt_journal_bytes_total"
	MetricRotations      = "lossyckpt_journal_rotations_total"
	MetricDroppedRecords = "lossyckpt_journal_dropped_records_total"
	MetricWriteErrors    = "lossyckpt_journal_write_errors_total"
)

// Vote records one replica's outcome inside a quorum commit.
type Vote struct {
	Replica string `json:"replica"`
	OK      bool   `json:"ok"`
	Err     string `json:"err,omitempty"`
}

// Entry is the per-variable slice of a checkpoint/restore wide event:
// the stage waterfall, codec decisions, and guard outcome for one
// array.
type Entry struct {
	Var         string             `json:"var"`
	BytesIn     int                `json:"bytes_in,omitempty"`
	BytesOut    int                `json:"bytes_out,omitempty"`
	Codec       string             `json:"codec,omitempty"`
	Divisions   int                `json:"divisions,omitempty"`
	Guard       string             `json:"guard,omitempty"`
	Escalations int                `json:"escalations,omitempty"`
	Stages      map[string]float64 `json:"stages,omitempty"`
	// Chunks carries the per-chunk stage waterfall under the chunked
	// streaming path, in chunk order.
	Chunks []map[string]float64 `json:"chunks,omitempty"`
}

// Record is one wide event. Phase distinguishes the slim "begin"
// marker written when an operation starts (the evidence a killed
// process leaves behind), optional "progress" markers, and the full
// "end" event carrying the whole waterfall.
type Record struct {
	Time     time.Time          `json:"ts"`
	ID       string             `json:"id"`
	Parent   string             `json:"parent,omitempty"`
	Op       string             `json:"op"`
	Phase    string             `json:"phase"` // begin | progress | end | note
	Step     int                `json:"step,omitempty"`
	Seq      uint64             `json:"seq,omitempty"`
	Stage    string             `json:"stage,omitempty"`
	Err      string             `json:"err,omitempty"`
	Seconds  float64            `json:"seconds,omitempty"`
	BytesIn  int64              `json:"bytes_in,omitempty"`
	BytesOut int64              `json:"bytes_out,omitempty"`
	Stages   map[string]float64 `json:"stages,omitempty"`
	Entries  []Entry            `json:"entries,omitempty"`
	Votes    []Vote             `json:"votes,omitempty"`
	Attrs    map[string]string  `json:"attrs,omitempty"`
}

// Journal appends wide events to a JSONL file with size-based
// rotation. All methods are safe for concurrent use and safe on a nil
// receiver (no-op).
type Journal struct {
	mu sync.Mutex
	// f is nil once closed, and while broken: after a rotation that could not
	// reopen the active file, until an append's retry can.
	f      *os.File
	closed bool
	path   string
	size   int64
	opt    Options
	seq    atomic.Uint64

	// active is the ID of the most recent root operation still open —
	// the parent new operations and notes attach to. Best-effort under
	// concurrency (see package comment).
	active atomic.Pointer[string]
}

// Open creates (or appends to) the journal at path. The directory must
// exist.
func Open(path string, opt Options) (*Journal, error) {
	if opt.MaxBytes <= 0 {
		opt.MaxBytes = DefaultMaxBytes
	}
	if opt.MaxFiles <= 0 {
		opt.MaxFiles = DefaultMaxFiles
	}
	if opt.MaxRecordBytes <= 0 {
		opt.MaxRecordBytes = DefaultMaxRecordBytes
	}
	j := &Journal{path: path, opt: opt}
	if err := j.openLocked(os.O_APPEND); err != nil {
		return nil, fmt.Errorf("journal: open: %w", err)
	}
	return j, nil
}

// openLocked opens the active file — to append to what a previous run left,
// or truncated behind a rotation — and takes its size.
func (j *Journal) openLocked(flag int) error {
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|flag, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	j.f, j.size = f, st.Size()
	return nil
}

// Path returns the active journal file path ("" on nil).
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Close flushes and closes the active file. The journal must not be
// used afterwards.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closed = true
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// nextID mints a process-unique operation ID.
func (j *Journal) nextID() string {
	return fmt.Sprintf("op-%d-%d", os.Getpid(), j.seq.Add(1))
}

// append encodes and writes one record, rotating first if the active
// file is over budget. Drops (never blocks or fails the caller) on
// encode errors or oversized records.
func (j *Journal) append(rec *Record) {
	if j == nil {
		return
	}
	if rec.Time.IsZero() {
		rec.Time = time.Now().UTC()
	}
	b, err := json.Marshal(rec)
	if err != nil || len(b)+1 > j.opt.MaxRecordBytes {
		obs.Default().Counter(MetricDroppedRecords).Inc()
		return
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	o := obs.Default()
	if j.f != nil && j.size+int64(len(b)) > j.opt.MaxBytes && j.size > 0 {
		j.rotateLocked()
	}
	if j.f == nil {
		// Broken, not closed: the ring was shifted — now or by an earlier
		// append — and the active file could not be opened behind it. Every
		// append tries again, and counts the record it loses while it cannot.
		if err := j.openLocked(os.O_TRUNC); err != nil {
			o.Counter(MetricWriteErrors).Inc()
			o.Counter(MetricDroppedRecords).Inc()
			return
		}
	}
	n, err := j.f.Write(b)
	j.size += int64(n)
	if err != nil {
		o.Counter(MetricWriteErrors).Inc()
		return
	}
	o.Counter(MetricRecords).Inc()
	o.Counter(MetricBytes).Add(float64(n))
}

// rotateLocked shifts path → path.1 → … → path.(MaxFiles-1), dropping
// the oldest, and leaves the journal without an active file: append opens a
// fresh one. Errors are swallowed (the recorder must never take down the
// recorded).
func (j *Journal) rotateLocked() {
	j.f.Close()
	j.f = nil
	for i := j.opt.MaxFiles - 1; i >= 1; i-- {
		from := j.path
		if i > 1 {
			from = fmt.Sprintf("%s.%d", j.path, i-1)
		}
		to := fmt.Sprintf("%s.%d", j.path, i)
		if i == j.opt.MaxFiles-1 {
			os.Remove(to)
		}
		os.Rename(from, to)
	}
	obs.Default().Counter(MetricRotations).Inc()
}

// RotatedSet lists the existing files of a rotation ring oldest-first
// for a given base path and ring size (0 means DefaultMaxFiles).
func RotatedSet(path string, maxFiles int) []string {
	if maxFiles <= 0 {
		maxFiles = DefaultMaxFiles
	}
	var out []string
	for i := maxFiles - 1; i >= 1; i-- {
		p := fmt.Sprintf("%s.%d", path, i)
		if _, err := os.Stat(p); err == nil {
			out = append(out, p)
		}
	}
	if _, err := os.Stat(path); err == nil {
		out = append(out, path)
	}
	return out
}

// SpanName is the one rule that names an operation's registry series:
// "lossyckpt_" and the op name with its dots as underscores, so store.commit
// feeds lossyckpt_store_commit_seconds, _total and _errors_total.
func SpanName(op string) string {
	return "lossyckpt_" + strings.ReplaceAll(op, ".", "_")
}

// series holds each op name's three registry series — _seconds, _total,
// _errors_total — named once, so an End on a registry alone costs no more
// than the Op. Op names are the call sites' own, a set fixed by the code.
var series sync.Map // op name → *[3]string

func seriesOf(op string) *[3]string {
	if n, ok := series.Load(op); ok {
		return n.(*[3]string)
	}
	name := SpanName(op)
	n, _ := series.LoadOrStore(op, &[3]string{name + "_seconds", name + "_total", name + "_errors_total"})
	return n.(*[3]string)
}

// Op is an in-flight operation: the one span a call site opens. It
// accumulates one wide event for the journal and, on End, records the
// operation's duration and count series on the registry; either sink may be
// absent. Created by Begin, finished by End. Safe on a nil receiver and for
// concurrent mutation (replica vote outcomes arrive from worker goroutines);
// mutations after End are dropped, and so is every one on an Op without a
// journal: the record they fill is the journal's.
type Op struct {
	j     *Journal      // nil: no flight recorder
	r     *obs.Registry // nil: no registry
	mu    sync.Mutex
	rec   Record
	start time.Time
	root  bool
	done  bool
}

// Begin opens an operation on the sinks that are set — the journal, the
// registry r, or both — and returns nil, at no cost, when neither is. On the
// journal a slim begin record is written immediately (the evidence a kill
// leaves behind) and the returned Op accumulates the waterfall until End; a
// registry alone gets the Op and its clock, nothing rendered. attrs are
// alternating keys and values (see attrString for the value types).
func (j *Journal) Begin(r *obs.Registry, op string, attrs ...any) *Op {
	if j == nil && r == nil {
		return nil
	}
	o := &Op{j: j, r: r, start: time.Now(), rec: Record{Op: op}}
	if j == nil {
		return o
	}
	o.rec.ID, o.rec.Attrs = j.nextID(), attrMap(attrs)
	if o.root = j.active.CompareAndSwap(nil, &o.rec.ID); !o.root {
		if p := j.active.Load(); p != nil {
			o.rec.Parent = *p
		}
	}
	j.append(&Record{
		ID:     o.rec.ID,
		Parent: o.rec.Parent,
		Op:     op,
		Phase:  "begin",
		Attrs:  o.rec.Attrs,
	})
	return o
}

// ID returns the operation ID ("" on nil).
func (o *Op) ID() string {
	if o == nil {
		return ""
	}
	return o.rec.ID
}

// lock takes the Op to fill its record, or reports that there is nothing to
// fill: no Op, no journal, or the operation has ended.
func (o *Op) lock() bool {
	if o == nil || o.j == nil {
		return false
	}
	o.mu.Lock()
	if o.done {
		o.mu.Unlock()
		return false
	}
	return true
}

// Set adds or overwrites attributes on the final record.
func (o *Op) Set(attrs ...any) {
	if !o.lock() {
		return
	}
	defer o.mu.Unlock()
	if o.rec.Attrs == nil {
		o.rec.Attrs = map[string]string{}
	}
	for i := 0; i+1 < len(attrs); i += 2 {
		o.rec.Attrs[attrString(attrs[i])] = attrString(attrs[i+1])
	}
}

// SetStep records the application step the operation acts on.
func (o *Op) SetStep(step int) {
	if o.lock() {
		o.rec.Step = step
		o.mu.Unlock()
	}
}

// SetSeq records the store generation sequence.
func (o *Op) SetSeq(seq uint64) {
	if o.lock() {
		o.rec.Seq = seq
		o.mu.Unlock()
	}
}

// SetBytes records the operation's input/output byte totals.
func (o *Op) SetBytes(in, out int64) {
	if o.lock() {
		o.rec.BytesIn, o.rec.BytesOut = in, out
		o.mu.Unlock()
	}
}

// Stage records one stage's duration in the operation waterfall.
func (o *Op) Stage(name string, d time.Duration) {
	if !o.lock() {
		return
	}
	defer o.mu.Unlock()
	if o.rec.Stages == nil {
		o.rec.Stages = map[string]float64{}
	}
	o.rec.Stages[name] += d.Seconds()
}

// Entry appends one per-variable entry to the wide event.
func (o *Op) Entry(e Entry) {
	if o.lock() {
		o.rec.Entries = append(o.rec.Entries, e)
		o.mu.Unlock()
	}
}

// Vote appends one replica vote outcome to the wide event.
func (o *Op) Vote(replica string, ok bool, err error) {
	v := Vote{Replica: replica, OK: ok}
	if err != nil {
		v.Err = err.Error()
	}
	if o.lock() {
		o.rec.Votes = append(o.rec.Votes, v)
		o.mu.Unlock()
	}
}

// Progress writes an immediate slim record marking the furthest stage
// reached and bytes handled so far — the breadcrumb trail a
// kill-mid-operation replay walks.
func (o *Op) Progress(stage string, bytes int64) {
	if o == nil || o.j == nil {
		return
	}
	o.j.append(&Record{
		ID:       o.rec.ID,
		Parent:   o.rec.Parent,
		Op:       o.rec.Op,
		Phase:    "progress",
		Stage:    stage,
		BytesOut: bytes,
	})
}

// End finishes the operation: the registry gets one observation of the
// duration under SpanName(op)_seconds, one count under _total and, if err is
// set, one under _errors_total; the full wide event is written with total
// duration and the error, if any; and the active-operation register is
// released if this Op held it. From here on the record is End's alone: every
// later mutation is dropped.
func (o *Op) End(err error) {
	if o == nil {
		return
	}
	o.mu.Lock()
	if o.done {
		o.mu.Unlock()
		return
	}
	o.done = true
	o.mu.Unlock()
	d := time.Since(o.start)
	if o.r != nil {
		n := seriesOf(o.rec.Op)
		o.r.Histogram(n[0], obs.DurationBuckets).ObserveDuration(d)
		o.r.Counter(n[1]).Inc()
		if err != nil {
			o.r.Counter(n[2]).Inc()
		}
	}
	if o.j == nil {
		return
	}
	o.rec.Phase = "end"
	o.rec.Seconds = d.Seconds()
	if err != nil {
		o.rec.Err = err.Error()
	}
	if o.root {
		// While this Op held the register no other Begin could replace
		// it (they only CAS from nil), so an unconditional clear is
		// safe.
		o.j.active.Store(nil)
	}
	o.j.append(&o.rec)
}

// Note records one single-shot fact — a guard escalation, a tune decision,
// a read repair — as one self-contained wide event (begin+end collapsed) in
// the journal, where it inherits the active operation as parent. Without a
// journal it does nothing: what a layer counts of the fact, it counts itself.
func (j *Journal) Note(op string, attrs ...any) {
	if j == nil {
		return
	}
	var parent string
	if p := j.active.Load(); p != nil {
		parent = *p
	}
	j.append(&Record{
		ID:     j.nextID(),
		Parent: parent,
		Op:     op,
		Phase:  "note",
		Attrs:  attrMap(attrs),
	})
}

// attrString renders one attribute key or value. The types are the ones call
// sites pass — strings, integers, booleans; an error goes in as its Error()
// — and the switch is closed on purpose: handing a value to fmt would make
// every caller's arguments escape, and Begin and Note must cost nothing when
// no journal is set. Anything else records as its type name.
func attrString(v any) string {
	switch v := v.(type) {
	case nil:
		return ""
	case string:
		return v
	case int:
		return strconv.Itoa(v)
	case int64:
		return strconv.FormatInt(v, 10)
	case uint64:
		return strconv.FormatUint(v, 10)
	case bool:
		return strconv.FormatBool(v)
	}
	return "!" + reflect.TypeOf(v).String()
}

// attrMap renders alternating keys and values into a map.
func attrMap(attrs []any) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs)/2)
	for i := 0; i+1 < len(attrs); i += 2 {
		m[attrString(attrs[i])] = attrString(attrs[i+1])
	}
	return m
}

// defaultJournal is the process-wide recorder, mirroring obs.Default:
// install once in main, record everywhere without plumbing.
var defaultJournal atomic.Pointer[Journal]

// Default returns the process-wide journal, or nil (a valid no-op
// recorder) when none is installed.
func Default() *Journal { return defaultJournal.Load() }

// SetDefault installs j as the process-wide journal and returns the
// previous one. SetDefault(nil) disables default recording.
func SetDefault(j *Journal) *Journal { return defaultJournal.Swap(j) }

// Begin opens an operation on the process journal and registry, the one
// route every layer records on.
func Begin(op string, attrs ...any) *Op { return Default().Begin(obs.Default(), op, attrs...) }

// Note records a single-shot fact on the process journal.
func Note(op string, attrs ...any) { Default().Note(op, attrs...) }
