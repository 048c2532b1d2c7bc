package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"lossyckpt/internal/store"
)

// A span is one timed call into a layer, recorded from outside it: by timing
// the call to a package's public function, or by the timing filesystem handed
// to the store through store.Options.FS. Parent is the index of the span
// that caused it and Op the index of the top-level span it belongs to (-1
// and its own index for a top-level span).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the tracer started
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Bytes  int    `json:"bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends. While it is off (the
// untraced phases of a traced run) begin records nothing.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	cur   atomic.Int64 // the open span new spans are children of, -1 for none
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.cur.Store(-1)
	return t
}

// begin opens a span under the current one and returns its index, -1 when
// the tracer is off.
func (t *tracer) begin(name string) int {
	if t == nil || !t.on.Load() {
		return -1
	}
	now := int64(time.Since(t.t0))
	parent := int(t.cur.Load())
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	op := id
	if parent >= 0 {
		op = t.spans[parent].Op
	}
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	return id
}

func (t *tracer) end(id, bytes int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End, t.spans[id].Bytes = now, bytes
	t.mu.Unlock()
}

// in runs fn inside a span and returns how long fn took; a nil tracer only
// times it. With nest the span becomes the parent of every span begun until
// fn returns, on any goroutine: that is for a single driver of ops, and
// concurrent clients pass false.
func (t *tracer) in(name string, nest bool, fn func() error) (time.Duration, error) {
	id := t.begin(name)
	if id >= 0 && nest {
		defer t.cur.Store(t.cur.Swap(int64(id)))
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	t.end(id, 0)
	return d, err
}

// opSums adds up, for every top-level span called op, the durations (ms),
// counts and bytes of its descendant spans called name, one entry per op.
func (t *tracer) opSums(op, name string) (durMs, count, bytes []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := map[int]int{}
	for i, s := range t.spans {
		if s.Parent < 0 && s.Name == op {
			idx[i] = len(durMs)
			durMs, count, bytes = append(durMs, 0), append(count, 0), append(bytes, 0)
		}
	}
	for _, s := range t.spans {
		if k, ok := idx[s.Op]; ok && s.Parent >= 0 && s.Name == name {
			durMs[k] += float64(s.End-s.Start) / 1e6
			count[k]++
			bytes[k] += float64(s.Bytes)
		}
	}
	return durMs, count, bytes
}

// durations lists the duration in ms of every span called name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start)/1e6)
		}
	}
	return d
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// traceFS is the OS filesystem with a span around every operation that
// writes or makes data durable, and around reads.
type traceFS struct {
	store.OsFS
	t *tracer
}

// Create tells the chunk files of a dedup store (under its cas directory)
// from generation, recipe and manifest files, so that the chunks a commit
// had to write can be counted.
func (f traceFS) Create(name string) (store.File, error) {
	kind := "fs.create"
	if filepath.Base(filepath.Dir(name)) == store.CASDir {
		kind = "fs.create_chunk"
	}
	id := f.t.begin(kind)
	file, err := f.OsFS.Create(name)
	f.t.end(id, 0)
	if err != nil {
		return nil, err
	}
	return traceFile{file, f.t}, nil
}

func (f traceFS) Open(name string) (store.File, error) {
	file, err := f.OsFS.Open(name)
	if err != nil {
		return nil, err
	}
	return traceFile{file, f.t}, nil
}

func (f traceFS) Rename(oldname, newname string) error {
	id := f.t.begin("fs.rename")
	defer f.t.end(id, 0)
	return f.OsFS.Rename(oldname, newname)
}

func (f traceFS) SyncDir(dir string) error {
	id := f.t.begin("fs.sync")
	defer f.t.end(id, 0)
	return f.OsFS.SyncDir(dir)
}

type traceFile struct {
	store.File
	t *tracer
}

func (f traceFile) Write(p []byte) (int, error) {
	id := f.t.begin("fs.write")
	n, err := f.File.Write(p)
	f.t.end(id, n)
	return n, err
}

func (f traceFile) Read(p []byte) (int, error) {
	id := f.t.begin("fs.read")
	n, err := f.File.Read(p)
	f.t.end(id, n)
	return n, err
}

func (f traceFile) Sync() error {
	id := f.t.begin("fs.sync")
	defer f.t.end(id, 0)
	return f.File.Sync()
}
