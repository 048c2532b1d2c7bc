// pipeline.go is the one place a checkpoint's entries run concurrently,
// in both directions. Entries start in stream order, up to the manager's
// worker count are in flight, and each is finished — written out, or
// reported — on the caller's goroutine, oldest first. Everything the
// outside can observe (stream bytes, report order, which error comes
// back) is therefore what a serial loop over the entries would produce,
// for every worker count; only the codec work overlaps.
//
// Saving: the oldest entry in flight is the head of the stream and writes
// straight through its segment framing. Entries behind it spill their
// codec output into pooled blocks, drained through the same framing the
// moment they become head. A single-entry checkpoint is always head and
// never buffers; otherwise the extra memory is at most workers-1
// compressed payloads.
//
// Restoring: one scanner reads and CRC-checks entries serially, vets each
// against the caller's rules, and hands it to a decode job, which puts the
// array where the caller's rules said; results land in stream order.
package ckpt

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"lossyckpt/internal/grid"
)

// entryPipe is the ordered window of entry jobs described above.
type entryPipe struct {
	workers int
	flight  []*entryJob // started and not yet finished, oldest first
	wg      sync.WaitGroup
}

type entryJob struct {
	done   chan struct{}
	err    error // run's result, valid once done is closed
	head   func() error
	finish func(runErr error) error
}

// newEntryPipe returns a pipe keeping up to workers jobs in flight (0 =
// GOMAXPROCS).
func newEntryPipe(workers int) *entryPipe {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &entryPipe{workers: workers}
}

// start runs run on its own goroutine, first finishing the oldest job in
// flight if the window is full. The two callbacks run on the caller's
// goroutine, in start order across jobs: head (optional) when the job
// becomes the oldest in flight — before run starts if nothing else is,
// else while run may be going — and finish, with run's error, once it is
// the oldest and run has returned. An error from a callback comes back
// from the start or flush that invoked it.
func (p *entryPipe) start(run, head func() error, finish func(runErr error) error) error {
	if len(p.flight) == p.workers {
		if err := p.finishHead(); err != nil {
			return err
		}
	}
	if len(p.flight) == 0 && head != nil {
		if err := head(); err != nil {
			return err
		}
	}
	j := &entryJob{done: make(chan struct{}), head: head, finish: finish}
	p.flight = append(p.flight, j)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer close(j.done)
		j.err = run()
	}()
	return nil
}

// finishHead finishes the oldest job and makes the next one head, before
// anything new can start behind it.
func (p *entryPipe) finishHead() error {
	j := p.flight[0]
	p.flight[0] = nil // the job's closures hold a payload or a decoded array: let them go with it
	p.flight = p.flight[1:]
	<-j.done
	if err := j.finish(j.err); err != nil {
		return err
	}
	if len(p.flight) > 0 && p.flight[0].head != nil {
		return p.flight[0].head()
	}
	return nil
}

// flush finishes every job in flight, oldest first, up to the first
// error.
func (p *entryPipe) flush() error {
	for len(p.flight) > 0 {
		if err := p.finishHead(); err != nil {
			return err
		}
	}
	return nil
}

// wait returns once every started job has: callers defer it, so that no
// goroutine, and no write, outlives them on any path.
func (p *entryPipe) wait() { p.wg.Wait() }

// spillBlocks recycles the fixed-size blocks followers spill into. Fixed
// blocks, not a growing buffer: a spill never holds more than one block
// beyond the payload, and growing it copies nothing.
var spillBlocks = sync.Pool{New: func() any { return new([streamSegment]byte) }}

// errSpillStopped ends an encoder whose checkpoint is already failing;
// the checkpoint returns the failure, never this.
var errSpillStopped = errors.New("ckpt: checkpoint abandoned")

// spillWriter is where a streaming encoder writes. Until promote, bytes
// collect in pooled blocks; promote drains them into the entry's segment
// framing and sends every later write straight through.
type spillWriter struct {
	// stop is closed once the checkpoint is on its way out with an error,
	// so an encoder still spilling gives up at its next write. Nothing
	// else ends a spill: what the caller sees fail is the head of the
	// stream, as in a serial loop.
	stop   <-chan struct{}
	mu     sync.Mutex
	blocks []*[streamSegment]byte // all full but the last, which holds tail bytes
	tail   int
	sw     *segmentWriter // set by promote
}

func (s *spillWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	if sw := s.sw; sw != nil {
		s.mu.Unlock()
		return sw.Write(p)
	}
	defer s.mu.Unlock()
	select {
	case <-s.stop:
		return 0, errSpillStopped
	default:
	}
	for rest := p; len(rest) > 0; {
		if len(s.blocks) == 0 || s.tail == streamSegment {
			s.blocks = append(s.blocks, spillBlocks.Get().(*[streamSegment]byte))
			s.tail = 0
		}
		n := copy(s.blocks[len(s.blocks)-1][s.tail:], rest)
		s.tail += n
		rest = rest[n:]
	}
	return len(p), nil
}

// promote makes the entry head: what it spilled goes out through sw, in
// order, before any later write can. The lock is held across the drain
// for exactly that reason; only this entry's encoder ever waits on it.
func (s *spillWriter) promote(sw *segmentWriter) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sw = sw
	var err error
	for i, b := range s.blocks {
		end := streamSegment
		if i == len(s.blocks)-1 {
			end = s.tail
		}
		if err == nil {
			_, err = sw.Write(b[:end])
		}
		spillBlocks.Put(b)
	}
	s.blocks = nil
	return err
}

// entryScan is the one reader behind Restore, RestorePartial, loadStream
// and VerifyStream.
type entryScan struct {
	codec   Codec
	workers int
	// lenient skips what strict mode fails on — a damaged, rejected or
	// undecodable entry — and ends quietly at a torn tail.
	lenient bool
	// claim vets a CRC-clean entry on the scanning goroutine before it is
	// decoded. A non-nil field is where the decode job puts the array:
	// claim must hand each field out once. A strict scan has the codec
	// decode straight into it (Codec.Decode says what an error then leaves
	// there); a lenient one, where skipped must mean untouched, decodes
	// apart and copies only a whole array over. Nil claims everything.
	claim func(ent *rawEntry) (into *grid.Field, err error)
	// land receives each decoded entry on the scanning goroutine, in
	// stream order. May be nil.
	land func(ent *rawEntry, f *grid.Field)
}

// run scans hdr.Count entries off br. Strict mode returns the first error
// in stream order; lenient mode returns how many declared entries it
// could not deliver.
func (s *entryScan) run(br *byteReader, hdr *streamHeader) (skipped int, err error) {
	pipe := newEntryPipe(s.workers)
	defer pipe.wait()
	for i := 0; i < hdr.Count; i++ {
		ent, err := readEntry(br, hdr.Version, i)
		torn := err != nil && !errors.Is(err, errEntryDamaged)
		var into *grid.Field
		if err == nil && s.claim != nil {
			into, err = s.claim(ent)
		}
		if err != nil {
			ent.release()
			if !s.lenient {
				// Entries before this one fail first, as they would have
				// in a serial scan.
				if ferr := pipe.flush(); ferr != nil {
					return 0, ferr
				}
				return 0, err
			}
			if torn {
				skipped += hdr.Count - i // nothing beyond this point is framed
				break
			}
			skipped++
			continue
		}
		var f *grid.Field
		dest := into
		if s.lenient {
			dest = nil
		}
		err = pipe.start(func() (err error) {
			if f, err = s.codec.Decode(ent.Payload, ent.Shape, dest); err != nil {
				return fmt.Errorf("ckpt: decoding %q: %w", ent.Name, err)
			}
			if into != nil && f != into {
				copy(into.Data(), f.Data())
			}
			return nil
		}, nil, func(err error) error {
			// The decode has returned and land is the payload's last reader.
			defer ent.release()
			switch {
			case err != nil && s.lenient:
				skipped++
			case err != nil:
				return err
			case s.land != nil:
				s.land(ent, f)
			}
			return nil
		})
		if err != nil {
			// An older entry failed; this one's job never started.
			ent.release()
			return 0, err
		}
	}
	err = pipe.flush()
	return skipped, err
}
