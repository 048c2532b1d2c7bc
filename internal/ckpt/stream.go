// stream.go adds the v2 streaming checkpoint format. The buffered
// Checkpoint assembles the whole framed stream in memory before the
// writer sees its first byte — peak memory is O(total payload). v2
// frames each entry's payload in bounded segments with the length and
// CRC trailing instead of leading, so CheckpointStream can pipe the head
// entry's codec output straight through to the writer: peak memory drops
// to the codec's own working set (O(workers × chunk) for the chunked
// lossy pipeline) plus what entries encoding behind the head have spilled
// (pipeline.go). Readers accept both versions through readEntry.
//
// v2 entry layout (all integers little-endian):
//
//	u16 nameLen + name            — prologue, same serialization as v1
//	u16 dims
//	u64 extent × dims
//	{ u32 segLen (>0), payload[segLen] }*   — payload in bounded segments
//	u32 0                         — segment terminator
//	u64 payloadLen                — trailer: total payload bytes
//	u32 crc32(prologue ++ payload)
//
// A trailer mismatch marks the entry damaged but leaves the scan
// aligned on the next entry (segments framed the payload), so partial
// recovery skips it exactly like a v1 CRC failure. A structural
// failure (truncated segment, implausible length) tears the stream.
package ckpt

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"lossyckpt/internal/obs/journal"
	"lossyckpt/internal/store"
)

// readEntryV2 reads one v2 segmented entry. The prologue is re-serialized
// to feed the CRC exactly as the writer hashed it. The payload is assembled
// in a recycled buffer: whoever gets the entry releases it once nothing reads
// the payload any more.
func readEntryV2(br *byteReader, i int) (*rawEntry, error) {
	name, shape, err := readPrologue(br, i)
	if err != nil {
		return nil, err
	}
	crc := crc32.NewIEEE()
	crc.Write(entryPrologue(nil, name, shape))

	ent := &rawEntry{Name: name, Shape: shape, buf: payloadBufs.Get().(*[]byte)}
	payload := (*ent.buf)[:0]
	fail := func(err error) (*rawEntry, error) {
		*ent.buf = payload[:0]
		ent.release()
		return nil, err
	}
	for {
		segLen := br.u32()
		if br.err != nil {
			return fail(fmt.Errorf("%w: entry %d segment header: %v", ErrFormat, i, br.err))
		}
		if segLen == 0 {
			break
		}
		if uint64(len(payload))+uint64(segLen) > maxPayloadLen {
			return fail(fmt.Errorf("%w: entry %d payload exceeds cap", ErrFormat, i))
		}
		seg := len(payload)
		if payload, err = appendExactly(payload, br, uint64(segLen)); err != nil {
			return fail(fmt.Errorf("%w: entry %d segment: %v", ErrFormat, i, err))
		}
		crc.Write(payload[seg:])
	}
	wantLen := br.u64()
	wantCRC := br.u32()
	if br.err != nil {
		return fail(fmt.Errorf("%w: entry %d trailer: %v", ErrFormat, i, br.err))
	}
	if wantLen != uint64(len(payload)) || wantCRC != crc.Sum32() {
		return fail(fmt.Errorf("%w: entry %d trailer mismatch", errEntryDamaged, i))
	}
	ent.Payload, *ent.buf = payload, payload[:0]
	return ent, nil
}

// payloadBufs recycles the buffers entries are read into — v2 payloads,
// whose segments have to be joined, and v1 frames that come off a reader —
// across the entries of a restore and across restores: a restore reads the
// same few sizes every time, and growing a fresh slice to each of them by
// bounded appends copied every payload about twice.
var payloadBufs = sync.Pool{New: func() any { return new([]byte) }}

// release hands the entry's buffer back for the next entry to be read into.
// Nothing may read Payload afterwards. A nil entry, or one that is a view of
// a stream in memory, has nothing to hand back.
func (e *rawEntry) release() {
	if e != nil && e.buf != nil {
		payloadBufs.Put(e.buf)
		e.buf, e.Payload = nil, nil
	}
}

// streamSegment bounds the segment size CheckpointStream frames payload
// bytes into — the only buffer the head entry's framing keeps, and the
// block size entries behind it spill in.
const streamSegment = 256 << 10

// CheckpointStream compresses every registered array and writes one v2
// checkpoint stream to w without the writer side ever buffering a whole
// payload: codecs that write an entry out as they produce it (Entry.W) pipe
// their output straight into the segment framing (the chunked lossy pipeline
// overlaps compression with the write), others encode buffered per entry. Up to
// the manager's worker count of entries encode at once (pipeline.go): the
// head of the stream writes through, the ones behind it spill at most
// workers-1 compressed payloads, and the bytes written do not depend on
// the worker count.
func (m *Manager) CheckpointStream(w io.Writer, step int) (rep *Report, err error) {
	return m.CheckpointStreamCtx(context.Background(), w, step)
}

// CheckpointStreamCtx is CheckpointStream bound to a request context:
// cancellation is observed before each entry reaches the stream and at
// every write inside one, so a deadline expiring mid-checkpoint stops
// producing bytes promptly — the store side then aborts its payload
// cleanly.
func (m *Manager) CheckpointStreamCtx(ctx context.Context, w io.Writer, step int) (rep *Report, err error) {
	op := m.beginCheckpoint("stream", step)
	defer func() { op.End(err) }()
	return m.checkpointStream(ctx, op, w, step)
}

// checkpointStream is the body of CheckpointStreamCtx, filling the caller's
// operation op.
func (m *Manager) checkpointStream(ctx context.Context, op *journal.Op, w io.Writer, step int) (rep *Report, err error) {
	start := time.Now()
	if w = ctxWriter(ctx, w); ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("ckpt: checkpoint: %w", err)
		}
	}
	if len(m.names) == 0 {
		return nil, fmt.Errorf("%w: no fields registered", ErrRegistered)
	}
	if step < 0 {
		return nil, fmt.Errorf("%w: negative step %d", ErrRegistered, step)
	}
	encoded := make([]*Encoded, len(m.names))
	defer func() { m.closeCheckpoint(op, rep, encoded, err) }()

	cw := &countingWriter{w: w}
	if _, err := cw.Write(m.streamHeader(fileVersionStream, step)); err != nil {
		return nil, fmt.Errorf("ckpt: write: %w", err)
	}

	rep = &Report{Codec: m.codec.Name(), Step: step}
	m.primeDelta()
	// Once this call is on its way out, encoders still spilling behind the
	// head stop at their next write; wait then keeps every goroutine, and
	// every write to w, inside the call.
	stop := make(chan struct{})
	pipe := newEntryPipe(m.workers)
	defer func() {
		close(stop)
		pipe.wait()
	}()
	for i, name := range m.names {
		f := m.fields[name]
		out := &spillWriter{stop: stop}
		var sw *segmentWriter
		err := pipe.start(func() (err error) {
			encoded[i], err = m.encodeEntry(out, name, f)
			return err
		}, func() error {
			// Head of the stream: prologue out, then whatever the encoder
			// spilled so far, then the encoder writing straight through.
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("ckpt: checkpoint: %w", cerr)
			}
			pro := entryPrologue(nil, name, f.Shape())
			crc := crc32.NewIEEE()
			crc.Write(pro)
			if _, err := cw.Write(pro); err != nil {
				return fmt.Errorf("ckpt: write: %w", err)
			}
			sw = newSegmentWriter(cw, crc)
			if err := out.promote(sw); err != nil {
				// Spilled bytes are the encoder's writes, deferred: they
				// fail as those would have.
				return fmt.Errorf("ckpt: encoding %q: %w", name, err)
			}
			return nil
		}, func(err error) error {
			if err != nil {
				return fmt.Errorf("ckpt: encoding %q: %w", name, err)
			}
			if payload := encoded[i].Payload; payload != nil {
				// Buffered encode (delta, or a codec that cannot stream):
				// the payload exists in memory; frame it from there.
				if _, err := sw.Write(payload); err != nil {
					return fmt.Errorf("ckpt: write: %w", err)
				}
			}
			if err := sw.finish(); err != nil {
				return fmt.Errorf("ckpt: write: %w", err)
			}
			rep.addEntry(name, encoded[i], int(sw.n))
			// Breadcrumb for kill-mid-checkpoint replay: the furthest entry
			// written and the stream bytes produced so far.
			op.Progress("entry:"+name, int64(cw.n))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if err := pipe.flush(); err != nil {
		return nil, err
	}
	rep.FileBytes = cw.n
	rep.Wall = time.Since(start)
	return rep, nil
}

// CheckpointStreamTo streams a v2 checkpoint straight into the store's
// next generation via CommitStream: compression, entropy coding and
// store I/O overlap, and neither the manager nor the store buffers the
// stream. The durability protocol is identical to CheckpointTo.
func (m *Manager) CheckpointStreamTo(st store.Target, step int) (rep *Report, gen store.Generation, err error) {
	return m.CheckpointStreamToCtx(context.Background(), st, step)
}

// CheckpointStreamToCtx is CheckpointStreamTo bound to a request
// context: the context reaches both the producer (entry boundaries and
// writes) and the store's commit/retry path, so one cancellation tears
// the whole pipeline down cleanly — partial payload removed, previous
// latest generation still indexed.
func (m *Manager) CheckpointStreamToCtx(ctx context.Context, st store.Target, step int) (rep *Report, gen store.Generation, err error) {
	op := m.beginCheckpoint("stream", step)
	defer func() { op.SetSeq(gen.Seq); op.End(err) }()
	gen, err = st.CommitStreamCtx(ctx, step, func(w io.Writer) error {
		var cerr error
		rep, cerr = m.checkpointStream(ctx, op, w, step)
		return cerr
	})
	if err != nil {
		return nil, store.Generation{}, err
	}
	return rep, gen, nil
}

// ctxWriter wraps w so every write observes ctx first — the bound that
// stops a streaming codec mid-entry once its request is cancelled. A
// background context (Done() == nil) passes w through untouched.
func ctxWriter(ctx context.Context, w io.Writer) io.Writer {
	if ctx.Done() == nil {
		return w
	}
	return &ctxCheckedWriter{ctx: ctx, w: w}
}

type ctxCheckedWriter struct {
	ctx context.Context
	w   io.Writer
}

func (c *ctxCheckedWriter) Write(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.w.Write(p)
}

// segmentWriter frames payload bytes into streamSegment-sized v2
// segments on its way to the underlying writer, accumulating the total
// length and the running CRC (seeded with the entry prologue by the
// caller). finish writes the terminator and trailer; after it the
// writer is poisoned so a codec retaining the handle cannot corrupt the
// stream.
type segmentWriter struct {
	w   io.Writer
	crc hash.Hash32
	buf []byte
	n   uint64
	err error
}

func newSegmentWriter(w io.Writer, crc hash.Hash32) *segmentWriter {
	return &segmentWriter{w: w, crc: crc, buf: make([]byte, 0, streamSegment)}
}

// Write implements io.Writer. Segment boundaries fall every streamSegment
// payload bytes however the bytes arrive; a full segment that lies in p goes
// out from there, only what does not fill one is staged.
func (s *segmentWriter) Write(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	s.crc.Write(p)
	s.n += uint64(len(p))
	for rest := p; len(rest) > 0; {
		if len(s.buf) == 0 && len(rest) >= streamSegment {
			if err := s.segment(rest[:streamSegment]); err != nil {
				return 0, err
			}
			rest = rest[streamSegment:]
			continue
		}
		take := min(streamSegment-len(s.buf), len(rest))
		s.buf = append(s.buf, rest[:take]...)
		rest = rest[take:]
		if len(s.buf) == streamSegment {
			if err := s.flush(); err != nil {
				return 0, err
			}
		}
	}
	return len(p), nil
}

// segment emits seg as one length-prefixed segment.
func (s *segmentWriter) segment(seg []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(seg)))
	if _, s.err = s.w.Write(hdr[:]); s.err == nil {
		_, s.err = s.w.Write(seg)
	}
	return s.err
}

// flush emits the staged bytes, if any, as one segment.
func (s *segmentWriter) flush() error {
	if len(s.buf) == 0 {
		return nil
	}
	err := s.segment(s.buf)
	s.buf = s.buf[:0]
	return err
}

// finish flushes the tail segment and writes the terminator and trailer,
// then poisons the writer.
func (s *segmentWriter) finish() error {
	if s.err != nil {
		return s.err
	}
	if err := s.flush(); err != nil {
		return err
	}
	var tail [16]byte // u32 0 terminator + u64 payloadLen + u32 crc
	binary.LittleEndian.PutUint64(tail[4:], s.n)
	binary.LittleEndian.PutUint32(tail[12:], s.crc.Sum32())
	if _, err := s.w.Write(tail[:]); err != nil {
		s.err = err
		return err
	}
	s.err = fmt.Errorf("ckpt: segment writer already finished")
	return nil
}

// countingWriter counts bytes through to the underlying writer
// (Report.FileBytes for the streaming path).
type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}
