// stream.go is the checkpoint writer. Every checkpoint is one v2 stream:
// each entry's payload goes out in segments with the length and CRC
// trailing instead of leading, so the writer never has to hold a payload to
// frame it. A codec that writes an entry out as it produces it (Entry.W) at
// the head of the stream pipes its output straight through the segment
// framing in streamSegment pieces, and peak memory is the codec's own working
// set (O(workers × chunk) for the chunked lossy pipeline) plus what entries
// encoding behind the head have spilled (pipeline.go). A payload the codec
// returns whole (Encoded.Payload) is framed as one segment, so where its
// headers fall depends on its length alone. Readers accept this and the v1
// layout through readEntry.
//
// v2 entry layout (all integers little-endian):
//
//	u16 nameLen + name            — prologue, same serialization as v1
//	u16 dims
//	u64 extent × dims
//	{ u32 segLen (>0), payload[segLen] }*   — payload in segments
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
)

// readEntryV2 reads one v2 segmented entry. The prologue is re-serialized
// to feed the CRC exactly as the writer hashed it. A payload in one segment
// of a stream in memory is a view of the stream, as a v1 frame is; otherwise
// the segments are joined in a recycled buffer, which whoever gets the entry
// releases once nothing reads the payload any more.
func readEntryV2(br *byteReader, i int) (*rawEntry, error) {
	name, shape, err := readPrologue(br, i)
	if err != nil {
		return nil, err
	}
	crc := crc32.NewIEEE()
	crc.Write(entryPrologue(nil, name, shape))

	ent := &rawEntry{Name: name, Shape: shape}
	var payload []byte
	fail := func(err error) (*rawEntry, error) {
		if ent.buf != nil {
			*ent.buf = payload[:0]
		}
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
		if payload == nil {
			if payload = br.view(uint64(segLen)); payload != nil {
				crc.Write(payload)
				continue
			}
		}
		if ent.buf == nil {
			// A second segment, or a stream off a reader: join from here on.
			ent.buf = payloadBufs.Get().(*[]byte)
			payload = append((*ent.buf)[:0], payload...)
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
	if ent.Payload = payload; ent.buf != nil {
		*ent.buf = payload[:0]
	}
	return ent, nil
}

// payloadBufs recycles the buffers entries are read into — entries that come
// off a reader, and v2 payloads whose segments have to be joined —
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

// streamSegment bounds the segments a codec's piecewise output (Entry.W) is
// framed into — the only buffer the head entry's framing keeps, and the block
// size entries behind it spill in.
const streamSegment = 256 << 10

// maxSegment is the longest segment the u32 length field can carry: a payload
// held whole is split only past it.
const maxSegment = 1<<32 - 1

// Checkpoint compresses every registered array and writes one checkpoint
// stream to w. step is an application-defined counter stored in the header
// (the paper restarts NICAM at step 720; the counter lets restore resume
// time-dependent forcing). Codecs that write an entry out as they produce it
// (Entry.W) pipe their output straight into the segment framing — the chunked
// lossy pipeline overlaps compression with the write — and the others, and
// every entry under delta or quality telemetry, encode buffered and go out
// as one segment. Up to the manager's worker count of entries encode at once
// (pipeline.go): the head of the stream writes through, the ones behind it
// spill at most workers-1 compressed payloads, and the bytes written do not
// depend on the worker count.
func (m *Manager) Checkpoint(w io.Writer, step int) (rep *Report, err error) {
	return m.checkpoint(context.Background(), w, step)
}

// CheckpointStream is Checkpoint.
//
// Deprecated: use Checkpoint, which writes the same stream.
func (m *Manager) CheckpointStream(w io.Writer, step int) (*Report, error) {
	return m.Checkpoint(w, step)
}

// checkpoint is Checkpoint bound to a request context, in an operation of
// its own: cancellation is observed before each entry reaches the stream and
// at every write inside one, so a deadline expiring mid-checkpoint stops
// producing bytes promptly.
func (m *Manager) checkpoint(ctx context.Context, w io.Writer, step int) (rep *Report, err error) {
	op := m.beginCheckpoint(step)
	defer func() { op.End(err) }()
	return m.writeCheckpoint(ctx, op, w, step)
}

// writeCheckpoint is the one body that writes checkpoint entries, for
// Checkpoint and for a commit into a store alike, filling the caller's
// operation op.
func (m *Manager) writeCheckpoint(ctx context.Context, op *journal.Op, w io.Writer, step int) (rep *Report, err error) {
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
	if _, err := cw.Write(m.streamHeader(step)); err != nil {
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
			sw = &segmentWriter{w: cw, crc: crc}
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
				if err := sw.whole(payload); err != nil {
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

// segmentWriter frames one entry's payload into v2 segments on its way to
// the underlying writer, accumulating the total length and the running CRC
// (seeded with the entry prologue by the caller). finish writes the
// terminator and trailer; after it the writer is poisoned so a codec
// retaining the handle cannot corrupt the stream.
type segmentWriter struct {
	w   io.Writer
	crc hash.Hash32
	buf []byte // staged Write bytes short of a segment; allocated on first use
	n   uint64
	err error
}

// Write implements io.Writer for a codec's piecewise output. Segment
// boundaries fall every streamSegment payload bytes however the bytes arrive;
// a full segment that lies in p goes out from there, only what does not fill
// one is staged.
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
		if s.buf == nil {
			s.buf = make([]byte, 0, streamSegment)
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

// whole frames a payload the codec returned in one piece as one segment,
// written from where it lies, split only past maxSegment. Where its headers
// fall then depends on the payload's length alone: a payload that changed in
// one place keeps the bytes around every other place as they were, and a
// dedup store's chunks cut from them stay the same.
func (s *segmentWriter) whole(p []byte) error {
	if err := s.flush(); err != nil {
		return err
	}
	s.crc.Write(p)
	s.n += uint64(len(p))
	for len(p) > 0 {
		seg := p[:min(uint64(len(p)), maxSegment)]
		if err := s.segment(seg); err != nil {
			return err
		}
		p = p[len(seg):]
	}
	return nil
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
	if s.err != nil || len(s.buf) == 0 {
		return s.err
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
// (Report.FileBytes).
type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}
