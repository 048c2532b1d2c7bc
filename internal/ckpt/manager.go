package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"slices"
	"time"

	"lossyckpt/internal/core"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/guard"
	"lossyckpt/internal/obs/journal"
)

// Errors returned by the manager.
var (
	// ErrRegistered indicates a duplicate or invalid registration.
	ErrRegistered = errors.New("ckpt: registration error")
	// ErrFormat indicates a malformed checkpoint stream.
	ErrFormat = errors.New("ckpt: malformed checkpoint stream")
	// ErrMismatch indicates a checkpoint incompatible with the registered
	// state (different codec, variables or shapes).
	ErrMismatch = errors.New("ckpt: checkpoint does not match registered state")
)

const (
	fileMagic = 0x54504B43 // "CKPT"
	// fileVersion is the buffered stream layout Checkpoint writes: every
	// entry is one length-prefixed frame with its CRC up front.
	fileVersion = 1
	// fileVersionStream is the streaming layout CheckpointStream writes:
	// entries carry their payload in bounded segments with length and CRC
	// trailing, so the writer never buffers a whole payload. Readers
	// accept both versions.
	fileVersionStream = 2
	maxNameLen        = 4096
	// maxVars bounds the header-declared variable count so a corrupt
	// header cannot drive an unbounded parse loop.
	maxVars = 1 << 20
	// maxPayloadLen bounds any single entry payload (1 TiB) — a second
	// line of defense behind the remaining-input checks.
	maxPayloadLen = 1 << 40
)

// Manager registers an application's state arrays and writes/reads framed
// checkpoint streams. A Manager is not safe for concurrent use: each call
// is externally synchronous. Inside a call, up to `workers` entries are
// encoded or decoded at once by the entry pipeline (pipeline.go), and the
// chunked codecs split one array further.
type Manager struct {
	codec   Codec
	workers int
	names   []string
	fields  map[string]*grid.Field
	// quality enables per-variable reconstruction-quality gauges for
	// lossy codecs (opt-in: it costs a decode round-trip per entry).
	quality bool
	// curOp is the operation a wrapping call (CheckpointTo,
	// RestoreLatest) already opened: the inner Checkpoint/Restore call
	// enriches it instead of opening its own. A Manager is documented
	// as not safe for concurrent use, so a plain field suffices.
	curOp *journal.Op
	// delta, when non-nil, carries per-variable fingerprints and cached
	// encodings between checkpoints (see delta.go). nil = delta off.
	delta map[string]*varDelta
}

// NewManager returns a manager using the given codec. workers bounds how
// many registered arrays a checkpoint or restore works on at once; 0 means
// GOMAXPROCS.
func NewManager(codec Codec, workers int) *Manager {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Manager{
		codec:   codec,
		workers: workers,
		fields:  make(map[string]*grid.Field),
	}
}

// Register adds a named array to the checkpointed state. The manager keeps
// a reference: Checkpoint reads the live data, Restore overwrites it.
func (m *Manager) Register(name string, f *grid.Field) error {
	if name == "" || len(name) > maxNameLen {
		return fmt.Errorf("%w: invalid name %q", ErrRegistered, name)
	}
	if f == nil {
		return fmt.Errorf("%w: nil field for %q", ErrRegistered, name)
	}
	if _, dup := m.fields[name]; dup {
		return fmt.Errorf("%w: duplicate name %q", ErrRegistered, name)
	}
	m.names = append(m.names, name)
	m.fields[name] = f
	return nil
}

// RegisterAll registers a list of named fields, failing on the first error.
func (m *Manager) RegisterAll(fields []grid.Named) error {
	for _, nf := range fields {
		if err := m.Register(nf.Name, nf.Field); err != nil {
			return err
		}
	}
	return nil
}

// Names returns the registered variable names in registration order.
func (m *Manager) Names() []string { return append([]string(nil), m.names...) }

// EntryReport is the per-array accounting of one checkpoint.
type EntryReport struct {
	Name            string
	RawBytes        int
	CompressedBytes int
	Timings         core.Timings
	// Guarantee is the quality annotation the entry carries (guard codec
	// only; nil otherwise). On checkpoint it is the guarantee just
	// established; on restore it is parsed back off the payload envelope
	// so callers can report what the generation actually promised.
	Guarantee *guard.Annotation
	// Reused marks an entry served whole from the delta cache; SlabsReused
	// counts slab-level reuse under the chunked lossy delta path.
	Reused      bool
	SlabsReused int
}

// Report aggregates one Checkpoint or Restore.
type Report struct {
	Codec   string
	Entries []EntryReport
	// RawBytes and CompressedBytes sum over all entries (payload only,
	// excluding framing).
	RawBytes        int
	CompressedBytes int
	// FileBytes is the full framed stream size (Checkpoint only).
	FileBytes int
	// Wall is the total wall-clock duration of the operation.
	Wall time.Duration
	// Step is the application step counter stored in the stream.
	Step int
	// Delta-mode reuse accounting (zero when delta is off): entries served
	// whole from cache, and slabs reused vs freshly compressed under the
	// chunked lossy path.
	ReusedEntries        int
	DeltaSlabsReused     int
	DeltaSlabsCompressed int
}

// CompressionRatePct returns the aggregate cr (Eq. 5) in percent.
func (r *Report) CompressionRatePct() float64 {
	if r.RawBytes == 0 {
		return math.NaN()
	}
	return 100 * float64(r.CompressedBytes) / float64(r.RawBytes)
}

// AggregateTimings sums the per-entry phase breakdowns.
func (r *Report) AggregateTimings() core.Timings {
	var t core.Timings
	for _, e := range r.Entries {
		t.Wavelet += e.Timings.Wavelet
		t.Quantize += e.Timings.Quantize
		t.Encode += e.Timings.Encode
		t.Format += e.Timings.Format
		t.TempWrite += e.Timings.TempWrite
		t.Gzip += e.Timings.Gzip
		t.Total += e.Timings.Total
	}
	return t
}

// Checkpoint compresses every registered array (up to the worker count at
// once, through the entry pipeline) and writes one framed checkpoint
// stream to w. step is an application-defined counter stored in the header
// (the paper restarts NICAM at step 720; the counter lets restore resume
// time-dependent forcing).
func (m *Manager) Checkpoint(w io.Writer, step int) (rep *Report, err error) {
	rep, parts, err := m.checkpointParts(step)
	if err != nil {
		return nil, err
	}
	for _, part := range parts {
		if _, err := w.Write(part); err != nil {
			return nil, fmt.Errorf("ckpt: write: %w", err)
		}
	}
	return rep, nil
}

// checkpointParts encodes every registered array and returns the v1 stream
// as the slices it consists of, in order: the stream header, then per entry
// its framing — CRC, length, prologue, payload length — and its payload, the
// codec's own slice. Nothing is joined; a writer or a store takes the parts
// one after the other. The CRC leads the frame, so every entry is encoded
// before the first part exists, and an encode error returns none.
func (m *Manager) checkpointParts(step int) (rep *Report, parts [][]byte, err error) {
	start := time.Now()
	if len(m.names) == 0 {
		return nil, nil, fmt.Errorf("%w: no fields registered", ErrRegistered)
	}
	if step < 0 {
		return nil, nil, fmt.Errorf("%w: negative step %d", ErrRegistered, step)
	}

	encoded := make([]*Encoded, len(m.names))
	op, owned := m.opFor("ckpt.checkpoint", "codec", m.codec.Name(), "mode", "buffered")
	op.SetStep(step)
	defer func() { m.closeCheckpoint(op, owned, rep, encoded, err) }()

	parts = append(make([][]byte, 0, 1+2*len(m.names)), m.streamHeader(fileVersion, step))
	rep = &Report{Codec: m.codec.Name(), Step: step, FileBytes: len(parts[0])}
	m.primeDelta()
	pipe := newEntryPipe(m.workers)
	defer pipe.wait()
	for i, name := range m.names {
		f := m.fields[name]
		err := pipe.start(func() (err error) {
			encoded[i], err = m.encodeEntry(nil, name, f)
			return err
		}, nil, func(err error) error {
			if err != nil {
				return fmt.Errorf("ckpt: encoding %q: %w", name, err)
			}
			payload := encoded[i].Payload
			// The frame is CRC ‖ length ‖ body, the body prologue ‖ payload
			// length ‖ payload: everything but the payload is laid out here,
			// behind 12 bytes left for the CRC and length that cover it.
			head := entryPrologue(make([]byte, 12, 64), name, f.Shape())
			head = binary.LittleEndian.AppendUint64(head, uint64(len(payload)))
			crc := crc32.Update(crc32.ChecksumIEEE(head[12:]), crc32.IEEETable, payload)
			binary.LittleEndian.PutUint32(head[0:], crc)
			binary.LittleEndian.PutUint64(head[4:], uint64(len(head)-12+len(payload)))
			parts = append(parts, head, payload)
			rep.FileBytes += len(head) + len(payload)
			rep.addEntry(name, encoded[i], len(payload))
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	if err := pipe.flush(); err != nil {
		return nil, nil, err
	}
	rep.Wall = time.Since(start)
	return rep, parts, nil
}

// streamHeader is the parsed fixed prefix of a checkpoint stream.
type streamHeader struct {
	Version int
	Codec   string
	Step    int
	Count   int
}

// readStreamHeader parses and validates the stream header. Every
// header-declared size is bounded before it can drive an allocation or
// a parse loop.
func readStreamHeader(br *byteReader) (*streamHeader, error) {
	if br.u32() != fileMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	version := int(br.u16())
	if version != fileVersion && version != fileVersionStream {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrFormat, version)
	}
	codecName := br.str()
	step := br.u64()
	count := br.u32()
	if br.err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrFormat, br.err)
	}
	if len(codecName) > maxNameLen {
		return nil, fmt.Errorf("%w: codec name %d bytes exceeds cap", ErrFormat, len(codecName))
	}
	if step > math.MaxInt64 {
		return nil, fmt.Errorf("%w: step %d out of range", ErrFormat, step)
	}
	if count > maxVars {
		return nil, fmt.Errorf("%w: %d variables exceeds cap", ErrFormat, count)
	}
	return &streamHeader{Version: version, Codec: codecName, Step: int(step), Count: int(count)}, nil
}

// errEntryDamaged marks an entry whose framing stayed intact but whose
// content failed verification (CRC mismatch, unparseable body): the scan
// can skip it and resume at the next entry. Entry errors NOT matching
// this sentinel mean the stream is torn at that point — nothing beyond is
// framed. It wraps ErrFormat, so errors.Is(err, ErrFormat) still holds.
var errEntryDamaged = fmt.Errorf("%w (damaged entry)", ErrFormat)

// readEntry reads entry i in the given stream-format version, unifying
// the v1 frame-per-entry and v2 segmented layouts behind one scanner.
// Damage comes back classified via errEntryDamaged (see above).
func readEntry(br *byteReader, version, i int) (*rawEntry, error) {
	if version >= fileVersionStream {
		return readEntryV2(br, i)
	}
	frame, crcOK, err := readEntryFrame(br, i)
	if err != nil {
		return nil, err
	}
	if !crcOK {
		frame.release()
		return nil, fmt.Errorf("%w: entry %d checksum mismatch", errEntryDamaged, i)
	}
	ent, err := parseEntryBody(frame.Payload, i)
	if err != nil {
		frame.release()
		return nil, fmt.Errorf("%w: %v", errEntryDamaged, err)
	}
	ent.buf = frame.buf
	return ent, nil
}

// rawEntry is one parsed checkpoint frame before decoding. Payload is a view:
// of the stream itself when that is in memory, else of buf. Either way it is
// dead once the scan that produced the entry returns.
type rawEntry struct {
	Name    string
	Shape   []int
	Payload []byte
	buf     *[]byte // the recycled buffer Payload lies in, until release (stream.go)
}

// readEntryFrame reads entry i's outer frame (CRC, length, body) and
// reports whether the CRC verifies. Framing damage — truncation or an
// implausible length — returns ErrFormat; a CRC mismatch on a intact
// frame comes back as crcOK=false with a nil error so partial recovery
// can skip the frame and keep resynchronizing on the outer framing.
func readEntryFrame(br *byteReader, i int) (frame *rawEntry, crcOK bool, err error) {
	wantCRC := br.u32()
	entryLen := br.u64()
	if br.err != nil {
		return nil, false, fmt.Errorf("%w: entry %d header: %v", ErrFormat, i, br.err)
	}
	if entryLen > maxPayloadLen {
		return nil, false, fmt.Errorf("%w: entry %d implausibly large (%d bytes)", ErrFormat, i, entryLen)
	}
	// The body, as Payload: a view of a stream in memory, and off a reader
	// read into a recycled buffer under appendExactly's growth rule.
	frame = &rawEntry{}
	if frame.Payload = br.view(entryLen); frame.Payload == nil {
		frame.buf = payloadBufs.Get().(*[]byte)
		var rerr error
		frame.Payload, rerr = appendExactly((*frame.buf)[:0], br, entryLen)
		*frame.buf = frame.Payload[:0]
		if rerr != nil {
			frame.release()
			return nil, false, fmt.Errorf("%w: entry %d body: %v", ErrFormat, i, rerr)
		}
	}
	return frame, crc32.ChecksumIEEE(frame.Payload) == wantCRC, nil
}

// readPrologue reads the name and shape that open an entry in both
// stream versions (entryPrologue writes them), each bounded before it can
// size an allocation.
func readPrologue(br *byteReader, i int) (name string, shape []int, err error) {
	name = br.str()
	if br.err == nil && len(name) > maxNameLen {
		return "", nil, fmt.Errorf("%w: entry %d name %d bytes exceeds cap", ErrFormat, i, len(name))
	}
	nd := int(br.u16())
	if br.err != nil || nd == 0 || nd > grid.MaxDims {
		return "", nil, fmt.Errorf("%w: entry %d metadata", ErrFormat, i)
	}
	shape = make([]int, nd)
	for d := range shape {
		e := br.u64()
		if e == 0 || e > math.MaxInt32 {
			return "", nil, fmt.Errorf("%w: entry %d extent %d", ErrFormat, i, e)
		}
		shape[d] = int(e)
	}
	return name, shape, nil
}

// parseEntryBody decodes one frame body into name, shape and payload, the
// payload a view of the body. The declared name length, dimensionality,
// extents and payload length are all validated against their caps and
// against the bytes actually remaining, so corrupt metadata returns
// ErrFormat and sizes nothing.
func parseEntryBody(body []byte, i int) (*rawEntry, error) {
	er := &byteReader{b: body}
	name, shape, err := readPrologue(er, i)
	if err != nil {
		return nil, err
	}
	payloadLen := er.u64()
	if er.err != nil {
		return nil, fmt.Errorf("%w: entry %d payload length", ErrFormat, i)
	}
	if payloadLen > uint64(len(er.b)) {
		return nil, fmt.Errorf("%w: entry %d declares %d payload bytes, %d remain", ErrFormat, i, payloadLen, len(er.b))
	}
	payload := er.view(payloadLen)
	if len(er.b) != 0 {
		return nil, fmt.Errorf("%w: entry %d has %d trailing bytes", ErrFormat, i, len(er.b))
	}
	return &rawEntry{Name: name, Shape: shape, Payload: payload}, nil
}

// streamHeader serializes the fixed prefix readStreamHeader parses.
func (m *Manager) streamHeader(version, step int) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, fileMagic)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(version))
	buf = appendString(buf, m.codec.Name())
	buf = binary.LittleEndian.AppendUint64(buf, uint64(step))
	return binary.LittleEndian.AppendUint32(buf, uint32(len(m.names)))
}

// entryPrologue appends the name and shape that open an entry, in both
// stream versions.
func entryPrologue(dst []byte, name string, shape []int) []byte {
	dst = appendString(dst, name)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(shape)))
	for _, e := range shape {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e))
	}
	return dst
}

// appendString appends s behind its 16-bit length.
func appendString(dst []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint16(dst, uint16(len(s))), s...)
}

// addEntry appends one written entry's accounting to the report.
func (r *Report) addEntry(name string, enc *Encoded, compressed int) {
	r.Entries = append(r.Entries, EntryReport{
		Name:            name,
		RawBytes:        enc.RawBytes,
		CompressedBytes: compressed,
		Timings:         enc.Timings,
		Guarantee:       enc.Guarantee,
		Reused:          enc.Reused,
		SlabsReused:     enc.SlabsReused,
	})
	r.RawBytes += enc.RawBytes
	r.CompressedBytes += compressed
	r.addReuse(enc)
}

// restoreScan is the entry scan Restore and RestorePartial run: an entry
// is claimed for the registered array of its name and shape, decoded into
// it — in place by a strict scan, apart and copied over whole by a lenient
// one — and reported in stream order. A name belongs to the first intact
// entry that carries it, so no two decode jobs share an array.
func (m *Manager) restoreScan(rep *Report, lenient bool) *entryScan {
	claimed := make(map[string]bool, len(m.names))
	return &entryScan{
		codec:   m.codec,
		workers: m.workers,
		lenient: lenient,
		claim: func(ent *rawEntry) (*grid.Field, error) {
			target, ok := m.fields[ent.Name]
			if !ok {
				return nil, fmt.Errorf("%w: stream variable %q not registered", ErrMismatch, ent.Name)
			}
			if claimed[ent.Name] {
				return nil, fmt.Errorf("%w: duplicate variable %q", ErrFormat, ent.Name)
			}
			if target.Dims() != len(ent.Shape) {
				return nil, fmt.Errorf("%w: %q is %d-D in stream, %d-D registered", ErrMismatch, ent.Name, len(ent.Shape), target.Dims())
			}
			for d, e := range ent.Shape {
				if target.Extent(d) != e {
					return nil, fmt.Errorf("%w: %q shape %v in stream, %v registered", ErrMismatch, ent.Name, ent.Shape, target.Shape())
				}
			}
			claimed[ent.Name] = true
			return target, nil
		},
		land: func(ent *rawEntry, f *grid.Field) {
			rep.Entries = append(rep.Entries, EntryReport{
				Name:            ent.Name,
				RawBytes:        f.Bytes(),
				CompressedBytes: len(ent.Payload),
				Guarantee:       entryGuarantee(ent.Payload),
			})
			rep.RawBytes += f.Bytes()
			rep.CompressedBytes += len(ent.Payload)
		},
	}
}

// Restore reads a checkpoint stream and decodes its arrays into the
// registered fields, in place: the codec reconstructs each array where the
// application keeps it, with no field allocated and none copied. The
// stream's codec name must match the manager's codec, and every registered
// variable must be present with a matching shape. It returns the report and
// the stored step counter. Up to the worker count of arrays decode at once,
// so after an error the registered state may hold arrays from beyond the
// entry that failed. The entry that failed has left its own array untouched
// — a damaged frame never reaches a decoder, and a codec writes only once
// nothing can fail — unless it is a chunked lossy entry with an intact frame
// around a slab that does not decode: then the other slabs' planes hold the
// restored values and that slab's are untouched. RestorePartial is the call
// for state that must stay whole or untouched per array.
func (m *Manager) Restore(r io.Reader) (*Report, error) {
	rep, _, err := m.restore(newByteReader(r), false)
	return rep, err
}

// RestorePartial reads a possibly torn or corrupted checkpoint stream
// and restores every registered array whose frame verifies: frames with
// failing CRCs or unparseable bodies are skipped (the outer framing
// keeps the parse resynchronized), as are mismatched, duplicate and
// undecodable entries, and a torn tail ends the scan. It returns the
// report of what was restored, in stream order, plus the names of
// registered variables that were not — callers decide whether a partial
// state is usable. The header itself must be intact; with it gone there
// is nothing to verify against. A skipped variable's array is exactly as
// it was before the call: every entry decodes apart from the registered
// field and is copied over it only whole (one array-sized allocation and
// copy per entry that Restore does not pay).
func (m *Manager) RestorePartial(r io.Reader) (*Report, []string, error) {
	return m.restore(newByteReader(r), true)
}

func (m *Manager) restore(br *byteReader, partial bool) (rep *Report, skipped []string, err error) {
	start := time.Now()
	// Even a failed restore may have overwritten some arrays; the delta
	// baseline no longer describes the live state either way.
	m.resetDelta()
	mode := "full"
	if partial {
		mode = "partial"
	}
	op, owned := m.opFor("ckpt.restore", "codec", m.codec.Name(), "mode", mode)
	defer func() { m.closeRestore(op, owned, rep, skipped, partial, err) }()
	hdr, err := readStreamHeader(br)
	if err != nil {
		return nil, nil, err
	}
	if hdr.Codec != m.codec.Name() {
		return nil, nil, fmt.Errorf("%w: stream codec %q, manager codec %q", ErrMismatch, hdr.Codec, m.codec.Name())
	}
	if !partial && hdr.Count != len(m.names) {
		return nil, nil, fmt.Errorf("%w: stream has %d variables, %d registered", ErrMismatch, hdr.Count, len(m.names))
	}

	rep = &Report{Codec: hdr.Codec, Step: hdr.Step}
	if _, err := m.restoreScan(rep, partial).run(br, hdr); err != nil {
		return nil, nil, err
	}
	if partial {
		restored := make(map[string]bool, len(rep.Entries))
		for _, e := range rep.Entries {
			restored[e.Name] = true
		}
		for _, name := range m.names {
			if !restored[name] {
				skipped = append(skipped, name)
			}
		}
		if len(rep.Entries) == 0 {
			return nil, skipped, fmt.Errorf("%w: no frame verified", ErrFormat)
		}
	}
	rep.Wall = time.Since(start)
	return rep, skipped, nil
}

// --- binary helpers ---------------------------------------------------------

// appendExactly appends exactly n bytes off r to buf, growing it in bounded
// steps so a forged length field cannot force a huge allocation before the
// stream runs dry.
func appendExactly(buf []byte, r io.Reader, n uint64) ([]byte, error) {
	const chunk = 1 << 20
	for n > 0 {
		take := int(min(n, chunk))
		buf = slices.Grow(buf, take)
		if _, err := io.ReadFull(r, buf[len(buf):len(buf)+take]); err != nil {
			return buf, err
		}
		buf = buf[:len(buf)+take]
		n -= uint64(take)
	}
	return buf, nil
}

// byteReader is the one scanner of checkpoint streams, over either source:
// an io.Reader, or — r nil — a stream in memory, b the part of it not yet
// read, out of which view hands sub-slices instead of copies.
type byteReader struct {
	r   io.Reader
	b   []byte
	err error
	num [8]byte // where take reads a fixed-width integer off r
}

func newByteReader(r io.Reader) *byteReader { return &byteReader{r: r} }

func (b *byteReader) Read(p []byte) (n int, err error) {
	if b.r != nil {
		return b.r.Read(p)
	}
	n = copy(p, b.b)
	if b.b = b.b[n:]; n < len(p) {
		err = io.EOF
	}
	return n, err
}

// view returns the next n bytes of a stream in memory without copying them,
// or nil — nothing consumed — off a reader or when fewer are left.
func (b *byteReader) view(n uint64) (v []byte) {
	if b.r == nil && n <= uint64(len(b.b)) {
		v, b.b = b.b[:n:n], b.b[n:]
	}
	return v
}

// take returns the next n bytes, good until the next take.
func (b *byteReader) take(n int) []byte {
	if b.err != nil {
		return nil
	}
	buf := b.view(uint64(n))
	if buf == nil {
		if buf = b.num[:]; n > len(buf) {
			buf = make([]byte, n)
		}
		if _, err := io.ReadFull(b, buf[:n]); err != nil {
			b.err = err
			return nil
		}
	}
	return buf[:n]
}

func (b *byteReader) u16() uint16 {
	d := b.take(2)
	if d == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(d)
}

func (b *byteReader) u32() uint32 {
	d := b.take(4)
	if d == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(d)
}

func (b *byteReader) u64() uint64 {
	d := b.take(8)
	if d == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(d)
}

func (b *byteReader) str() string {
	n := b.u16()
	if b.err != nil {
		return ""
	}
	d := b.take(int(n))
	return string(d)
}
