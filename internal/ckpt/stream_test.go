package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"lossyckpt/internal/core"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/stats"
)

// streamCodecs are the codec configurations the v2 format tests sweep:
// the ones that write an entry's payload out as they produce it (none, gzip,
// lossy chunked) and the ones that return it whole (lossy whole-array, fpc,
// guard).
func streamCodecs() map[string]Codec {
	chunked := NewLossy()
	chunked.ChunkExtent = 16
	chunked.Options.Workers = 2
	return map[string]Codec{
		"none":          None{},
		"gzip":          NewGzip(),
		"fpc":           &FPC{},
		"lossy":         NewLossy(),
		"lossy-chunked": chunked,
		"guard":         mustCodec("guard"),
	}
}

func mustCodec(name string) Codec {
	c, err := CodecByName(name)
	if err != nil {
		panic(err)
	}
	return c
}

// TestCheckpointStreamRoundTrip writes a stream with every codec and
// restores it through the version-aware reader.
func TestCheckpointStreamRoundTrip(t *testing.T) {
	for label, codec := range streamCodecs() {
		m := NewManager(codec, 2)
		fields := registerSample(t, m)
		originals := map[string]*grid.Field{}
		for n, f := range fields {
			originals[n] = f.Clone()
		}

		var buf bytes.Buffer
		rep, err := m.Checkpoint(&buf, 720)
		if err != nil {
			t.Fatalf("%s: stream checkpoint: %v", label, err)
		}
		if rep.FileBytes != buf.Len() {
			t.Errorf("%s: FileBytes %d, stream %d", label, rep.FileBytes, buf.Len())
		}
		if rep.Step != 720 || len(rep.Entries) != 3 {
			t.Errorf("%s: report %+v", label, rep)
		}
		for _, e := range rep.Entries {
			if e.CompressedBytes <= 0 || e.RawBytes <= 0 {
				t.Errorf("%s: entry %q accounting %+v", label, e.Name, e)
			}
		}

		for _, f := range fields {
			f.Fill(-1)
		}
		rrep, err := m.Restore(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: restore: %v", label, err)
		}
		if rrep.Step != 720 {
			t.Errorf("%s: restored step %d", label, rrep.Step)
		}
		for n, f := range fields {
			if codec.Lossless() {
				if !f.Equal(originals[n]) {
					t.Errorf("%s: %q not restored bit-exactly", label, n)
				}
			} else {
				s, _ := stats.Compare(originals[n].Data(), f.Data())
				if s.AvgPct > 1 {
					t.Errorf("%s: %q avg error %.4f%% after lossy restore", label, n, s.AvgPct)
				}
			}
		}
	}
}

// TestCheckpointStreamPayloadMatchesBuffered pins that the two layouts
// differ in framing, not in codec bytes: a v2 entry payload read back must
// equal the v1 payload for a deterministic codec.
func TestCheckpointStreamPayloadMatchesBuffered(t *testing.T) {
	m := NewManager(None{}, 1)
	registerSample(t, m)

	var v2 bytes.Buffer
	if _, err := m.Checkpoint(&v2, 7); err != nil {
		t.Fatal(err)
	}
	ents1 := scanEntries(t, v1Stream(t, m, 7))
	ents2 := scanEntries(t, v2.Bytes())
	if len(ents1) != len(ents2) {
		t.Fatalf("entry counts %d vs %d", len(ents1), len(ents2))
	}
	for i := range ents1 {
		if ents1[i].Name != ents2[i].Name || !bytes.Equal(ents1[i].Payload, ents2[i].Payload) {
			t.Errorf("entry %d (%q) payload differs between v1 and v2", i, ents1[i].Name)
		}
	}
}

// scanEntries walks a stream with the version-aware reader, returning
// every parsed entry and failing on any damage.
func scanEntries(t *testing.T, data []byte) []*rawEntry {
	t.Helper()
	br := newByteReader(bytes.NewReader(data))
	hdr, err := readStreamHeader(br)
	if err != nil {
		t.Fatal(err)
	}
	ents := make([]*rawEntry, 0, hdr.Count)
	for i := 0; i < hdr.Count; i++ {
		ent, err := readEntry(br, hdr.Version, i)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		ents = append(ents, ent)
	}
	return ents
}

// entryOffsets returns the byte offset of every entry in a stream.
func entryOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	rd := bytes.NewReader(data)
	br := newByteReader(rd)
	hdr, err := readStreamHeader(br)
	if err != nil {
		t.Fatal(err)
	}
	offs := make([]int, 0, hdr.Count)
	for i := 0; i < hdr.Count; i++ {
		offs = append(offs, len(data)-rd.Len())
		if _, err := readEntry(br, hdr.Version, i); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
	}
	return offs
}

// TestStreamPartialRestore corrupts one v2 entry's payload: strict
// Restore must fail, RestorePartial must skip exactly that variable, and
// lenient loadStream must count one skipped frame.
func TestStreamPartialRestore(t *testing.T) {
	m := NewManager(None{}, 1)
	fields := registerSample(t, m)
	originals := map[string]*grid.Field{}
	for n, f := range fields {
		originals[n] = f.Clone()
	}
	var buf bytes.Buffer
	if _, err := m.Checkpoint(&buf, 9); err != nil {
		t.Fatal(err)
	}
	offs := entryOffsets(t, buf.Bytes())
	victim := scanEntries(t, buf.Bytes())[1].Name

	// Flip a byte inside entry 1's first payload segment (prologue =
	// name + u16 dims + u64 extents, then the u32 segment length).
	mut := append([]byte(nil), buf.Bytes()...)
	proLen := 2 + len(victim) + 2 + 8*len(originals[victim].Shape())
	mut[offs[1]+proLen+4+64] ^= 0xA5

	if _, err := m.Restore(bytes.NewReader(mut)); !errors.Is(err, ErrFormat) {
		t.Fatalf("strict restore of damaged stream: %v", err)
	}

	for _, f := range fields {
		f.Fill(-1)
	}
	rep, skipped, err := m.RestorePartial(bytes.NewReader(mut))
	if err != nil {
		t.Fatalf("partial restore: %v", err)
	}
	if len(skipped) != 1 || skipped[0] != victim {
		t.Fatalf("skipped %v, want [%s]", skipped, victim)
	}
	if len(rep.Entries) != 2 {
		t.Fatalf("restored %d entries, want 2", len(rep.Entries))
	}
	for _, e := range rep.Entries {
		if !fields[e.Name].Equal(originals[e.Name]) {
			t.Errorf("%q not restored bit-exactly around the damage", e.Name)
		}
	}

	lc, err := loadStream(newByteReader(bytes.NewReader(mut)), 1, true)
	if err != nil {
		t.Fatalf("lenient load: %v", err)
	}
	if lc.SkippedFrames != 1 || !lc.Partial || len(lc.Fields) != 2 {
		t.Fatalf("lenient load: skipped %d partial %v fields %d", lc.SkippedFrames, lc.Partial, len(lc.Fields))
	}
}

// TestStreamTornTail truncates a v2 stream inside the middle entry:
// partial restore keeps everything before the tear and reports the rest
// skipped.
func TestStreamTornTail(t *testing.T) {
	m := NewManager(None{}, 1)
	fields := registerSample(t, m)
	var buf bytes.Buffer
	if _, err := m.Checkpoint(&buf, 4); err != nil {
		t.Fatal(err)
	}
	offs := entryOffsets(t, buf.Bytes())
	names := m.Names()
	torn := buf.Bytes()[:offs[1]+10]

	rep, skipped, err := m.RestorePartial(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("partial restore of torn stream: %v", err)
	}
	if len(rep.Entries) != 1 || rep.Entries[0].Name != names[0] {
		t.Fatalf("restored %+v, want just %q", rep.Entries, names[0])
	}
	if len(skipped) != len(fields)-1 {
		t.Fatalf("skipped %v", skipped)
	}
}

// TestStreamInspectAndVerify runs the registration-free audits over a v2
// stream, then checks corruption is caught.
func TestStreamInspectAndVerify(t *testing.T) {
	lossy := NewLossy()
	lossy.ChunkExtent = 16
	m := NewManager(lossy, 1)
	fields := registerSample(t, m)
	var buf bytes.Buffer
	if _, err := m.Checkpoint(&buf, 12); err != nil {
		t.Fatal(err)
	}

	info, err := InspectStream(buf.Bytes())
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if info.Codec != "lossy" || info.Step != 12 || len(info.Entries) != 3 {
		t.Fatalf("info %+v", info)
	}
	for _, e := range info.Entries {
		want := fields[e.Name].Shape()
		if len(e.Shape) != len(want) {
			t.Errorf("entry %q shape %v, want %v", e.Name, e.Shape, want)
		}
		if e.PayloadBytes <= 0 {
			t.Errorf("entry %q payload %d", e.Name, e.PayloadBytes)
		}
	}
	if err := VerifyStream(buf.Bytes(), true, 1); err != nil {
		t.Fatalf("verify: %v", err)
	}

	mut := append([]byte(nil), buf.Bytes()...)
	mut[len(mut)/2] ^= 0x10
	if err := VerifyStream(mut, false, 1); err == nil {
		t.Error("verify accepted corrupted v2 stream")
	}
}

// TestCheckpointStreamToStore streams a checkpoint straight into the
// store and restores it back, checking the generation record matches the
// streamed bytes.
func TestCheckpointStreamToStore(t *testing.T) {
	lossy := NewLossy()
	lossy.ChunkExtent = 16
	lossy.Options.Workers = 2
	m := NewManager(lossy, 1)
	fields := registerSample(t, m)
	originals := map[string]*grid.Field{}
	for n, f := range fields {
		originals[n] = f.Clone()
	}

	st := openStore(t, t.TempDir(), 3)
	rep, gen, err := m.CheckpointTo(st, 720)
	if err != nil {
		t.Fatalf("stream checkpoint to store: %v", err)
	}
	if int(gen.Size) != rep.FileBytes {
		t.Errorf("generation size %d, report FileBytes %d", gen.Size, rep.FileBytes)
	}

	for _, f := range fields {
		f.Fill(-1)
	}
	sr, err := m.RestoreLatest(st)
	if err != nil {
		t.Fatalf("restore latest: %v", err)
	}
	if sr.Partial || sr.Step != 720 || sr.Generation != gen.Seq {
		t.Fatalf("store restore %+v", sr)
	}
	for n, f := range fields {
		s, _ := stats.Compare(originals[n].Data(), f.Data())
		if s.AvgPct > 1 {
			t.Errorf("%q avg error %.4f%% after store round trip", n, s.AvgPct)
		}
	}

	lc, err := LoadLatest(st, 1)
	if err != nil {
		t.Fatalf("load latest: %v", err)
	}
	if len(lc.Fields) != 3 || lc.Partial {
		t.Fatalf("loaded %+v", lc)
	}
}

// heapPeakWriter samples HeapAlloc at every Write: for the buffered path
// the writes happen while every payload is live, for the streaming path
// writes happen continuously, so the samples bracket each path's true peak
// without a racy sampler.
type heapPeakWriter struct {
	peak uint64
}

func (h *heapPeakWriter) Write(p []byte) (int, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > h.peak {
		h.peak = ms.HeapAlloc
	}
	return len(p), nil
}

// TestCheckpointStreamPeakHeap is the acceptance check for both ways an
// entry is written, in absolute terms: on the paper's 24 MB nicam16x array
// (18496×82×2 float64, stored verbatim so the payload is the array's size),
// a codec writing through Entry.W stays within a few bounded segment buffers
// above the registered field itself, and a payload held whole — delta on —
// is framed from where it lies: the field and the payload once, no staged
// entry, no assembled stream.
func TestCheckpointStreamPeakHeap(t *testing.T) {
	f := smoothField(18496, 82, 2)
	raw := uint64(f.Bytes())
	peak := func(delta bool) uint64 {
		m := NewManager(None{}, 1)
		if err := m.Register("q", f); err != nil {
			t.Fatal(err)
		}
		m.SetDelta(delta)
		runtime.GC()
		w := &heapPeakWriter{}
		if _, err := m.Checkpoint(w, 1); err != nil {
			t.Fatal(err)
		}
		return w.peak
	}
	streamed, whole := peak(false), peak(true)

	t.Logf("raw %d MiB, streamed peak %d MiB, held-whole peak %d MiB",
		raw>>20, streamed>>20, whole>>20)
	// The streaming bound: the live field plus O(segment) buffers. 8 MiB
	// of slack covers the runtime's floating garbage between GCs.
	if streamed > raw+(8<<20) {
		t.Errorf("streamed peak %d MiB exceeds field + 8 MiB (field %d MiB)", streamed>>20, raw>>20)
	}
	// The held-whole bound: the field and its payload, each once. A copy of
	// the payload made to frame it lands a field's size above this.
	if payload := raw; whole > raw+payload+(8<<20) {
		t.Errorf("held-whole peak %d MiB exceeds field + payload + 8 MiB (%d MiB each)", whole>>20, raw>>20)
	}
}

// TestCheckpointStreamValidation covers the writer's argument checks.
func TestCheckpointStreamValidation(t *testing.T) {
	m := NewManager(None{}, 1)
	var buf bytes.Buffer
	if _, err := m.Checkpoint(&buf, 0); !errors.Is(err, ErrRegistered) {
		t.Errorf("empty manager: %v", err)
	}
	registerSample(t, m)
	if _, err := m.Checkpoint(&buf, -1); !errors.Is(err, ErrRegistered) {
		t.Errorf("negative step: %v", err)
	}
}

// TestStreamChunkedLossyUsesStreamingPath pins that the chunked lossy
// codec's v2 payload is the exact chunked stream the buffered codec
// produces — i.e. EncodeEntry streamed the same frames CompressChunked
// would have buffered.
func TestStreamChunkedLossyUsesStreamingPath(t *testing.T) {
	lossy := NewLossy()
	lossy.ChunkExtent = 8
	f := smoothField(48, 16, 2)

	want, err := core.CompressChunked(f, lossy.Options, lossy.ChunkExtent)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	enc, err := lossy.EncodeEntry(Entry{Field: f, W: &got})
	if err != nil {
		t.Fatal(err)
	}
	if enc.Payload != nil {
		t.Error("streaming EncodeEntry returned a buffered payload")
	}
	if !bytes.Equal(got.Bytes(), want.Data) {
		t.Errorf("streamed payload differs from buffered chunked stream (%d vs %d bytes)",
			got.Len(), len(want.Data))
	}
}

// matchWriter checks what is written against want as it comes and keeps none of it.
type matchWriter struct {
	want    []byte
	off     int
	differs bool
}

func (m *matchWriter) Write(p []byte) (int, error) {
	if m.off+len(p) > len(m.want) || !bytes.Equal(p, m.want[m.off:m.off+len(p)]) {
		m.differs = true
	}
	m.off += len(p)
	return len(p), nil
}

// TestGzipEncodeToBoundedMemory: the gzip codec's streaming path writes the
// bytes Encode returns while holding neither the array's byte image nor its
// compressed one — a 24 MB field goes through on under 2 MB of allocation.
func TestGzipEncodeToBoundedMemory(t *testing.T) {
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		t.Skip("on a big-endian host the float image is a copy")
	}
	f := smoothField(16*1156, 82, 2)
	g := NewGzip()
	want, err := g.Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	for round := 0; round < 2; round++ { // the first leaves the encoder's recycled state grown
		w := &matchWriter{want: want.Payload}
		runtime.ReadMemStats(&before)
		enc, err := g.EncodeEntry(Entry{Field: f, W: w})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if enc.Payload != nil || enc.RawBytes != f.Bytes() {
			t.Errorf("EncodeEntry reported %d payload bytes held, %d raw", len(enc.Payload), enc.RawBytes)
		}
		if w.differs || w.off != len(want.Payload) {
			t.Errorf("EncodeEntry wrote %d bytes, Encode returns %d; differing: %v", w.off, len(want.Payload), w.differs)
		}
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
		t.Errorf("EncodeEntry allocated %d bytes for a %d-byte field, want under 2 MiB", got, f.Bytes())
	}
}
