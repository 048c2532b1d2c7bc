package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"unsafe"

	"lossyckpt/internal/cas"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/obs"
	"lossyckpt/internal/store"
)

// noisyField is a smooth field under seeded noise: the lossy codec keeps
// about half of it, so a few MiB of array make a payload above 1 MiB.
func noisyField(seed int64, shape ...int) *grid.Field {
	f := smoothField(shape...)
	rng := rand.New(rand.NewSource(seed))
	for i := range f.Data() {
		f.Data()[i] += rng.NormFloat64()
	}
	return f
}

// chunkedFrameSpan returns where slab k's frame — its extent, length and
// payload — lies in a chunked lossy payload.
func chunkedFrameSpan(t *testing.T, payload []byte, k int) (start, end int) {
	t.Helper()
	nd := int(binary.LittleEndian.Uint16(payload[6:]))
	pos := 8 + 8*nd + 4
	for c := 0; ; c++ {
		if pos+12 > len(payload) {
			t.Fatalf("chunked payload has no frame %d", k)
		}
		n := int(binary.LittleEndian.Uint64(payload[pos+4:]))
		if c == k {
			return pos, pos + 12 + n
		}
		pos += 12 + n
	}
}

// TestDeltaDedupOneSegmentKeepsChunks is the dedup half of framing a payload
// held whole as one segment: a delta save of a chunked lossy array whose one
// slab changed size commits, into a store cutting 4/16/64 KiB chunks, only the
// chunks the changed frame spans and three more — the entry's first chunk
// (its segment length moved), its last (length and CRC trail the payload) and
// the one where the cut resynchronizes behind the frame. Segments every
// 256 KiB would shift every header behind the changed slab and make new chunks
// around each.
func TestDeltaDedupOneSegmentKeepsChunks(t *testing.T) {
	cfg := cas.Config{Min: 4 << 10, Avg: 16 << 10, Max: 64 << 10}
	st, err := store.Open(t.TempDir(), store.Options{Keep: 4, Dedup: true, DedupChunk: cfg})
	if err != nil {
		t.Fatal(err)
	}
	codec := NewLossy()
	codec.ChunkExtent = 4
	f := noisyField(1, 64, 64, 128)
	m := managerOver(t, codec, 2, []string{"q"}, []*grid.Field{f})
	m.SetDelta(true)
	if _, _, err := m.CheckpointTo(st, 1); err != nil {
		t.Fatal(err)
	}
	before := st.DedupStats().Chunks

	// Slab 5 goes flat: its frame shrinks, every frame behind it moves.
	const slab = 5
	plane := f.Stride(0)
	for i := slab * codec.ChunkExtent * plane; i < (slab+1)*codec.ChunkExtent*plane; i++ {
		f.Data()[i] = 500
	}
	rep, gen, err := m.CheckpointTo(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeltaSlabsCompressed != 1 {
		t.Fatalf("%d slabs compressed, want the one changed", rep.DeltaSlabsCompressed)
	}
	stream, err := st.ReadGeneration(gen.Seq)
	if err != nil {
		t.Fatal(err)
	}
	ents := scanEntries(t, stream)
	payload := ents[0].Payload
	if len(payload) < 1<<20 {
		t.Fatalf("payload %d bytes, want above 1 MiB", len(payload))
	}

	// Where the changed frame lies in the stream, and the chunks it spans.
	off := len(m.streamHeader(2)) + len(entryPrologue(nil, "q", f.Shape())) + 4
	fs, fe := chunkedFrameSpan(t, payload, slab)
	fs, fe = off+fs, off+fe
	chunks, err := cas.Split(cfg, stream)
	if err != nil {
		t.Fatal(err)
	}
	spans, at := 0, 0
	for _, c := range chunks {
		if at < fe && at+len(c) > fs {
			spans++
		}
		at += len(c)
	}
	fresh := st.DedupStats().Chunks - before
	t.Logf("payload %d KiB in %d chunks; the changed frame spans %d, the commit made %d new", len(payload)>>10, len(chunks), spans, fresh)
	if fresh > spans+3 {
		t.Errorf("the second commit made %d new chunks, want at most the changed frame's %d + 3", fresh, spans)
	}
}

// TestOneSegmentEntryIsAView: read from a stream in memory, an entry whose
// payload is one segment is a view of the stream and takes no pooled buffer;
// one in several segments, or read off an io.Reader, is joined into one.
func TestOneSegmentEntryIsAView(t *testing.T) {
	one := grid.MustNew(64, 64)
	one.Fill(1)
	many := smoothField(128, 512) // 512 KiB stored verbatim: two segments
	m := managerOver(t, None{}, 1, []string{"one", "many"}, []*grid.Field{one, many})
	var buf bytes.Buffer
	if _, err := m.Checkpoint(&buf, 1); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	inside := func(p []byte) bool {
		base := uintptr(unsafe.Pointer(unsafe.SliceData(stream)))
		at := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
		return at >= base && at+uintptr(len(p)) <= base+uintptr(len(stream))
	}

	br := &byteReader{b: stream}
	hdr, err := readStreamHeader(br)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []*grid.Field{one, many} {
		ent, err := readEntry(br, hdr.Version, i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ent.Payload, grid.FloatBytes(want.Data())) {
			t.Fatalf("%s: payload differs from the array", ent.Name)
		}
		if view := want == one; (ent.buf == nil) != view || inside(ent.Payload) != view {
			t.Errorf("%s: pooled buffer taken %v, payload inside the stream %v; want a view %v", ent.Name, ent.buf != nil, inside(ent.Payload), view)
		}
		ent.release()
	}

	off := newByteReader(bytes.NewReader(stream))
	if _, err := readStreamHeader(off); err != nil {
		t.Fatal(err)
	}
	ent, err := readEntry(off, hdr.Version, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ent.buf == nil || !bytes.Equal(ent.Payload, grid.FloatBytes(one.Data())) {
		t.Errorf("an entry off a reader was not read into a pooled buffer")
	}
	ent.release()
}

// TestQualityGaugesCoverStreamingCodecs: with quality telemetry on, an entry
// a codec would have streamed (chunked lossy) is held whole and measured, so
// every variable gets its PSNR gauge.
func TestQualityGaugesCoverStreamingCodecs(t *testing.T) {
	reg := obs.NewRegistry()
	defer obs.SetDefault(obs.SetDefault(reg))
	codec := NewLossy()
	codec.ChunkExtent = 16
	m := NewManager(codec, 2)
	fields := registerSample(t, m)
	m.EnableQualityTelemetry(true)
	if _, _, err := m.CheckpointTo(openStore(t, t.TempDir(), 2), 1); err != nil {
		t.Fatal(err)
	}
	psnr := map[string]float64{}
	for _, s := range reg.Snapshot().Metrics {
		if s.Name == MetricQualityPSNR {
			psnr[s.Labels["var"]] = s.Value
		}
	}
	for name := range fields {
		if v, ok := psnr[name]; !ok || math.IsNaN(v) || v <= 0 {
			t.Errorf("%s: PSNR gauge %v (set %v)", name, v, ok)
		}
	}
}

// failingCodec fails to encode the variable named bad.
type failingCodec struct {
	Codec
	bad string
}

func (c failingCodec) EncodeEntry(e Entry) (*Encoded, error) {
	if e.Name == c.bad {
		return nil, errors.New("encode failed")
	}
	return c.Codec.(EntryEncoder).EncodeEntry(e)
}

// TestEncodeErrorAbortsCommit: an entry that fails to encode mid-save aborts
// the store commit the save is writing into — no payload left behind, the
// previous latest generation still indexed and restorable.
func TestEncodeErrorAbortsCommit(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 3)
	good := NewManager(None{}, 2)
	registerSample(t, good)
	if _, _, err := good.CheckpointTo(st, 1); err != nil {
		t.Fatal(err)
	}
	bad := NewManager(failingCodec{Codec: None{}, bad: "wind_u"}, 2)
	registerSample(t, bad)
	if _, _, err := bad.CheckpointTo(st, 2); err == nil || !strings.Contains(err.Error(), "encode failed") {
		t.Fatalf("save with a failing entry: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") || e.Name() == "gen-00000002.ckpt" {
			t.Errorf("aborted commit left %s", e.Name())
		}
	}
	if gens := st.Generations(); len(gens) != 1 || gens[0].Seq != 1 {
		t.Fatalf("generations after the aborted save: %+v", gens)
	}
	if _, err := good.RestoreLatest(st); err != nil {
		t.Fatal(err)
	}
}
