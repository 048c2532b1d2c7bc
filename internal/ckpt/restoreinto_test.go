package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"lossyckpt/internal/grid"
	"lossyckpt/internal/guard"
)

// restoreinto_test.go holds Codec.Decode's destination to what it promises:
// what an error leaves in an array the application registered, that a forged
// shape sizes nothing, and that a restore allocates no array.

const untouched = -1

// allUntouched reports whether every value still is the fill a test put there.
func allUntouched(vals []float64) bool {
	for _, v := range vals {
		if v != untouched {
			return false
		}
	}
	return true
}

// chunkSpan is one chunk of a chunked lossy payload: its first plane, its
// extent and where its own stream lies in the payload.
type chunkSpan struct{ plane, ext, off, n int }

// chunkSpans parses the framing of a chunked lossy payload.
func chunkSpans(t *testing.T, payload []byte) (spans []chunkSpan) {
	t.Helper()
	nd := int(binary.LittleEndian.Uint16(payload[6:]))
	pos := 8 + 8*nd
	count := int(binary.LittleEndian.Uint32(payload[pos:]))
	pos += 4
	plane := 0
	for c := 0; c < count; c++ {
		ext := int(binary.LittleEndian.Uint32(payload[pos:]))
		n := int(binary.LittleEndian.Uint64(payload[pos+4:]))
		spans = append(spans, chunkSpan{plane, ext, pos + 12, n})
		pos += 12 + n
		plane += ext
	}
	if pos != len(payload) {
		t.Fatalf("chunk framing covers %d of %d payload bytes", pos, len(payload))
	}
	return spans
}

// restoreBothWays reads one stream with Restore and with RestorePartial, each
// into registered arrays freshly filled with the untouched marker.
func restoreBothWays(t *testing.T, codec Codec, workers int, stream []byte) (strictErr error, strict map[string]*grid.Field, skipped []string, partial map[string]*grid.Field) {
	t.Helper()
	fresh := func() (*Manager, map[string]*grid.Field) {
		m := NewManager(codec, workers)
		fields := registerSample(t, m)
		for _, f := range fields {
			f.Fill(untouched)
		}
		return m, fields
	}
	m, strict := fresh()
	_, strictErr = m.Restore(bytes.NewReader(stream))
	m, partial = fresh()
	_, skipped, err := m.RestorePartial(bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("RestorePartial: %v", err)
	}
	return strictErr, strict, skipped, partial
}

// TestRestoreChunkedBadSlab: a CRC-clean chunked entry with one slab that does
// not decode. A strict restore fails with the error it always failed with and
// has written every slab but that one; a lenient restore skips the variable
// and has not touched its array.
func TestRestoreChunkedBadSlab(t *testing.T) {
	codec := streamCodecs()["lossy-chunked"]
	saver := NewManager(codec, 1)
	registerSample(t, saver)
	var buf bytes.Buffer
	if _, err := saver.Checkpoint(&buf, 11); err != nil {
		t.Fatal(err)
	}
	ents := scanEntries(t, buf.Bytes())
	want := decodedApart(t, codec, ents)

	const bad = 2
	spans := chunkSpans(t, ents[0].Payload)
	if len(spans) != 4 {
		t.Fatalf("%q has %d slabs, the test wants 4", ents[0].Name, len(spans))
	}
	rotten := append([]byte(nil), ents[0].Payload...)
	rotten[spans[bad].off+spans[bad].n/2] ^= 0x5A
	stream := frameV2(codec.Name(), 11, []*rawEntry{
		{Name: ents[0].Name, Shape: ents[0].Shape, Payload: rotten}, ents[1], ents[2]})

	for _, workers := range []int{1, 8} {
		strictErr, strict, skipped, partial := restoreBothWays(t, codec, workers, stream)
		stagedErr, _, stagedSkipped, _ := restoreBothWays(t, stagedCodec{codec}, workers, stream)
		if strictErr == nil || !strings.Contains(strictErr.Error(), fmt.Sprintf("chunk %d", bad)) {
			t.Fatalf("workers=%d: Restore of a stream with a rotten slab: %v", workers, strictErr)
		}
		if strictErr.Error() != stagedErr.Error() {
			t.Errorf("workers=%d: Restore fails with %q, decoding apart with %q", workers, strictErr, stagedErr)
		}
		name := ents[0].Name
		got := strict[name].Data()
		planeElems := len(got) / ents[0].Shape[0]
		for c, sp := range spans {
			lo, hi := sp.plane*planeElems, (sp.plane+sp.ext)*planeElems
			switch {
			case c == bad && !allUntouched(got[lo:hi]):
				t.Errorf("workers=%d: the slab that failed to decode wrote planes %d..%d", workers, sp.plane, sp.plane+sp.ext)
			case c != bad && !reflect.DeepEqual(got[lo:hi], want[name][lo:hi]):
				t.Errorf("workers=%d: slab %d is not the decoded array's", workers, c)
			}
		}

		if !reflect.DeepEqual(skipped, []string{name}) || !reflect.DeepEqual(skipped, stagedSkipped) {
			t.Errorf("workers=%d: RestorePartial skipped %v, decoding apart %v, want [%s]", workers, skipped, stagedSkipped, name)
		}
		for n, f := range partial {
			if n == name && !allUntouched(f.Data()) {
				t.Errorf("workers=%d: RestorePartial skipped %q and wrote it", workers, n)
			}
			if n != name && !reflect.DeepEqual(f.Data(), want[n]) {
				t.Errorf("workers=%d: RestorePartial left %q unrestored", workers, n)
			}
		}
	}
}

// TestRestorePlainFailureTouchesNothing: an entry that fails to decode as a
// whole — cut short, or holding another array's payload under this one's name
// and shape — leaves its registered array as it was, strict or lenient, for
// every codec.
func TestRestorePlainFailureTouchesNothing(t *testing.T) {
	for _, cfg := range restoreCodecs() {
		codec := cfg.codec
		saver := NewManager(codec, 1)
		registerSample(t, saver)
		var buf bytes.Buffer
		if _, err := saver.Checkpoint(&buf, 11); err != nil {
			t.Fatal(err)
		}
		ents := scanEntries(t, buf.Bytes())
		victim := ents[2] // wind_u, 32×32; the other two are 64×20×2
		for _, fx := range []struct {
			what    string
			payload []byte
		}{
			{"cut short", victim.Payload[:len(victim.Payload)-3]},
			{"another array's payload", ents[0].Payload},
		} {
			stream := frameV2(codec.Name(), 11, []*rawEntry{ents[0], ents[1],
				{Name: victim.Name, Shape: victim.Shape, Payload: fx.payload}})
			strictErr, strict, skipped, partial := restoreBothWays(t, codec, 2, stream)
			if strictErr == nil || !strings.Contains(strictErr.Error(), fmt.Sprintf("ckpt: decoding %q", victim.Name)) {
				t.Errorf("%s, %s: Restore: %v", cfg.label, fx.what, strictErr)
			}
			if !allUntouched(strict[victim.Name].Data()) {
				t.Errorf("%s, %s: Restore failed on %q and wrote it", cfg.label, fx.what, victim.Name)
			}
			if !reflect.DeepEqual(skipped, []string{victim.Name}) || !allUntouched(partial[victim.Name].Data()) {
				t.Errorf("%s, %s: RestorePartial skipped %v; %q untouched: %v", cfg.label, fx.what, skipped, victim.Name, allUntouched(partial[victim.Name].Data()))
			}
		}
	}
}

// TestDecodeRefusesMismatchedDestination: a destination that does not have the
// shape asked for, or a payload that does not hold it, is an error for every
// codec and writes nothing.
func TestDecodeRefusesMismatchedDestination(t *testing.T) {
	src := smoothField(64, 20, 2)
	for _, cfg := range restoreCodecs() {
		enc, err := cfg.codec.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		into := grid.MustNew(32, 32)
		into.Fill(untouched)
		for _, shape := range [][]int{src.Shape(), into.Shape()} {
			if f, err := cfg.codec.Decode(enc.Payload, shape, into); err == nil {
				t.Errorf("%s: a %v payload decoded as %v into a %v field: %v", cfg.label, src.Shape(), shape, into.Shape(), f.Shape())
			}
			if !allUntouched(into.Data()) {
				t.Fatalf("%s: a refused decode (shape %v) wrote its destination", cfg.label, shape)
			}
		}
		same := grid.MustNew(src.Shape()...)
		got, err := cfg.codec.Decode(enc.Payload, src.Shape(), same)
		if err != nil || got != same {
			t.Fatalf("%s: decode into a matching field returned %p (want %p): %v", cfg.label, got, same, err)
		}
		apart, err := cfg.codec.Decode(enc.Payload, src.Shape(), nil)
		if err != nil || !apart.Equal(same) {
			t.Errorf("%s: decoding in place and apart differ (%v)", cfg.label, err)
		}
	}
}

// allocatedBy is the heap fn allocates, with the collector held off so that
// no pool is emptied half way.
func allocatedBy(fn func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestForgedShapeSizesNothing: a shape a stream merely declares must not size
// an allocation before the payload has been held against it. None and Gzip
// used to make the field first: 1 GiB for the first shape below, and a
// makeslice panic on a decode goroutine of LoadLatest for the last.
func TestForgedShapeSizesNothing(t *testing.T) {
	small, err := NewGzip().Encode(smoothField(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range [][]int{{1 << 27}, {math.MaxInt32, 4}, {math.MaxInt32, math.MaxInt32}} {
		for _, c := range []struct {
			codec   Codec
			payload []byte
		}{{None{}, nil}, {None{}, make([]byte, 64)}, {NewGzip(), small.Payload}, {NewLZ4(), small.Payload}} {
			var err error
			got := allocatedBy(func() { _, err = c.codec.Decode(c.payload, shape, nil) })
			if err == nil || got > 1<<20 {
				t.Errorf("%s: a %d-byte payload declared as %v: %d bytes allocated, error %v", c.codec.Name(), len(c.payload), shape, got, err)
			}
		}
		// The registration-free readers take the shape from the prologue
		// with nothing to vet it against.
		forged := frameV2("none", 1, []*rawEntry{{Name: "x", Shape: shape, Payload: make([]byte, 64)}})
		for _, lenient := range []bool{false, true} {
			var err error
			got := allocatedBy(func() { _, err = loadStream(&byteReader{b: forged}, 2, lenient) })
			if err == nil || got > 1<<20 {
				t.Errorf("loadStream(lenient=%v) of a forged %v prologue: %d bytes allocated, error %v", lenient, shape, got, err)
			}
		}
		if err := VerifyStream(forged, true, 2); err == nil {
			t.Errorf("VerifyStream decoded a forged %v prologue", shape)
		}
	}
}

// TestRestoreAllocatesNoArray: once the pools are warm, restoring a 4 MiB
// array allocates nothing of its size — not a field to decode into, not a
// buffer to inflate into — for the codecs a checkpoint is written with. The
// ceiling is a quarter of the array where the payload is the array; the lossy
// codecs get a third, because container.FromBytes still gathers the low band
// (an eighth of a 3-D array) and the values stored verbatim out of the byte
// lanes of the formatted bytes: 0.30–0.32 of this one, against 0.39–0.41 when
// the codes were copied too and 1.4 when a field was allocated and copied as
// well.
func TestRestoreAllocatesNoArray(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	chunked := NewLossy()
	chunked.ChunkExtent = 8 // 16 slabs
	for _, c := range []struct {
		label   string
		codec   Codec
		ceiling int // as a fraction 1/ceiling of the array
	}{
		{"none", None{}, 4},
		{"gzip", NewGzip(), 4},
		{"lz4", NewLZ4(), 4},
		{"lossy", NewLossy(), 3},
		{"lossy-chunked", chunked, 3},
		{"guard", mustCodec("guard"), 3},
		{"guard-lossless", NewGuard(guard.Policy{MaxAbs: 1e-300}), 4},
	} {
		live := smoothField(128, 64, 64)
		m := NewManager(c.codec, 1)
		if err := m.Register("a", live); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := m.Checkpoint(&buf, 1); err != nil {
			t.Fatal(err)
		}
		// Both layouts a restore reads: the one written, and v1.
		for _, stream := range [][]byte{buf.Bytes(), v1Stream(t, m, 1)} {
			restore := func() {
				if _, err := m.Restore(bytes.NewReader(stream)); err != nil {
					t.Fatalf("%s: %v", c.label, err)
				}
			}
			// Warm-up: the pools now hold this restore's buffers. The
			// collector is held off from here on, or a cycle between two
			// restores would empty them again. The least of a few readings
			// counts: a buffer put back on one P's private slot is out of
			// reach of a decode job that lands on another.
			got := uint64(math.MaxUint64)
			allocatedBy(func() {
				restore()
				restore()
				for i := 0; i < 5; i++ {
					got = min(got, allocatedBy(restore))
				}
			})
			t.Logf("%s: a restore of %d KiB allocates %d KiB", c.label, live.Bytes()>>10, got>>10)
			if limit := uint64(live.Bytes() / c.ceiling); got > limit {
				t.Errorf("%s: a restore of a %d KiB array allocates %d KiB, want under %d", c.label, live.Bytes()>>10, got>>10, limit>>10)
			}
		}
	}
}

// TestLZ4RefusalLeavesArray: the lz4 codec decodes a payload's lanes straight
// into the registered array, but only once the payload has decoded whole and
// its length has been held against the shape. A payload cut short, one with a
// bit flipped where the coder must notice it (the envelope magic, the declared
// length), one of another array's length, and any flip that fails at all leave
// the array bit for bit as it was.
func TestLZ4RefusalLeavesArray(t *testing.T) {
	codec := NewLZ4()
	shape := []int{64, 20, 2}
	enc, err := codec.Encode(smoothField(shape...))
	if err != nil {
		t.Fatal(err)
	}
	payload := enc.Payload
	longer, err := codec.Encode(smoothField(64, 20, 3))
	if err != nil {
		t.Fatal(err)
	}
	into := grid.MustNew(shape...)
	for i := range into.Data() {
		into.Data()[i] = math.Float64frombits(0x7ff8_dead_beef_0000 + uint64(i)) // NaNs: compared by bits
	}
	before := bytes.Clone(grid.FloatBytes(into.Data()))
	// refused decodes p into into and reports whether Decode failed; a failure
	// must leave into untouched, a success is undone for the next case.
	refused := func(what string, p []byte, shape []int, into *grid.Field) bool {
		t.Helper()
		if _, err := codec.Decode(p, shape, into); err == nil {
			grid.PutFloatBytes(into.Data(), before)
			return false
		}
		if !bytes.Equal(grid.FloatBytes(into.Data()), before) {
			t.Fatalf("%s: Decode failed and left the array changed", what)
		}
		return true
	}

	for cut := 0; cut < len(payload); cut++ {
		if !refused(fmt.Sprintf("cut at %d of %d", cut, len(payload)), payload[:cut], shape, into) {
			t.Errorf("a payload cut at %d of %d bytes decoded", cut, len(payload))
		}
	}
	_, lenBytes := binary.Uvarint(payload[8:])
	mustFail := func(at int) bool { return at < 4 || (at >= 8 && at < 8+lenBytes) }
	failures := 0
	for at := 0; at < len(payload); at++ {
		for bit := 0; bit < 8; bit++ {
			if at >= 64 && bit > 0 && at%61 != 0 {
				continue // past the headers, one bit of most bytes and all of some
			}
			flipped := bytes.Clone(payload)
			flipped[at] ^= 1 << bit
			if refused(fmt.Sprintf("bit %d of byte %d flipped", bit, at), flipped, shape, into) {
				failures++
			} else if mustFail(at) {
				t.Errorf("a payload with bit %d of byte %d flipped decoded", bit, at)
			}
		}
	}
	if headerFlips := 8 * (4 + lenBytes); failures <= headerFlips {
		t.Errorf("%d flips failed, no more than the %d in the headers: the sweep lost its cases", failures, headerFlips)
	}
	if !refused("another array's payload", longer.Payload, shape, into) {
		t.Error("a payload of 64×20×3 values decoded into a 64×20×2 array")
	}
	wider := grid.MustNew(64, 20, 3)
	grid.PutFloatBytes(wider.Data()[:len(into.Data())], before)
	if _, err := codec.Decode(payload, []int{64, 20, 3}, wider); err == nil {
		t.Error("a payload of 64×20×2 values decoded into a 64×20×3 array")
	} else if !bytes.Equal(grid.FloatBytes(wider.Data()[:len(into.Data())]), before) || countNonZero(wider.Data()[len(into.Data()):]) != 0 {
		t.Error("a payload refused for a 64×20×3 array left the array changed")
	}
}

func countNonZero(vals []float64) (n int) {
	for _, v := range vals {
		if v != 0 {
			n++
		}
	}
	return n
}

// TestLZ4AllocatesOnlyThePayload: once the pools are warm, the lz4 codec moves
// each byte of a 4 MiB array once. Encoding it allocates the payload it
// returns and nothing array-sized besides — the lanes are pooled and the coder
// writes behind the envelope header — and decoding it into a registered array
// allocates nothing array-sized: the lanes go from a pooled buffer into the
// array. Skipped under -race, where sync.Pool drops entries.
func TestLZ4AllocatesOnlyThePayload(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	live := smoothField(128, 64, 64)
	codec := NewLZ4()
	into := grid.MustNew(128, 64, 64)
	var enc *Encoded
	encode := func() {
		var err error
		if enc, err = codec.EncodeEntry(Entry{Field: live}); err != nil {
			t.Fatal(err)
		}
	}
	decode := func() {
		if _, err := codec.Decode(enc.Payload, live.Shape(), into); err != nil {
			t.Fatal(err)
		}
	}
	// The least of a few readings counts, as in TestRestoreAllocatesNoArray.
	encAlloc, decAlloc := uint64(math.MaxUint64), uint64(math.MaxUint64)
	allocatedBy(func() {
		encode()
		decode()
		for i := 0; i < 5; i++ {
			encAlloc = min(encAlloc, allocatedBy(encode))
			decAlloc = min(decAlloc, allocatedBy(decode))
		}
	})
	if !into.Equal(live) {
		t.Fatal("the decoded array differs from the encoded one")
	}
	slack := uint64(live.Bytes() / 16)
	t.Logf("a %d KiB array: encode allocates %d KiB (payload capacity %d KiB), decode %d KiB",
		live.Bytes()>>10, encAlloc>>10, cap(enc.Payload)>>10, decAlloc>>10)
	if encAlloc > uint64(cap(enc.Payload))+slack {
		t.Errorf("encode allocates %d KiB for a payload of capacity %d KiB", encAlloc>>10, cap(enc.Payload)>>10)
	}
	if decAlloc > slack {
		t.Errorf("decode into a registered array allocates %d KiB, want under %d", decAlloc>>10, slack>>10)
	}
}
