package ckpt

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"lossyckpt/internal/climate"
	"lossyckpt/internal/container"
	"lossyckpt/internal/core"
	"lossyckpt/internal/entropy"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/guard"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the current writer")

// pipelineWorkers are the worker counts every pipeline test sweeps: the
// serial loop, fewer workers than entries, and more.
var pipelineWorkers = []int{1, 2, 3, 8}

// climate5 is the paper's checkpoint at a reduced leading extent: the
// climate model's five arrays after a few steps.
func climate5(t testing.TB, nx int) (names []string, fields []*grid.Field) {
	t.Helper()
	cfg := climate.DefaultConfig()
	cfg.Nx = nx
	model, err := climate.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model.StepN(3)
	for _, nf := range model.Fields() {
		names = append(names, nf.Name)
		fields = append(fields, nf.Field.Clone())
	}
	return names, fields
}

func managerOver(t testing.TB, codec Codec, workers int, names []string, fields []*grid.Field) *Manager {
	t.Helper()
	m := NewManager(codec, workers)
	for i, name := range names {
		if err := m.Register(name, fields[i]); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// comparable strips what legitimately differs between two runs of the
// same checkpoint: wall-clock timings.
func comparable(rep *Report) Report {
	out := *rep
	out.Wall = 0
	out.Entries = append([]EntryReport(nil), rep.Entries...)
	for i := range out.Entries {
		out.Entries[i].Timings = core.Timings{}
	}
	return out
}

// describe renders a comparable report with every guarantee spelled out
// field by field (an unbounded one holds NaNs, which no == matches).
func describe(rep *Report) string {
	type fields guard.Annotation // sheds Annotation's String method
	var b strings.Builder
	fmt.Fprintf(&b, "%+v", comparable(rep))
	for _, e := range rep.Entries {
		if e.Guarantee != nil {
			fmt.Fprintf(&b, "\n%s: %+v", e.Name, fields(*e.Guarantee))
		}
	}
	return b.String()
}

// inflatedEntries parses a checkpoint stream and inflates every entry's
// payload: the formatted bytes stage 4 was handed, by variable.
func inflatedEntries(t *testing.T, stream []byte) map[string][]byte {
	t.Helper()
	br := newByteReader(bytes.NewReader(stream))
	hdr, err := readStreamHeader(br)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for i := 0; i < hdr.Count; i++ {
		ent, err := readEntry(br, hdr.Version, i)
		if err != nil {
			t.Fatal(err)
		}
		if out[ent.Name], err = entropy.Decompress(ent.Payload, 1); err != nil {
			t.Fatalf("%s: %v", ent.Name, err)
		}
		ent.release()
	}
	return out
}

// TestStreamGoldenClimate5 holds the v2 stream of the five climate arrays
// under the lossy codec to two files. v1/climate5_lossy_v2.ckpt is what the
// serial writer produced when stage 4 was compress/flate (PR 12) and the
// container stored words; it is only ever read: it must restore, and to the
// same fields bit for bit, whatever writes streams today.
// climate5_lossy_v2_deflate.ckpt is what gzipio's encoder writes over the
// container's byte lanes, pinned for every worker count; its entries hold the
// archives the old ones do, so stages 1-3 have not moved.
func TestStreamGoldenClimate5(t *testing.T) {
	names, fields := climate5(t, 24)
	written := filepath.Join("testdata", "golden", "climate5_lossy_v2_deflate.ckpt")
	if *updateGolden {
		var buf bytes.Buffer
		if _, err := managerOver(t, NewLossy(), 1, names, fields).Checkpoint(&buf, 720); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(written, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var streams [2][]byte
	var restored [2][]*grid.Field
	for k, path := range []string{filepath.Join("testdata", "golden", "v1", "climate5_lossy_v2.ckpt"), written} {
		var err error
		if streams[k], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		for _, f := range fields {
			restored[k] = append(restored[k], grid.MustNew(f.Shape()...))
		}
		rep, err := managerOver(t, NewLossy(), 8, names, restored[k]).Restore(bytes.NewReader(streams[k]))
		if err != nil {
			t.Fatalf("%s no longer restores: %v", path, err)
		}
		if rep.Step != 720 || len(rep.Entries) != len(names) {
			t.Fatalf("%s: restore report %+v", path, rep)
		}
	}
	then, now := inflatedEntries(t, streams[0]), inflatedEntries(t, streams[1])
	for i, name := range names {
		if !reflect.DeepEqual(restored[0][i].Data(), restored[1][i].Data()) {
			t.Errorf("%s: the two golden streams restore to different fields", name)
		}
		arch, err := container.FromBytes(then[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again, err := arch.Bytes(); err != nil || !bytes.Equal(again, now[name]) {
			t.Errorf("%s: the old golden stream's archive, written again, is not the new one's formatted bytes (%v)", name, err)
		}
	}

	// The compressor's arithmetic may be fused differently on other
	// architectures (the Go spec allows x*y+z in one rounding), so the
	// written bytes are pinned where the golden file was recorded.
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bytes recorded on amd64, running on %s", runtime.GOARCH)
	}
	for _, workers := range pipelineWorkers {
		var buf bytes.Buffer
		if _, err := managerOver(t, NewLossy(), workers, names, fields).Checkpoint(&buf, 720); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), streams[1]) {
			t.Errorf("workers=%d: stream (%d bytes) differs from the golden stream (%d bytes)", workers, buf.Len(), len(streams[1]))
		}
	}
}

// TestDecodesV1Corpus: testdata/golden/v1 holds streams written before the
// container stored float sections as byte lanes — stage 4 by compress/flate
// and by gzipio as bare DEFLATE, by lz4 behind the enveloped whole-stream
// shuffle, and the guard's bounded and lossless-bands rungs, the last two
// written by the commit before format 2. None is ever rewritten. Each
// restores, for every worker count, to the fields that commit restored it to
// (fields.sha256), and each is what its name says: a version 1 container,
// under the envelope flag where one is named.
func TestDecodesV1Corpus(t *testing.T) {
	dir := filepath.Join("testdata", "golden", "v1")
	sums, err := os.ReadFile(filepath.Join(dir, "fields.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{} // file -> "name digest" in stream order
	for _, line := range strings.Split(strings.TrimSpace(string(sums)), "\n") {
		file, rest, _ := strings.Cut(line, " ")
		want[file] = append(want[file], rest)
	}
	if len(want) != 4 {
		t.Fatalf("fields.sha256 names %d streams, want 4", len(want))
	}
	shape := []int{24, 82, 2}
	for file, lines := range want {
		stream, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		var codec Codec = NewLossy()
		if strings.Contains(file, "guard") {
			codec = NewGuard(guard.Policy{PSNRFloor: 80})
		}
		for _, workers := range pipelineWorkers {
			var names []string
			var back []*grid.Field
			for _, l := range lines {
				name, _, _ := strings.Cut(l, " ")
				names, back = append(names, name), append(back, grid.MustNew(shape...))
			}
			if _, err := managerOver(t, codec, workers, names, back).Restore(bytes.NewReader(stream)); err != nil {
				t.Fatalf("%s, %d workers: %v", file, workers, err)
			}
			for i, l := range lines {
				if got := fmt.Sprintf("%s %x", names[i], sha256.Sum256(grid.FloatBytes(back[i].Data()))); got != l {
					t.Errorf("%s, %d workers: restored %s, recorded %s", file, workers, got, l)
				}
			}
		}

		br := newByteReader(bytes.NewReader(stream))
		hdr, err := readStreamHeader(br)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < hdr.Count; i++ {
			ent, err := readEntry(br, hdr.Version, i)
			if err != nil {
				t.Fatal(err)
			}
			inner := ent.Payload
			if strings.Contains(file, "guard") {
				if inner, err = guard.InnerPayload(inner); err != nil {
					t.Fatal(err)
				}
			}
			if enveloped := bytes.HasPrefix(inner, []byte("LKE1")); enveloped != strings.Contains(file, "lz4shuffle") {
				t.Errorf("%s/%s: entropy envelope present = %v", file, ent.Name, enveloped)
			} else if enveloped && inner[6]&1 == 0 {
				t.Errorf("%s/%s: envelope without the shuffle flag", file, ent.Name)
			}
			formatted, err := entropy.Decompress(inner, 1)
			if err != nil {
				t.Fatal(err)
			}
			if v := binary.LittleEndian.Uint16(formatted[4:]); v != 1 {
				t.Errorf("%s/%s: container version %d, want 1", file, ent.Name, v)
			}
			ent.release()
		}
	}
}

// TestStreamBytesIndependentOfWorkers: for every codec configuration —
// streaming, buffered fallback, chunked, guarded, and delta mode cold,
// warm and after a mutation — the stream and the report are the serial
// loop's, whatever the worker count.
func TestStreamBytesIndependentOfWorkers(t *testing.T) {
	codecs := streamCodecs()
	codecs["lz4"] = NewLZ4()
	codecs["guard-psnr80"] = NewGuard(guard.Policy{PSNRFloor: 80})
	names, base := climate5(t, 24)
	for label, codec := range codecs {
		for _, delta := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/delta=%v", label, delta), func(t *testing.T) {
				type written struct {
					stream []byte
					rep    string
					reused int
				}
				var want []written
				for _, workers := range pipelineWorkers {
					fields := make([]*grid.Field, len(base))
					for i, f := range base {
						fields[i] = f.Clone()
					}
					m := managerOver(t, codec, workers, names, fields)
					m.SetDelta(delta)
					var got []written
					for step := 0; step < 3; step++ {
						if step == 2 {
							// Dirty one plane of one array: under delta
							// the others are served from cache.
							d := fields[1].Data()
							for i := 0; i < fields[1].Stride(0); i++ {
								d[i] += 0.5
							}
						}
						var buf bytes.Buffer
						rep, err := m.Checkpoint(&buf, step)
						if err != nil {
							t.Fatalf("workers=%d step %d: %v", workers, step, err)
						}
						got = append(got, written{buf.Bytes(), describe(rep), rep.ReusedEntries + rep.DeltaSlabsReused})
					}
					if want == nil {
						want = got
						if delta && want[1].reused == 0 {
							t.Fatalf("warm delta checkpoint reused nothing: %s", want[1].rep)
						}
						continue
					}
					for step := range got {
						if !bytes.Equal(got[step].stream, want[step].stream) {
							t.Errorf("workers=%d step %d: stream differs from workers=1", workers, step)
						}
						if got[step].rep != want[step].rep {
							t.Errorf("workers=%d step %d: report\n%s\nwant\n%s", workers, step, got[step].rep, want[step].rep)
						}
					}
				}
			})
		}
	}
}

// --- restore side -----------------------------------------------------------

// frameV2 builds a CRC-valid v2 stream from raw entries, so a test can
// forge what only a bug or an attacker would write: a duplicate name, an
// intact frame around an undecodable payload.
func frameV2(codec string, step int, ents []*rawEntry) []byte {
	var buf bytes.Buffer
	writeU32(&buf, fileMagic)
	writeU16(&buf, fileVersionStream)
	writeString(&buf, codec)
	writeU64(&buf, uint64(step))
	writeU32(&buf, uint32(len(ents)))
	for _, ent := range ents {
		pro := entryPrologue(nil, ent.Name, ent.Shape)
		crc := crc32.NewIEEE()
		crc.Write(pro)
		buf.Write(pro)
		sw := &segmentWriter{w: &buf, crc: crc}
		sw.whole(ent.Payload)
		sw.finish()
	}
	return buf.Bytes()
}

// restoreOutcome is everything a caller can observe of one read of a
// stream by the three registration-bound and registration-free readers.
type restoreOutcome struct {
	StrictErr, PartialErr, LoadErr, LenientErr string
	Strict, Partial                            *Report
	Skipped                                    []string
	StrictFields, PartialFields                map[string][]float64
	Load, Lenient                              *LoadedCheckpoint
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// scribblePooled overwrites every recycled entry buffer this goroutine can
// reach with garbage, as the next restore to draw them would.
func scribblePooled() {
	var held []*[]byte
	for i := 0; i < 64; i++ {
		b := payloadBufs.Get().(*[]byte)
		whole := (*b)[:cap(*b)]
		for j := range whole {
			whole[j] = 0xA5
		}
		held = append(held, b)
	}
	for _, b := range held {
		payloadBufs.Put(b)
	}
}

// readEveryWay reads one stream with every reader, off an io.Reader or — as
// RestoreLatest, LoadLatest and VerifyStream read a generation — in memory.
// The moment a read returns, the stream's bytes and the recycled buffers are
// overwritten: whatever the outcome still refers to of either shows up as a
// difference between the two sources.
func readEveryWay(t *testing.T, codec Codec, data []byte, workers int, inMemory bool) restoreOutcome {
	t.Helper()
	var out restoreOutcome
	var live []byte
	source := func() *byteReader {
		if !inMemory {
			return newByteReader(bytes.NewReader(data))
		}
		live = append([]byte(nil), data...)
		return &byteReader{b: live}
	}
	settle := func() {
		for i := range live {
			live[i] = 0xA5
		}
		scribblePooled()
	}
	fresh := func() (*Manager, map[string]*grid.Field) {
		m := NewManager(codec, workers)
		fields := registerSample(t, m)
		for _, f := range fields {
			f.Fill(-1)
		}
		return m, fields
	}
	strip := func(rep *Report) *Report {
		if rep == nil {
			return nil
		}
		c := comparable(rep)
		return &c
	}

	m, fields := fresh()
	rep, _, err := m.restore(nil, source(), false)
	settle()
	out.Strict, out.StrictErr = strip(rep), errString(err)
	if err == nil {
		// A failed strict restore leaves an unspecified mix behind.
		out.StrictFields = snapshot(fields)
	}

	m, fields = fresh()
	rep, out.Skipped, err = m.restore(nil, source(), true)
	settle()
	out.Partial, out.PartialErr, out.PartialFields = strip(rep), errString(err), snapshot(fields)

	out.Load, err = loadStream(source(), workers, false)
	settle()
	out.LoadErr = errString(err)
	out.Lenient, err = loadStream(source(), workers, true)
	settle()
	out.LenientErr = errString(err)
	return out
}

// stagedCodec is the restore path as it was before Decode took a destination:
// every array decodes into a field of its own and is copied over the
// registered one whole. It is what decoding in place is held to.
type stagedCodec struct{ Codec }

func (c stagedCodec) Decode(payload []byte, shape []int, into *grid.Field) (*grid.Field, error) {
	f, err := c.Codec.Decode(payload, shape, nil)
	if err != nil || into == nil {
		return f, err
	}
	copy(into.Data(), f.Data())
	return into, nil
}

// restoreCodecs is every codec a registered array can be restored through,
// the three shapes a lossy payload takes — whole, chunked, and chunked out of
// a warm slab cache — and both kinds of stream inside a guard envelope.
type restoreCodec struct {
	label string
	codec Codec
	delta bool
}

func restoreCodecs() []restoreCodec {
	chunked := streamCodecs()["lossy-chunked"]
	return []restoreCodec{
		{"none", None{}, false},
		{"gzip", NewGzip(), false},
		{"lz4", NewLZ4(), false},
		{"fpc", &FPC{}, false},
		{"lossy", NewLossy(), false},
		{"lossy-chunked", chunked, false},
		{"lossy-chunked+delta", chunked, true},
		{"guard", NewGuard(guard.Policy{PSNRFloor: 60}), false},
		// A bound no lossy rung meets: every entry ships the ladder's last
		// rung, bit-exact gzip.
		{"guard-lossless", NewGuard(guard.Policy{MaxAbs: 1e-300}), false},
	}
}

// decodedApart is what each entry decodes to with no destination at all, by
// variable: what an intact stream must restore to.
func decodedApart(t *testing.T, codec Codec, ents []*rawEntry) map[string][]float64 {
	t.Helper()
	want := map[string][]float64{}
	for _, ent := range ents {
		f, err := codec.Decode(ent.Payload, ent.Shape, nil)
		if err != nil {
			t.Fatalf("%s: %v", ent.Name, err)
		}
		want[ent.Name] = f.Data()
	}
	return want
}

// TestRestoreIndependentOfWorkers reads intact, damaged, torn and forged
// streams of every codec with one decode job at a time and with eight, off a
// reader and in memory: fields, reports, skipped lists, guarantee annotations
// and errors must be the same all four ways — and the same again as
// stagedCodec's, which never lets a decoder near a registered array.
func TestRestoreIndependentOfWorkers(t *testing.T) {
	type fixture struct {
		name string
		data []byte
	}
	for _, cfg := range restoreCodecs() {
		codec, codecName := cfg.codec, cfg.codec.Name()
		saver := NewManager(codec, 1)
		saver.SetDelta(cfg.delta)
		saved := registerSample(t, saver)
		var v2 bytes.Buffer
		if cfg.delta {
			// Warm the slab caches, dirty one slab, and read what the
			// second checkpoint assembles out of cached and fresh frames.
			if _, err := saver.Checkpoint(io.Discard, 10); err != nil {
				t.Fatal(err)
			}
			saved["pressure"].Data()[5] += 0.5
		}
		rep, err := saver.Checkpoint(&v2, 11)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.delta && rep.DeltaSlabsReused == 0 {
			t.Fatalf("%s: the warm checkpoint reused no slab: %+v", cfg.label, rep)
		}
		v1 := bytes.NewBuffer(v1Stream(t, saver, 11))
		ents := scanEntries(t, v2.Bytes())
		garbage := &rawEntry{Name: ents[1].Name, Shape: ents[1].Shape, Payload: []byte("not a payload")}
		garbage0 := &rawEntry{Name: ents[0].Name, Shape: ents[0].Shape, Payload: garbage.Payload}
		reshaped := &rawEntry{Name: ents[2].Name, Shape: []int{7, 3}, Payload: ents[2].Payload}

		fixtures := []fixture{
			{"v1", v1.Bytes()},
			{"v2", v2.Bytes()},
			{"undecodable-middle", frameV2(codecName, 11, []*rawEntry{ents[0], garbage, ents[2]})},
			{"duplicate", frameV2(codecName, 11, []*rawEntry{ents[0], ents[1], ents[0]})},
			{"duplicate-after-undecodable", frameV2(codecName, 11, []*rawEntry{garbage0, ents[1], ents[0]})},
			{"undecodable-then-duplicate", frameV2(codecName, 11, []*rawEntry{ents[0], garbage, ents[0]})},
			{"shape-mismatch", frameV2(codecName, 11, []*rawEntry{ents[0], ents[1], reshaped})},
			{"torn-after-first", tearAfterEntry(t, v1.Bytes(), 1)},
		}
		for _, base := range []fixture{{"v1", v1.Bytes()}, {"v2", v2.Bytes()}} {
			stride := len(base.data)/24 + 1
			for at := 5; at < len(base.data); at += stride {
				flipped := append([]byte(nil), base.data...)
				flipped[at] ^= 0x5A
				fixtures = append(fixtures,
					fixture{fmt.Sprintf("%s-flip@%d", base.name, at), flipped},
					fixture{fmt.Sprintf("%s-cut@%d", base.name, at), base.data[:at]})
			}
		}

		want := decodedApart(t, codec, ents)

		var decodeFailures, duplicates int
		for _, fx := range fixtures {
			serial := readEveryWay(t, codec, fx.data, 1, false)
			for _, other := range []struct {
				how      string
				codec    Codec
				workers  int
				inMemory bool
			}{
				{"workers=8", codec, 8, false},
				{"in memory, workers=1", codec, 1, true},
				{"in memory, workers=8", codec, 8, true},
				{"staged, workers=1", stagedCodec{codec}, 1, false},
				{"staged in memory, workers=8", stagedCodec{codec}, 8, true},
			} {
				got := readEveryWay(t, other.codec, fx.data, other.workers, other.inMemory)
				if !reflect.DeepEqual(serial, got) {
					t.Errorf("%s/%s: read %s differs from a reader at workers=1\n%+v\nwant\n%+v", cfg.label, fx.name, other.how, got, serial)
				}
			}
			if fx.name == "v1" || fx.name == "v2" {
				if serial.StrictErr != "" || !reflect.DeepEqual(serial.StrictFields, want) {
					t.Errorf("%s/%s: restored arrays are not what Decode(payload, shape, nil) returns (error %q)", cfg.label, fx.name, serial.StrictErr)
				}
			}
			if strings.Contains(serial.StrictErr, "ckpt: decoding") {
				decodeFailures++
			}
			if strings.Contains(serial.StrictErr, "duplicate variable") {
				duplicates++
			}
		}
		if decodeFailures == 0 || duplicates == 0 {
			t.Errorf("%s: fixtures hit %d decode failures and %d duplicates; the sweep lost its cases", cfg.label, decodeFailures, duplicates)
		}
	}
}

// TestLoadStreamWorkersReachEveryCodec: the registration-free readers
// hand their worker bound to the guard's decoder too, not only to the
// lossy codec's.
func TestLoadStreamWorkersReachEveryCodec(t *testing.T) {
	for _, name := range []string{"lossy", "guard"} {
		codec, err := decoderFor(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		var got int
		switch c := codec.(type) {
		case *Lossy:
			got = c.Options.Workers
		case *Guard:
			got = c.Options.Workers
		}
		if got != 3 {
			t.Errorf("%s decoder runs with %d workers, want 3", name, got)
		}
	}
}

// --- failure paths ----------------------------------------------------------

// faultWriter fails, or cancels a context, at its k-th write, and records
// any write that arrives after the checkpoint call returned.
type faultWriter struct {
	k        int
	fail     error
	cancel   context.CancelFunc
	writes   int
	returned bool
	late     int
}

func (w *faultWriter) Write(p []byte) (int, error) {
	if w.returned {
		w.late++
	}
	w.writes++
	if w.writes == w.k {
		if w.cancel != nil {
			w.cancel()
		} else {
			return 0, w.fail
		}
	}
	return len(p), nil
}

// settledGoroutines waits for goroutines that have already been waited
// for to leave the scheduler's count.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// TestCheckpointFailurePaths fails the writer, and cancels the
// context, at every write of the stream in turn: whatever the worker
// count, the error is the serial loop's, no goroutine outlives the call
// and no write arrives after it.
func TestCheckpointFailurePaths(t *testing.T) {
	boom := errors.New("boom")
	// One codec that streams, one that streams from its own goroutines,
	// one that encodes buffered.
	names, fields := climate5(t, 20)
	for _, label := range []string{"none", "lossy-chunked", "guard"} {
		codec := streamCodecs()[label]
		var count faultWriter
		if _, err := managerOver(t, codec, 1, names, fields).Checkpoint(&count, 1); err != nil {
			t.Fatal(err)
		}
		for _, cancelling := range []bool{false, true} {
			for k := 1; k <= count.writes; k++ {
				var want string
				for _, workers := range pipelineWorkers {
					before := runtime.NumGoroutine()
					ctx, cancel := context.WithCancel(context.Background())
					w := &faultWriter{k: k, fail: boom}
					sentinel := boom
					if cancelling {
						w.cancel, sentinel = cancel, context.Canceled
					}
					rep, err := managerOver(t, codec, workers, names, fields).checkpoint(ctx, w, 1)
					w.returned = true
					cancel()

					what := fmt.Sprintf("%s cancel=%v k=%d workers=%d", label, cancelling, k, workers)
					if cancelling && k == count.writes {
						// Cancelled as the last byte left: nothing observes it.
						if err != nil {
							t.Errorf("%s: %v", what, err)
						}
						continue
					}
					if !errors.Is(err, sentinel) || rep != nil {
						t.Fatalf("%s: report %v, error %v", what, rep, err)
					}
					got := err.Error()
					if label == "lossy-chunked" {
						// The chunked engine names the frame a write failed
						// in; a spilled frame fails at the drain, unnamed.
						// Compare what the manager wrapped around either.
						got = strings.Join(strings.SplitN(got, ": ", 3)[:2], ": ")
					}
					if workers == 1 {
						want = got
					} else if got != want {
						t.Errorf("%s: error %q, serial loop's %q", what, got, want)
					}
					if n := settledGoroutines(before); n > before {
						t.Errorf("%s: %d goroutines before the call, %d after", what, before, n)
					}
					if w.late != 0 {
						t.Errorf("%s: %d writes after the call returned", what, w.late)
					}
				}
			}
		}
	}
}

// --- memory bound -----------------------------------------------------------

// liveHeapWriter is heapPeakWriter collecting before every sample, so the
// figure is what the checkpoint holds rather than what the collector has
// not reached yet.
type liveHeapWriter struct{ heapPeakWriter }

func (h *liveHeapWriter) Write(p []byte) (int, error) {
	runtime.GC()
	return h.heapPeakWriter.Write(p)
}

// TestCheckpointStreamPeakHeapFiveEntries is the memory bound of the
// entry pipeline: with five 4 MiB arrays stored verbatim (payload = array
// size, the worst case for a spill), a checkpoint with w workers holds at
// most w-1 payloads more than the serial loop does.
func TestCheckpointStreamPeakHeapFiveEntries(t *testing.T) {
	const workers = 3
	var names []string
	var fields []*grid.Field
	for i := 0; i < 5; i++ {
		names = append(names, fmt.Sprintf("q%d", i))
		fields = append(fields, smoothField(8192, 64))
	}
	payload := uint64(fields[0].Bytes())
	peak := func(workers int) uint64 {
		var w liveHeapWriter
		if _, err := managerOver(t, None{}, workers, names, fields).Checkpoint(&w, 1); err != nil {
			t.Fatal(err)
		}
		return w.peak
	}
	peak(workers) // fill the block pool, so both runs below start alike
	serial, wide := peak(1), peak(workers)
	t.Logf("payload %d KiB, serial peak %d KiB, workers=%d peak %d KiB", payload>>10, serial>>10, workers, wide>>10)
	// One block of slack per follower (a spill rounds up to its block
	// size) and one MiB for the encoders' own scratch.
	if limit := serial + (workers-1)*(payload+streamSegment) + 1<<20; wide > limit {
		t.Errorf("workers=%d live heap %d KiB exceeds serial + %d payloads = %d KiB", workers, wide>>10, workers-1, limit>>10)
	}
}
