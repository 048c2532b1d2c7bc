package ckpt

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"lossyckpt/internal/grid"
	"lossyckpt/internal/store"
)

func openStore(t *testing.T, dir string, keep int) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Keep: keep})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// snapshot copies every registered field's data for later comparison.
func snapshot(fields map[string]*grid.Field) map[string][]float64 {
	out := make(map[string][]float64, len(fields))
	for name, f := range fields {
		out[name] = append([]float64(nil), f.Data()...)
	}
	return out
}

func scramble(fields map[string]*grid.Field) {
	for _, f := range fields {
		for i := range f.Data() {
			f.Data()[i] = -1
		}
	}
}

func TestCheckpointToRestoreLatest(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 3)
	mgr := NewManager(None{}, 1)
	fields := registerSample(t, mgr)
	want := snapshot(fields)

	rep, gen, err := mgr.CheckpointTo(st, 42)
	if err != nil {
		t.Fatalf("CheckpointTo: %v", err)
	}
	if gen.Seq != 1 || gen.Step != 42 || rep.FileBytes == 0 {
		t.Fatalf("gen %+v, report %+v", gen, rep)
	}

	scramble(fields)
	res, err := mgr.RestoreLatest(st)
	if err != nil {
		t.Fatalf("RestoreLatest: %v", err)
	}
	if res.Partial || res.Generation != 1 || res.Step != 42 || len(res.Restored) != 3 {
		t.Fatalf("restore result %+v", res)
	}
	for name, f := range fields {
		for i, v := range f.Data() {
			if v != want[name][i] {
				t.Fatalf("%s[%d] = %v, want %v", name, i, v, want[name][i])
			}
		}
	}
}

func TestRestoreLatestFallsBackAcrossGenerations(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 3)
	mgr := NewManager(None{}, 1)
	fields := registerSample(t, mgr)

	// Three generations with distinguishable data.
	var snaps []map[string][]float64
	for s := 1; s <= 3; s++ {
		for _, f := range fields {
			for i := range f.Data() {
				f.Data()[i] = float64(1000*s + i%97)
			}
		}
		snaps = append(snaps, snapshot(fields))
		if _, _, err := mgr.CheckpointTo(st, s); err != nil {
			t.Fatal(err)
		}
	}

	// Corrupt the newest generation's payload on disk (bit flip: the
	// manifest CRC check must reject it).
	latest, _ := st.Latest()
	path := filepath.Join(dir, "gen-00000003.ckpt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if latest.Seq != 3 {
		t.Fatalf("latest %d, want 3", latest.Seq)
	}

	// Reopen the store (fresh CRC state) and restore: must fall back to
	// generation 2, bit-exact.
	st2 := openStore(t, dir, 3)
	scramble(fields)
	res, err := mgr.RestoreLatest(st2)
	if err != nil {
		t.Fatalf("RestoreLatest: %v", err)
	}
	if res.Generation != 2 || res.Partial || res.Step != 2 {
		t.Fatalf("fell back to %+v, want full restore of gen 2", res)
	}
	for name, f := range fields {
		for i, v := range f.Data() {
			if v != snaps[1][name][i] {
				t.Fatalf("%s[%d] = %v, want gen-2 value %v", name, i, v, snaps[1][name][i])
			}
		}
	}
}

// tearAfterEntry truncates a checkpoint stream right after entry n's
// frame, then recomputes nothing — the store-level CRC won't match, so
// only frame-level recovery can mine the prefix.
func tearAfterEntry(t *testing.T, data []byte, n int) []byte {
	t.Helper()
	r := bytes.NewReader(data)
	br := newByteReader(r)
	if _, err := readStreamHeader(br); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= n; i++ {
		if _, _, err := readEntryFrame(br, i); err != nil {
			t.Fatal(err)
		}
	}
	cut := len(data) - r.Len()
	return data[:cut]
}

func TestRestoreLatestPartialFromTornTail(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 2)
	mgr := NewManager(None{}, 1)
	fields := registerSample(t, mgr)
	want := snapshot(fields)

	buf := bytes.NewBuffer(v1Stream(t, mgr, 9)) // tearAfterEntry and readEntryFrame walk v1 frames
	// Commit a single generation whose tail is torn after the first
	// entry: only "temperature" survives.
	torn := tearAfterEntry(t, buf.Bytes(), 0)
	if _, err := st.Commit(9, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "gen-00000001.ckpt")
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	scramble(fields)
	res, err := mgr.RestoreLatest(st)
	if err != nil {
		t.Fatalf("RestoreLatest on torn tail: %v", err)
	}
	if !res.Partial {
		t.Fatalf("expected a partial restore, got %+v", res)
	}
	if len(res.Restored) != 1 || res.Restored[0] != "temperature" {
		t.Fatalf("restored %v, want [temperature]", res.Restored)
	}
	if len(res.Skipped) != 2 {
		t.Fatalf("skipped %v, want the two lost arrays", res.Skipped)
	}
	for i, v := range fields["temperature"].Data() {
		if v != want["temperature"][i] {
			t.Fatalf("temperature[%d] = %v, want %v", i, v, want["temperature"][i])
		}
	}
	// The torn arrays stay scrambled — flagged, not silently zeroed.
	if fields["pressure"].Data()[0] != -1 {
		t.Fatal("skipped array was unexpectedly written")
	}
}

func TestRestorePartialSkipsFlippedFrame(t *testing.T) {
	mgr := NewManager(None{}, 1)
	fields := registerSample(t, mgr)
	want := snapshot(fields)
	buf := bytes.NewBuffer(v1Stream(t, mgr, 5)) // tearAfterEntry and readEntryFrame walk v1 frames
	data := append([]byte(nil), buf.Bytes()...)

	// Locate entry 1's body and flip a bit inside it: its CRC fails but
	// entries 0 and 2 stay recoverable because the outer framing is
	// intact.
	r := bytes.NewReader(data)
	br := newByteReader(r)
	if _, err := readStreamHeader(br); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readEntryFrame(br, 0); err != nil {
		t.Fatal(err)
	}
	entry1Start := len(data) - r.Len()
	data[entry1Start+4+8+10] ^= 0x80 // 10 bytes into entry 1's body

	scramble(fields)
	rep, skipped, err := mgr.RestorePartial(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("RestorePartial: %v", err)
	}
	if len(rep.Entries) != 2 {
		t.Fatalf("restored %d entries, want 2", len(rep.Entries))
	}
	if len(skipped) != 1 || skipped[0] != "pressure" {
		t.Fatalf("skipped %v, want [pressure]", skipped)
	}
	for _, name := range []string{"temperature", "wind_u"} {
		for i, v := range fields[name].Data() {
			if v != want[name][i] {
				t.Fatalf("%s[%d] not restored", name, i)
			}
		}
	}
}

func TestLoadLatestDiscoversFields(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 2)
	mgr := NewManager(NewGzip(), 1)
	fields := registerSample(t, mgr)
	want := snapshot(fields)
	if _, _, err := mgr.CheckpointTo(st, 77); err != nil {
		t.Fatal(err)
	}

	lc, err := LoadLatest(st, 1)
	if err != nil {
		t.Fatalf("LoadLatest: %v", err)
	}
	if lc.Partial || lc.Step != 77 || lc.Codec != "gzip" || len(lc.Fields) != 3 {
		t.Fatalf("loaded %+v", lc)
	}
	for _, lf := range lc.Fields {
		ref := want[lf.Name]
		if ref == nil {
			t.Fatalf("unexpected field %q", lf.Name)
		}
		for i, v := range lf.Field.Data() {
			if v != ref[i] {
				t.Fatalf("%s[%d] = %v, want %v", lf.Name, i, v, ref[i])
			}
		}
	}
}

func TestRestoreLatestEmptyStore(t *testing.T) {
	st := openStore(t, t.TempDir(), 2)
	mgr := NewManager(None{}, 1)
	registerSample(t, mgr)
	if _, err := mgr.RestoreLatest(st); !errors.Is(err, ErrStoreEmpty) {
		t.Fatalf("RestoreLatest on empty store = %v, want ErrStoreEmpty", err)
	}
	if _, err := LoadLatest(st, 1); !errors.Is(err, ErrStoreEmpty) {
		t.Fatalf("LoadLatest on empty store = %v, want ErrStoreEmpty", err)
	}
}

// TestStreamCRCMatchesStore sanity-checks that the store-level CRC and
// the stream's own frame CRCs protect the same bytes (no double
// transformation).
func TestStreamCRCMatchesStore(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 2)
	mgr := NewManager(None{}, 1)
	registerSample(t, mgr)
	var buf bytes.Buffer
	if _, err := mgr.Checkpoint(&buf, 1); err != nil {
		t.Fatal(err)
	}
	gen, err := st.Commit(1, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if gen.CRC != crc32.ChecksumIEEE(buf.Bytes()) {
		t.Fatal("store CRC does not cover the raw stream bytes")
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, "gen-00000001.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, buf.Bytes()) {
		t.Fatal("on-disk generation is not the raw stream")
	}
}
