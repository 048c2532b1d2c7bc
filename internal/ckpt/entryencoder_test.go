package ckpt

import (
	"bytes"
	"sync/atomic"
	"testing"

	"lossyckpt/internal/core"
	"lossyckpt/internal/entropy"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/guard"
	"lossyckpt/internal/gzipio"
)

// Every codec that needs more than Encode(f) gets it through the one
// extension.
var (
	_ EntryEncoder = None{}
	_ EntryEncoder = (*Gzip)(nil)
	_ EntryEncoder = (*Lossy)(nil)
	_ EntryEncoder = (*Guard)(nil)
)

// TestEntryEncodeModesSamePayload: however the manager asks for an entry —
// returned, written to a writer, or under delta rules on a cold cache, a warm
// one and a changed array — the payload is Encode(f)'s, and it arrives
// exactly once: in the writer or as Payload. A lossless entropy codec's
// payload is also its stage-4 selection's over the raw array, through
// core.CompressGzipOnly and through entropy.Compress.
func TestEntryEncodeModesSamePayload(t *testing.T) {
	chunked := NewLossy()
	chunked.ChunkExtent = 8
	for _, tc := range []struct {
		name   string
		codec  Codec
		slabs  bool            // the codec reuses slabs, not whole entries
		stage4 *entropy.Params // the raw array's stage-4 selection, if that is the codec
	}{
		{"none", None{}, false, nil},
		{"gzip", NewGzip(), false, &entropy.Params{GzipLevel: gzipio.Default}},
		{"lz4", NewLZ4(), false, &entropy.Params{Codec: entropy.LZ4, Shuffle: true}},
		{"fpc", &FPC{}, false, nil},
		{"lossy-whole", NewLossy(), false, nil},
		{"lossy-chunked", chunked, true, nil},
		{"guard", NewGuard(guard.Policy{MaxAbs: 1e-2}), false, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := smoothField(44, 12, 2) // 5 slabs of 8 and one of 4
			m := managerOver(t, tc.codec, 1, []string{"v"}, []*grid.Field{f})
			want := func() []byte {
				t.Helper()
				enc, err := tc.codec.Encode(f)
				if err != nil {
					t.Fatal(err)
				}
				return enc.Payload
			}

			if tc.stage4 != nil {
				viaCore, err := core.CompressGzipOnly(f, *tc.stage4)
				if err != nil {
					t.Fatal(err)
				}
				viaEntropy, err := entropy.Compress(grid.FloatBytes(f.Data()), *tc.stage4)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(viaCore.Data, want()) || !bytes.Equal(viaEntropy.Compressed, want()) {
					t.Fatalf("stage 4 over the raw array: core %d, entropy %d, codec %d bytes, not the same bytes",
						len(viaCore.Data), len(viaEntropy.Compressed), len(want()))
				}
			}

			enc, err := m.encodeEntry(nil, "v", f)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc.Payload, want()) || enc.SlabsTotal != 0 || enc.Reused {
				t.Fatalf("buffered: payload differs from Encode's (%d vs %d bytes), slabs %d, reused %v", len(enc.Payload), len(want()), enc.SlabsTotal, enc.Reused)
			}

			var w bytes.Buffer
			if enc, err = m.encodeEntry(&w, "v", f); err != nil {
				t.Fatal(err)
			}
			if w.Len() > 0 && enc.Payload != nil {
				t.Fatalf("streamed: %d bytes written and %d returned", w.Len(), len(enc.Payload))
			}
			if got := append(w.Bytes(), enc.Payload...); !bytes.Equal(got, want()) {
				t.Fatalf("streamed: payload differs from Encode's (%d vs %d bytes)", len(got), len(want()))
			}
			if tc.stage4 != nil && tc.stage4.Bare() != (w.Len() > 0) {
				t.Fatalf("streamed: %d bytes written by a codec whose stream is bare: %v", w.Len(), tc.stage4.Bare())
			}

			m.SetDelta(true)
			m.primeDelta()
			for _, pass := range []struct {
				what       string
				mutate     bool
				reused     bool
				slabsClean int
			}{
				{"cold", false, false, 0},
				{"warm", false, !tc.slabs, 6},
				{"one value changed", true, false, 5},
			} {
				if pass.mutate {
					f.Data()[f.Len()-1] += 0.5
				}
				// Delta encodes buffered whether or not a writer is offered.
				w.Reset()
				if enc, err = m.encodeEntry(&w, "v", f); err != nil {
					t.Fatal(err)
				}
				if w.Len() != 0 || !bytes.Equal(enc.Payload, want()) {
					t.Fatalf("delta %s: %d bytes written, payload differs from Encode's: %v", pass.what, w.Len(), !bytes.Equal(enc.Payload, want()))
				}
				if enc.Reused != pass.reused {
					t.Errorf("delta %s: Reused %v, want %v", pass.what, enc.Reused, pass.reused)
				}
				if tc.slabs && (enc.SlabsTotal != 6 || enc.SlabsReused != pass.slabsClean) {
					t.Errorf("delta %s: %d of %d slabs reused, want %d of 6", pass.what, enc.SlabsReused, enc.SlabsTotal, pass.slabsClean)
				}
				if !tc.slabs && enc.SlabsTotal != 0 {
					t.Errorf("delta %s: a codec without slabs reports %d", pass.what, enc.SlabsTotal)
				}
			}
		})
	}
}

// baseOnly is a Codec with the four base methods and nothing else (embedding
// the interface promotes only those), counting its encodes.
type baseOnly struct {
	Codec
	encodes *atomic.Int32
}

func (b baseOnly) Encode(f *grid.Field) (*Encoded, error) {
	b.encodes.Add(1)
	return b.Codec.Encode(f)
}

// TestBaseCodecNeedsNoExtension: a codec that implements only Codec still
// checkpoints, streams and restores — the bytes of the codec it wraps — and
// under delta an unchanged array is served from the whole-entry cache
// without an encode.
func TestBaseCodecNeedsNoExtension(t *testing.T) {
	var encodes atomic.Int32
	var codec Codec = baseOnly{Codec: NewGzip(), encodes: &encodes}
	if _, ok := codec.(EntryEncoder); ok {
		t.Fatal("the test double implements the extension")
	}
	names := []string{"a", "b", "c"}
	fieldsOf := func() []*grid.Field {
		return []*grid.Field{smoothField(40, 12, 2), smoothField(48, 12, 2), smoothField(32, 32)}
	}
	fields := fieldsOf()
	m := managerOver(t, codec, 2, names, fields)
	ref := managerOver(t, NewGzip(), 2, names, fields)

	var got, want bytes.Buffer
	if _, err := m.Checkpoint(&got, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Checkpoint(&want, 1); err != nil {
		t.Fatal(err)
	}
	// The double encodes buffered, the wrapped codec streams: one stream.
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("checkpoint differs from the wrapped codec's")
	}

	m.SetDelta(true)
	for step, tc := range []struct {
		mutate              bool
		wantEncodes, reused int32
	}{{false, 3, 0}, {false, 0, 3}, {true, 1, 2}} {
		if tc.mutate {
			fields[1].Data()[7] += 1
		}
		encodes.Store(0)
		got.Reset()
		want.Reset()
		rep, err := m.Checkpoint(&got, 10+step)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Checkpoint(&want, 10+step); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("delta step %d: stream differs from a plain checkpoint of the same state", step)
		}
		if encodes.Load() != tc.wantEncodes || int32(rep.ReusedEntries) != tc.reused {
			t.Errorf("delta step %d: %d encodes, %d entries reused, want %d and %d", step, encodes.Load(), rep.ReusedEntries, tc.wantEncodes, tc.reused)
		}
	}

	restored := fieldsOf()
	for _, f := range restored {
		f.Fill(0)
	}
	if _, err := managerOver(t, codec, 2, names, restored).Restore(bytes.NewReader(got.Bytes())); err != nil {
		t.Fatal(err)
	}
	for i, f := range restored {
		if !f.Equal(fields[i]) {
			t.Errorf("%s: restored array differs", names[i])
		}
	}
}
