package ckpt

import (
	"bytes"
	"testing"

	"lossyckpt/internal/entropy"
	"lossyckpt/internal/guard"
	"lossyckpt/internal/obs"
	"lossyckpt/internal/tune"
)

// TestLZ4CodecCheckpointRestore: the lz4 lossless codec round-trips
// bit-exactly through checkpoint/restore, and its name survives the
// stream header so restore-side codec construction works.
func TestLZ4CodecCheckpointRestore(t *testing.T) {
	codec, err := CodecByName("lz4")
	if err != nil {
		t.Fatal(err)
	}
	if codec.Name() != "lz4" {
		t.Fatalf("codec name %q, want lz4", codec.Name())
	}
	if !codec.Lossless() {
		t.Fatal("lz4 codec must be lossless")
	}
	m := NewManager(codec, 2)
	fields := registerSample(t, m)
	originals := map[string][]float64{}
	for n, f := range fields {
		originals[n] = append([]float64(nil), f.Data()...)
	}

	for _, streaming := range []bool{false, true} {
		var buf bytes.Buffer
		var cerr error
		if streaming {
			_, cerr = m.CheckpointStream(&buf, 7)
		} else {
			_, cerr = m.Checkpoint(&buf, 7)
		}
		if cerr != nil {
			t.Fatalf("streaming=%v: %v", streaming, cerr)
		}
		for _, f := range fields {
			f.Fill(-99)
		}
		if _, err := m.Restore(&buf); err != nil {
			t.Fatalf("streaming=%v: restore: %v", streaming, err)
		}
		for n, f := range fields {
			for i, v := range originals[n] {
				if f.Data()[i] != v {
					t.Fatalf("streaming=%v: %q not bit-exact at %d", streaming, n, i)
				}
			}
		}
	}
}

// TestGzipShuffleCodecRoundTrip: shuffle-only keeps the "gzip" name (the
// envelope self-describes the pre-pass) and stays bit-exact.
func TestGzipShuffleCodecRoundTrip(t *testing.T) {
	codec := NewGzip()
	codec.Shuffle = true
	if codec.Name() != "gzip" {
		t.Fatalf("shuffled gzip codec name %q, want gzip", codec.Name())
	}
	m := NewManager(codec, 1)
	fields := registerSample(t, m)
	want := map[string][]float64{}
	for n, f := range fields {
		want[n] = append([]float64(nil), f.Data()...)
	}
	var buf bytes.Buffer
	if _, err := m.Checkpoint(&buf, 1); err != nil {
		t.Fatal(err)
	}
	for _, f := range fields {
		f.Fill(0)
	}
	if _, err := m.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	for n, f := range fields {
		for i, v := range want[n] {
			if f.Data()[i] != v {
				t.Fatalf("%q not bit-exact at %d", n, i)
			}
		}
	}
}

// TestTunedLossyCheckpoint: a tuner-equipped lossy codec checkpoints and
// restores through both the buffered and the streaming checkpoint (one
// EncodeEntry, with and without a writer), and the tuner records decisions
// per variable.
func TestTunedLossyCheckpoint(t *testing.T) {
	reg := obs.NewRegistry()
	defer obs.SetDefault(obs.SetDefault(reg))
	codec := NewLossy()
	codec.Tuner = tune.New(tune.Config{})
	m := NewManager(codec, 2)
	fields := registerSample(t, m)

	var buf bytes.Buffer
	if _, err := m.Checkpoint(&buf, 3); err != nil {
		t.Fatal(err)
	}
	if _, ok := codec.Tuner.Cached("temperature"); !ok {
		// Observe's online drift check evicts a cached decision when the
		// real encode's throughput lands 2x off the probe's estimate —
		// wall-clock noise can trigger that legitimately. A decision was
		// still made; only a missing decision with no drift re-probe to
		// explain the eviction is a bug.
		var reprobes float64
		for _, ms := range reg.Snapshot().Metrics {
			if ms.Name == tune.MetricReProbes {
				reprobes += ms.Value
			}
		}
		if reprobes == 0 {
			t.Fatal("tuner has no cached decision for temperature after checkpoint")
		}
	}
	if _, err := m.Restore(&buf); err != nil {
		t.Fatal(err)
	}

	var sbuf bytes.Buffer
	if _, err := m.CheckpointStream(&sbuf, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Restore(&sbuf); err != nil {
		t.Fatal(err)
	}
	for _, f := range fields {
		_ = f
	}

	var decisions float64
	for _, ms := range reg.Snapshot().Metrics {
		if ms.Name == tune.MetricDecisions {
			decisions += ms.Value
		}
	}
	if decisions < 3 {
		t.Fatalf("tuner decisions = %v, want ≥ 3 (one per variable)", decisions)
	}
}

// TestInspectStreamReportsEntropy: every entry carries its sniffed
// entropy framing, including through guard envelopes and chunked
// streams.
func TestInspectStreamReportsEntropy(t *testing.T) {
	cases := []struct {
		codec Codec
		want  string
	}{
		{NewGzip(), "gzip"},
		{NewLZ4(), "lz4+shuffle"},
		{func() Codec {
			c := NewLossy()
			c.Options.EntropyCodec = entropy.LZ4
			c.ChunkExtent = 16
			return c
		}(), "lz4"},
		{NewGuard(guard.Policy{}), "gzip"},
		{None{}, "unknown"},
	}
	for _, tc := range cases {
		m := NewManager(tc.codec, 1)
		registerSample(t, m)
		var buf bytes.Buffer
		if _, err := m.Checkpoint(&buf, 1); err != nil {
			t.Fatalf("%s: %v", tc.codec.Name(), err)
		}
		info, err := InspectStream(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: inspect: %v", tc.codec.Name(), err)
		}
		for _, e := range info.Entries {
			if e.Entropy != tc.want {
				t.Errorf("%s: entry %q entropy = %q, want %q", tc.codec.Name(), e.Name, e.Entropy, tc.want)
			}
		}
	}
}
