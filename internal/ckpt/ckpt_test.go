package ckpt

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"lossyckpt/internal/grid"
	"lossyckpt/internal/stats"
)

// smoothField builds a smooth test array.
func smoothField(shape ...int) *grid.Field {
	f := grid.MustNew(shape...)
	for i := range f.Data() {
		f.Data()[i] = 500 + 100*math.Sin(float64(i)/200) + 10*math.Cos(float64(i)/37)
	}
	return f
}

func registerSample(t *testing.T, m *Manager) map[string]*grid.Field {
	t.Helper()
	fields := map[string]*grid.Field{
		"temperature": smoothField(64, 20, 2),
		"pressure":    smoothField(64, 20, 2),
		"wind_u":      smoothField(32, 32),
	}
	for _, name := range []string{"temperature", "pressure", "wind_u"} {
		if err := m.Register(name, fields[name]); err != nil {
			t.Fatal(err)
		}
	}
	return fields
}

func TestCheckpointRestoreAllCodecs(t *testing.T) {
	for _, codecName := range []string{"none", "gzip", "fpc", "lossy"} {
		codec, err := CodecByName(codecName)
		if err != nil {
			t.Fatal(err)
		}
		m := NewManager(codec, 2)
		fields := registerSample(t, m)
		originals := map[string]*grid.Field{}
		for n, f := range fields {
			originals[n] = f.Clone()
		}

		var buf bytes.Buffer
		rep, err := m.Checkpoint(&buf, 720)
		if err != nil {
			t.Fatalf("%s: checkpoint: %v", codecName, err)
		}
		if rep.Step != 720 || rep.Codec != codecName || len(rep.Entries) != 3 {
			t.Errorf("%s: report %+v", codecName, rep)
		}
		if rep.FileBytes != buf.Len() {
			t.Errorf("%s: FileBytes %d, stream %d", codecName, rep.FileBytes, buf.Len())
		}

		// Scramble the live state, then restore.
		for _, f := range fields {
			f.Fill(-1)
		}
		rrep, err := m.Restore(&buf)
		if err != nil {
			t.Fatalf("%s: restore: %v", codecName, err)
		}
		if rrep.Step != 720 {
			t.Errorf("%s: restored step %d", codecName, rrep.Step)
		}
		for n, f := range fields {
			if codec.Lossless() {
				if !f.Equal(originals[n]) {
					t.Errorf("%s: %q not restored bit-exactly", codecName, n)
				}
			} else {
				s, _ := stats.Compare(originals[n].Data(), f.Data())
				if s.AvgPct > 1 {
					t.Errorf("%s: %q avg error %.4f%% after lossy restore", codecName, n, s.AvgPct)
				}
			}
		}
	}
}

func TestRegistrationErrors(t *testing.T) {
	m := NewManager(None{}, 1)
	f := smoothField(4, 4)
	if err := m.Register("", f); err == nil {
		t.Error("empty name accepted")
	}
	if err := m.Register("a", nil); err == nil {
		t.Error("nil field accepted")
	}
	if err := m.Register("a", f); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("a", f); err == nil {
		t.Error("duplicate name accepted")
	}
	if got := m.Names(); len(got) != 1 || got[0] != "a" {
		t.Errorf("Names = %v", got)
	}
}

func TestCheckpointWithoutRegistration(t *testing.T) {
	m := NewManager(None{}, 1)
	var buf bytes.Buffer
	if _, err := m.Checkpoint(&buf, 0); err == nil {
		t.Error("empty manager checkpoint accepted")
	}
	if _, err := m.Checkpoint(&buf, -1); err == nil {
		t.Error("negative step accepted")
	}
}

func TestRestoreCodecMismatch(t *testing.T) {
	m1 := NewManager(None{}, 1)
	registerSample(t, m1)
	var buf bytes.Buffer
	if _, err := m1.Checkpoint(&buf, 1); err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(NewGzip(), 1)
	registerSample(t, m2)
	if _, err := m2.Restore(&buf); !errors.Is(err, ErrMismatch) {
		t.Errorf("codec mismatch: got %v", err)
	}
}

func TestRestoreShapeMismatch(t *testing.T) {
	m1 := NewManager(None{}, 1)
	if err := m1.Register("x", smoothField(8, 8)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m1.Checkpoint(&buf, 1); err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(None{}, 1)
	if err := m2.Register("x", smoothField(8, 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Restore(&buf); !errors.Is(err, ErrMismatch) {
		t.Errorf("shape mismatch: got %v", err)
	}
}

func TestRestoreUnknownVariable(t *testing.T) {
	m1 := NewManager(None{}, 1)
	if err := m1.Register("x", smoothField(8)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m1.Checkpoint(&buf, 1); err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(None{}, 1)
	if err := m2.Register("y", smoothField(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Restore(&buf); !errors.Is(err, ErrMismatch) {
		t.Errorf("unknown variable: got %v", err)
	}
}

func TestRestoreCorruptionDetected(t *testing.T) {
	m := NewManager(NewGzip(), 1)
	registerSample(t, m)
	var buf bytes.Buffer
	if _, err := m.Checkpoint(&buf, 1); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		mut := append([]byte(nil), raw...)
		mut[rng.Intn(len(mut))] ^= 0xFF
		m2 := NewManager(NewGzip(), 1)
		registerSample(t, m2)
		if _, err := m2.Restore(bytes.NewReader(mut)); err == nil {
			t.Error("corrupted checkpoint accepted")
		}
	}
	// Truncation.
	m3 := NewManager(NewGzip(), 1)
	registerSample(t, m3)
	if _, err := m3.Restore(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Error("truncated checkpoint accepted")
	}
}

func TestRestoreGarbage(t *testing.T) {
	m := NewManager(None{}, 1)
	registerSample(t, m)
	if _, err := m.Restore(bytes.NewReader([]byte("not a checkpoint"))); !errors.Is(err, ErrFormat) {
		t.Errorf("garbage: got %v", err)
	}
}

func TestLossyCheckpointSmallerThanGzip(t *testing.T) {
	mkMgr := func(c Codec) (*Manager, *bytes.Buffer) {
		m := NewManager(c, 2)
		registerSample(t, m)
		return m, &bytes.Buffer{}
	}
	mg, bg := mkMgr(NewGzip())
	repG, err := mg.Checkpoint(bg, 1)
	if err != nil {
		t.Fatal(err)
	}
	ml, bl := mkMgr(NewLossy())
	repL, err := ml.Checkpoint(bl, 1)
	if err != nil {
		t.Fatal(err)
	}
	if repL.CompressionRatePct() >= repG.CompressionRatePct() {
		t.Errorf("lossy cr %.1f%% not below gzip cr %.1f%%",
			repL.CompressionRatePct(), repG.CompressionRatePct())
	}
}

func TestParallelWorkersProduceSameStream(t *testing.T) {
	run := func(workers int) []byte {
		m := NewManager(NewLossy(), workers)
		registerSample(t, m)
		var buf bytes.Buffer
		if _, err := m.Checkpoint(&buf, 7); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(1), run(4)
	if !bytes.Equal(a, b) {
		t.Error("checkpoint stream depends on worker count")
	}
}

func TestAggregateTimings(t *testing.T) {
	m := NewManager(NewLossy(), 2)
	registerSample(t, m)
	var buf bytes.Buffer
	rep, err := m.Checkpoint(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	agg := rep.AggregateTimings()
	if agg.Total <= 0 || agg.Wavelet <= 0 || agg.Gzip <= 0 {
		t.Errorf("aggregate timings missing phases: %+v", agg)
	}
	if rep.Wall <= 0 {
		t.Error("zero wall time")
	}
}

func TestCodecByName(t *testing.T) {
	for _, n := range []string{"none", "gzip", "fpc", "lossy"} {
		c, err := CodecByName(n)
		if err != nil || c.Name() != n {
			t.Errorf("CodecByName(%q) = %v, %v", n, c, err)
		}
	}
	if _, err := CodecByName("zfp"); err == nil {
		t.Error("unknown codec accepted")
	}
}

func TestLossyDecodeShapeValidation(t *testing.T) {
	c := NewLossy()
	f := smoothField(16, 8, 2)
	enc, err := c.Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decode(enc.Payload, []int{16, 8}, nil); err == nil {
		t.Error("wrong dims accepted")
	}
	if _, err := c.Decode(enc.Payload, []int{16, 8, 3}, nil); err == nil {
		t.Error("wrong extent accepted")
	}
}

func TestNoneCodecPayloadValidation(t *testing.T) {
	var c None
	if _, err := c.Decode([]byte{1, 2, 3}, []int{4}, nil); err == nil {
		t.Error("short payload accepted")
	}
}

func TestRestoreForgedHugeEntryLength(t *testing.T) {
	// Regression for a fuzzer-found bug: a header claiming a multi-GB
	// entry length must fail on the short stream instead of allocating
	// the claimed size up front.
	m := NewManager(None{}, 1)
	if err := m.Register("x", smoothField(8)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.Checkpoint(&buf, 1); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The entry length field sits right after magic(4) + version(2) +
	// codec string(2+4) + step(8) + count(4) + crc(4) = offset 28.
	forged := append([]byte(nil), raw...)
	for i := 0; i < 8; i++ {
		forged[28+i] = 0xFF // claim ~2^64 bytes
	}
	forged[28+5] = 0 // keep it under the 1<<40 sanity cap: 0x000000FFFFFFFFFF
	m2 := NewManager(None{}, 1)
	if err := m2.Register("x", smoothField(8)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := m2.Restore(bytes.NewReader(forged))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("forged entry length accepted")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Restore hung on forged entry length")
	}
}

func TestLossyChunkedCodecThroughManager(t *testing.T) {
	// The chunked lossy codec must interoperate with Restore transparently
	// (payload framing is sniffed).
	temp := smoothField(120, 20, 2)
	orig := temp.Clone()
	codec := NewLossy()
	codec.ChunkExtent = 32
	m := NewManager(codec, 2)
	if err := m.Register("temperature", temp); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep, err := m.Checkpoint(&buf, 9)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CompressionRatePct() >= 100 {
		t.Errorf("chunked cr %.1f%%", rep.CompressionRatePct())
	}
	temp.Fill(0)
	if _, err := m.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	s, _ := stats.Compare(orig.Data(), temp.Data())
	if s.AvgPct > 1 {
		t.Errorf("chunked restore error %.4f%%", s.AvgPct)
	}
}

func TestLossyLogScaleCodec(t *testing.T) {
	temp := smoothField(64, 20, 2)
	orig := temp.Clone()
	codec := NewLossy()
	codec.Options.LogQuant = true
	m := NewManager(codec, 1)
	if err := m.Register("x", temp); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.Checkpoint(&buf, 1); err != nil {
		t.Fatal(err)
	}
	temp.Fill(0)
	if _, err := m.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	s, _ := stats.Compare(orig.Data(), temp.Data())
	if s.AvgPct > 1 {
		t.Errorf("log-quant restore error %.4f%%", s.AvgPct)
	}
}
