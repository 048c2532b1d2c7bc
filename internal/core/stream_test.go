package core

import (
	"bytes"
	"errors"
	"testing"

	"lossyckpt/internal/grid"
	"lossyckpt/internal/gzipio"
	"lossyckpt/internal/stats"
)

// TestCompressChunkedToByteIdentical pins the streaming entry point's core
// contract: the bytes reaching the writer are exactly the oracle's, as are
// every other entry point's, for every worker count (0 = GOMAXPROCS and
// more workers than chunks included) and for ragged trailing chunks.
func TestCompressChunkedToByteIdentical(t *testing.T) {
	f := smooth3D(130, 20, 2, 7) // 130 planes: uneven trailing chunk
	for _, chunk := range []int{2, 32, 130} {
		checkEntryPoints(t, f, DefaultOptions(), chunk)
		want := refCompressChunked(t, f, DefaultOptions(), chunk)
		for _, workers := range []int{0, 3, 8} {
			opts := DefaultOptions()
			opts.Workers = workers
			var buf bytes.Buffer
			res, err := CompressChunkedTo(&buf, f, opts, chunk)
			if err != nil {
				t.Fatalf("chunk %d workers %d: %v", chunk, workers, err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("chunk %d workers %d: stream differs from the oracle (%d vs %d bytes)",
					chunk, workers, buf.Len(), len(want))
			}
			if got := 100 * float64(len(want)) / float64(f.Bytes()); res.CompressionRatePct() != got {
				t.Errorf("chunk %d workers %d: cr %.3f%%, want %.3f%%", chunk, workers, res.CompressionRatePct(), got)
			}
		}
	}
}

var errSink = errors.New("sink failed")

func TestCompressChunkedToWriterError(t *testing.T) {
	f := smooth3D(64, 16, 2, 9)
	opts := DefaultOptions()
	opts.Workers = 3
	for _, ok := range []int{0, 1, 3} {
		_, err := CompressChunkedTo(&countingWriter{failAt: ok + 1}, f, opts, 8)
		if !errors.Is(err, errSink) {
			t.Fatalf("after %d writes: error %v, want sink failure", ok, err)
		}
	}
}

func TestCompressChunkedToInvalidOptions(t *testing.T) {
	f := smooth3D(8, 4, 2, 1)
	var buf bytes.Buffer
	if _, err := CompressChunkedTo(&buf, f, DefaultOptions(), 0); !errors.Is(err, ErrOptions) {
		t.Fatalf("chunk extent 0: %v", err)
	}
	bad := DefaultOptions()
	bad.Workers = -1
	if _, err := CompressChunkedTo(&buf, f, bad, 4); !errors.Is(err, ErrOptions) {
		t.Fatalf("negative workers: %v", err)
	}
}

// TestGzipBlockRoundTrip runs the full pipeline with the block-parallel
// DEFLATE stage and checks the stream decompresses identically to the
// serial stage's reconstruction, for both framings.
func TestGzipBlockRoundTrip(t *testing.T) {
	f := smooth3D(64, 32, 2, 11)
	serialOpts := DefaultOptions()
	serial, err := Compress(f, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	wantField, err := Decompress(serial.Data)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []gzipio.Format{gzipio.FormatGzip, gzipio.FormatZlib} {
		for _, workers := range []int{0, 1, 3} {
			opts := DefaultOptions()
			opts.GzipFormat = format
			opts.GzipBlock = 4 << 10 // small blocks so multiple members exist
			opts.Workers = workers
			res, err := Compress(f, opts)
			if err != nil {
				t.Fatalf("%v workers %d: %v", format, workers, err)
			}
			g, err := Decompress(res.Data)
			if err != nil {
				t.Fatalf("%v workers %d: decompress: %v", format, workers, err)
			}
			if !bytes.Equal(grid.FloatBytes(g.Data()), grid.FloatBytes(wantField.Data())) {
				t.Errorf("%v workers %d: reconstruction differs from serial-stage pipeline", format, workers)
			}
			s, _ := stats.Compare(f.Data(), g.Data())
			if s.AvgPct > 1 {
				t.Errorf("%v workers %d: avg error %.4f%%", format, workers, s.AvgPct)
			}
		}
	}
}

// TestGzipBlockByteStableAcrossWorkers pins stage-4 determinism end to
// end: the full compressed stream must not depend on the worker count.
func TestGzipBlockByteStableAcrossWorkers(t *testing.T) {
	f := smooth3D(64, 32, 2, 13)
	var want []byte
	for _, workers := range []int{1, 2, 4} {
		opts := DefaultOptions()
		opts.GzipBlock = 8 << 10
		opts.Workers = workers
		res, err := Compress(f, opts)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if want == nil {
			want = res.Data
		} else if !bytes.Equal(res.Data, want) {
			t.Fatalf("workers %d: stream differs from workers 1", workers)
		}
	}
}

func TestGzipBlockValidation(t *testing.T) {
	f := smooth3D(8, 4, 2, 3)
	opts := DefaultOptions()
	opts.GzipBlock = -1
	if _, err := Compress(f, opts); !errors.Is(err, ErrOptions) {
		t.Fatalf("negative block: %v", err)
	}
	opts = DefaultOptions()
	opts.GzipBlock = 1 << 20
	opts.GzipMode = gzipio.TempFile
	if _, err := Compress(f, opts); !errors.Is(err, ErrOptions) {
		t.Fatalf("temp-file mode with block: %v", err)
	}
}
