// Package gzipio implements the final gzip stage of the compressor of
// Sasaki et al. (IPDPS 2015, §III-D): after the wavelet/quantize/encode
// stages format their output, the whole stream is DEFLATE-compressed.
//
// Two modes reproduce the paper's implementation detail (§IV-D): the
// paper's prototype wrote the formatted output to a temporary file and ran
// gzip on it through the filesystem, which dominated the measured
// compression time; the paper proposes in-memory zlib compression as the
// fix. TempFile mode really performs the temporary write+read so that cost
// exists and is measurable; InMemory mode is the proposed improvement. The
// ablation experiment X1 (see DESIGN.md) compares them.
package gzipio

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"compress/zlib"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Format selects the DEFLATE container format.
type Format int

const (
	// FormatGzip wraps DEFLATE in the gzip framing (what the paper's
	// prototype produced via the gzip command).
	FormatGzip Format = iota
	// FormatZlib wraps DEFLATE in the lighter zlib framing — the exact
	// library the paper's §IV-D improvement names ("compressing the
	// temporary checkpoint data with zlib in memory").
	FormatZlib
)

// String implements fmt.Stringer.
func (f Format) String() string {
	switch f {
	case FormatGzip:
		return "gzip"
	case FormatZlib:
		return "zlib"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// CompressFormat is Compress with an explicit container format.
func CompressFormat(data []byte, level int, mode Mode, tmpDir string, format Format) (Result, error) {
	if format != FormatGzip && format != FormatZlib {
		return Result{}, fmt.Errorf("gzipio: unknown format %d", int(format))
	}
	return compress(data, level, mode, tmpDir, format)
}

// DecompressAuto inflates either framing, sniffing the two-byte magic
// (gzip: 0x1f 0x8b; zlib: 0x78 …). Both framings may be multi-member:
// gzip streams concatenate RFC 1952 members (what CompressParallel and
// `cat a.gz b.gz` produce) and zlib streams likewise decode back-to-back
// concatenations. Trailing bytes that are not another member are an error.
func DecompressAuto(data []byte) ([]byte, error) {
	return decompress(nil, data, sniff(data))
}

// sniff tells gzip framing by its magic; anything else is tried as zlib.
func sniff(data []byte) Format {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		return FormatGzip
	}
	return FormatZlib
}

// decompress is inflateStream with the error named and the partial output
// dropped.
func decompress(dst, data []byte, format Format) ([]byte, error) {
	out, err := inflateStream(dst, data, format)
	if err != nil {
		return nil, fmt.Errorf("gzipio: inflate %v: %w", format, err)
	}
	return out, nil
}

// Mode selects how the DEFLATE stage is executed.
type Mode int

const (
	// InMemory compresses directly from the input buffer (the paper's
	// proposed improvement).
	InMemory Mode = iota
	// TempFile first writes the input to a temporary file, reads it back,
	// and then compresses — reproducing the paper's prototype and its
	// "temporal file write for gzip" cost component (Fig. 9).
	TempFile
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case InMemory:
		return "in-memory"
	case TempFile:
		return "temp-file"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Result carries the compressed bytes and the timing breakdown the paper's
// Fig. 9 reports.
type Result struct {
	// Compressed is the gzip stream.
	Compressed []byte
	// TempWrite is the time spent writing and reading the temporary file
	// (zero in InMemory mode).
	TempWrite time.Duration
	// Gzip is the time spent in DEFLATE itself.
	Gzip time.Duration
}

// Compress runs the DEFLATE stage over data in gzip framing. level is a
// compress/gzip level (gzip.DefaultCompression if 0 is passed is NOT
// implied; pass gzip.DefaultCompression explicitly or use Default). tmpDir
// is used only in TempFile mode; empty means os.TempDir().
func Compress(data []byte, level int, mode Mode, tmpDir string) (Result, error) {
	return compress(data, level, mode, tmpDir, FormatGzip)
}

func compress(data []byte, level int, mode Mode, tmpDir string, format Format) (Result, error) {
	var res Result
	src := data
	if mode == TempFile {
		start := time.Now()
		f, err := os.CreateTemp(tmpDir, "lossyckpt-*.tmp")
		if err != nil {
			return res, fmt.Errorf("gzipio: temp file: %w", err)
		}
		name := f.Name()
		defer os.Remove(name)
		if _, err := f.Write(data); err != nil {
			f.Close()
			return res, fmt.Errorf("gzipio: temp write: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return res, fmt.Errorf("gzipio: temp sync: %w", err)
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return res, fmt.Errorf("gzipio: temp seek: %w", err)
		}
		back, err := io.ReadAll(f)
		f.Close()
		if err != nil {
			return res, fmt.Errorf("gzipio: temp read: %w", err)
		}
		src = back
		res.TempWrite = time.Since(start)
	}

	start := time.Now()
	var buf bytes.Buffer
	zw, pool, err := getDeflateWriter(format, level, &buf)
	if err != nil {
		return res, fmt.Errorf("gzipio: %w", err)
	}
	if _, err := zw.Write(src); err != nil {
		return res, fmt.Errorf("gzipio: compress: %w", err)
	}
	if err := zw.Close(); err != nil {
		return res, fmt.Errorf("gzipio: close: %w", err)
	}
	pool.Put(zw)
	res.Gzip = time.Since(start)
	res.Compressed = buf.Bytes()
	return res, nil
}

// resetWriter is the common surface of gzip.Writer and zlib.Writer that
// pooling needs: both carry large DEFLATE state (hundreds of KB) that Reset
// makes reusable across compressions.
type resetWriter interface {
	io.WriteCloser
	Reset(io.Writer)
}

// formatFlate is an internal pool key for raw (headerless) DEFLATE
// writers, the per-block compressor of the parallel engine. It is not a
// valid Format for CompressFormat.
const formatFlate Format = -1

// deflatePools caches per-(format, level) sync.Pools of DEFLATE writers so
// the hot compression path stops allocating a fresh ~800 KB flate state on
// every call. A writer Put back after Close is reusable after Reset.
// Keying by both format and level matters: a flate state carries the level
// it was constructed with (Reset preserves it), so mixed-level callers
// sharing one pool would either thrash (discarding mismatched writers) or
// silently compress at the wrong level.
var deflatePools sync.Map // struct{format Format; level int} -> *sync.Pool

func deflatePool(format Format, level int) *sync.Pool {
	key := struct {
		format Format
		level  int
	}{format, level}
	p, ok := deflatePools.Load(key)
	if !ok {
		p, _ = deflatePools.LoadOrStore(key, &sync.Pool{})
	}
	return p.(*sync.Pool)
}

func getDeflateWriter(format Format, level int, dst io.Writer) (resetWriter, *sync.Pool, error) {
	pool := deflatePool(format, level)
	if w, ok := pool.Get().(resetWriter); ok {
		w.Reset(dst)
		return w, pool, nil
	}
	var w resetWriter
	var err error
	switch format {
	case formatFlate:
		w, err = flate.NewWriter(dst, level)
	case FormatZlib:
		w, err = zlib.NewWriterLevel(dst, level)
	default:
		w, err = gzip.NewWriterLevel(dst, level)
	}
	if err != nil {
		return nil, nil, err
	}
	return w, pool, nil
}

// AcquireWriter returns a pooled DEFLATE writer for (format, level),
// reset to write into dst. After Close, hand it back with ReleaseWriter
// so the ~800 KB flate state is reused. Callers that abandon a writer
// mid-stream must not release it.
func AcquireWriter(format Format, level int, dst io.Writer) (io.WriteCloser, error) {
	if format != FormatGzip && format != FormatZlib {
		return nil, fmt.Errorf("gzipio: unknown format %d", int(format))
	}
	w, _, err := getDeflateWriter(format, level, dst)
	return w, err
}

// ReleaseWriter returns a closed writer obtained from AcquireWriter to
// its (format, level) pool.
func ReleaseWriter(format Format, level int, w io.WriteCloser) {
	if rw, ok := w.(resetWriter); ok {
		deflatePool(format, level).Put(rw)
	}
}

// Default is the gzip level used throughout this repository, matching the
// gzip command-line default (-6).
const Default = gzip.DefaultCompression

// Decompress inflates a gzip stream produced by Compress (or any gzip
// stream).
func Decompress(data []byte) ([]byte, error) {
	return decompress(nil, data, FormatGzip)
}
