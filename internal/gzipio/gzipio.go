// Package gzipio implements the final gzip stage of the compressor of
// Sasaki et al. (IPDPS 2015, §III-D): after the wavelet/quantize/encode
// stages format their output, the whole stream is DEFLATE-compressed — by
// the package's own encoder (deflate.go) and, on the way back, its own
// decoder (inflate.go); compress/* is imported by the tests alone.
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
	"encoding/binary"
	"fmt"
	"hash/adler32"
	"hash/crc32"
	"io"
	"os"
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

// Compress runs the DEFLATE stage over data in gzip framing. level is the
// encoder's effort on zlib's scale: 1…9 try more match candidates as they
// rise, 0 stores, -2 codes literals only, and -1 (Default) is 6; anything
// else is an error. tmpDir is used only in TempFile mode; empty means
// os.TempDir().
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
	out, err := appendMember(nil, src, level, format, nil)
	if err != nil {
		return res, err
	}
	res.Gzip = time.Since(start)
	res.Compressed = out
	return res, nil
}

// appendMember appends data to dst as one gzip member or zlib stream:
// header, DEFLATE blocks (deflate.go), checksum. A sink is deflateRaw's.
func appendMember(dst, data []byte, level int, format Format, sink io.Writer) ([]byte, error) {
	if format == FormatGzip {
		dst = append(dst, 0x1f, 0x8b, 8, 0, 0, 0, 0, 0, xfl(level), 0xff) // no flags, no time, OS unknown
	} else {
		dst = append(dst, zlibHeader(level)...)
	}
	dst, err := deflateRaw(dst, data, level, true, sink)
	if err != nil {
		return dst, err
	}
	if format == FormatGzip {
		dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(data))
		return binary.LittleEndian.AppendUint32(dst, uint32(len(data))), nil
	}
	return binary.BigEndian.AppendUint32(dst, adler32.Checksum(data)), nil
}

// CompressTo writes what CompressFormat(mode=InMemory) returns to w, a few
// blocks at a time: the compressed stream is never held whole.
func CompressTo(w io.Writer, data []byte, level int, format Format) error {
	if format != FormatGzip && format != FormatZlib {
		return fmt.Errorf("gzipio: unknown format %d", int(format))
	}
	tail, err := appendMember(nil, data, level, format, w)
	if err == nil {
		_, err = w.Write(tail)
	}
	return err
}

// Default is the gzip level used throughout this repository, matching the
// gzip command-line default (-6).
const Default = -1

// Decompress inflates a gzip stream produced by Compress (or any gzip
// stream).
func Decompress(data []byte) ([]byte, error) {
	return decompress(nil, data, FormatGzip)
}
