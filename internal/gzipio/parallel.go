// parallel.go is the pigz-style sharded DEFLATE engine. The paper's own
// timing breakdown (§III-D, Fig. 10) shows the gzip stage dominating
// compression cost, and the serial CompressFormat runs one DEFLATE over
// the whole buffer no matter how many cores are idle. CompressParallel
// shards the input into fixed-size blocks and compresses each block
// independently on a bounded worker pool:
//
//   - gzip framing: every block becomes its own RFC 1952 member (the RFC
//     explicitly allows concatenated members, and stock gzip/zcat accept
//     them). Each member carries an extra subfield ("LK") recording the
//     member's total byte length, so DecompressMembersParallel can jump
//     member to member without inflating — the same trick BGZF uses,
//     with a u32 so blocks are not capped at 64 KiB.
//   - zlib framing: blocks are raw DEFLATE streams terminated by a sync
//     flush (an empty stored block, which is byte-aligned and non-final),
//     concatenated behind a single zlib header and closed by one final
//     empty block plus the whole-input Adler-32 — one standard zlib
//     stream any stock inflater consumes.
//
// Both layouts are deterministic: the output depends only on (block
// size, level, format), never on the worker count or scheduling, so the
// parallel path is byte-stable and drop-in for the serial one.
package gzipio

import (
	"encoding/binary"
	"fmt"
	"hash/adler32"
	"hash/crc32"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lossyckpt/internal/obs"
)

// DefaultBlockSize is the sharding granularity of CompressParallel when
// ParallelOptions.BlockSize is zero: 1 MiB balances per-member overhead
// (28 bytes of framing and a reset dictionary per block) against
// scheduling slack on many-core hosts.
const DefaultBlockSize = 1 << 20

// Metric names recorded by the parallel engine.
const (
	// MetricMembers counts emitted/decoded multi-member blocks, labeled
	// op=compress|decompress.
	MetricMembers = "lossyckpt_gzip_members_total"
	// MetricBlockSeconds accumulates per-block DEFLATE CPU seconds across
	// all workers, labeled op=compress|decompress.
	MetricBlockSeconds = "lossyckpt_gzip_block_seconds_total"
	// MetricParallelOps counts CompressParallel/DecompressMembersParallel
	// calls, labeled op=compress|decompress.
	MetricParallelOps = "lossyckpt_gzip_parallel_ops_total"
)

// ParallelOptions tunes CompressParallel.
type ParallelOptions struct {
	// BlockSize is the shard size in bytes; 0 means DefaultBlockSize.
	// The output is byte-stable for a fixed (BlockSize, level, format).
	BlockSize int
	// Workers bounds the compression pool; 0 means runtime.GOMAXPROCS(0).
	Workers int
}

func (po ParallelOptions) withDefaults() ParallelOptions {
	if po.BlockSize <= 0 {
		po.BlockSize = DefaultBlockSize
	}
	if po.Workers <= 0 {
		po.Workers = runtime.GOMAXPROCS(0)
	}
	return po
}

// Member framing constants for the gzip format. A crafted member is
//
//	10-byte gzip header (FLG=FEXTRA, MTIME=0, OS=255)
//	2-byte XLEN (=8) + subfield: 'L' 'K', len 4, u32 member length
//	raw DEFLATE payload
//	u32 CRC-32 + u32 ISIZE trailer
//
// so the fixed overhead is memberOverhead bytes per block and the u32 at
// memberLenOff holds the total member length, payload included.
const (
	memberHeaderLen = 20
	memberTrailer   = 8
	memberOverhead  = memberHeaderLen + memberTrailer
	memberLenOff    = 16
)

// CompressParallel is CompressFormat(mode=InMemory) with the DEFLATE
// stage sharded over a bounded worker pool. The output is byte-identical
// for every worker count at fixed (BlockSize, level, format); it differs
// from the serial single-member stream, but DecompressAuto consumes
// both. The gzip framing additionally round-trips through
// DecompressMembersParallel.
func CompressParallel(data []byte, level int, format Format, po ParallelOptions) (Result, error) {
	if format != FormatGzip && format != FormatZlib {
		return Result{}, fmt.Errorf("gzipio: unknown format %d", int(format))
	}
	po = po.withDefaults()
	start := time.Now()

	// ceil-divide; zero-length input still emits one (empty) block so the
	// output is a well-formed stream.
	nBlocks := (len(data) + po.BlockSize - 1) / po.BlockSize
	if nBlocks == 0 {
		nBlocks = 1
	}
	workers := po.Workers
	if workers > nBlocks {
		workers = nBlocks
	}

	blocks := make([][]byte, nBlocks)
	errs := make([]error, nBlocks)
	var blockSeconds atomic.Int64 // nanoseconds summed across workers
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= nBlocks {
					return
				}
				lo := b * po.BlockSize
				hi := lo + po.BlockSize
				if hi > len(data) {
					hi = len(data)
				}
				t0 := time.Now()
				switch format {
				case FormatGzip:
					blocks[b], errs[b] = gzipMember(data[lo:hi], level)
				default:
					blocks[b], errs[b] = zlibBlock(data[lo:hi], level)
				}
				blockSeconds.Add(int64(time.Since(t0)))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}

	// Deterministic reassembly in block order.
	total := 0
	for _, b := range blocks {
		total += len(b)
	}
	var out []byte
	if format == FormatZlib {
		out = make([]byte, 0, 2+total+2+4)
		out = append(out, zlibHeader(level)...)
		for _, b := range blocks {
			out = append(out, b...)
		}
		out = append(out, 0x03, 0x00) // a final block of nothing closes the flushed ones
		out = binary.BigEndian.AppendUint32(out, adler32.Checksum(data))
	} else {
		out = make([]byte, 0, total)
		for _, b := range blocks {
			out = append(out, b...)
		}
	}

	if o := obs.Default(); o != nil {
		o.Counter(MetricParallelOps, "op", "compress").Inc()
		o.Counter(MetricMembers, "op", "compress").Add(float64(nBlocks))
		o.Counter(MetricBlockSeconds, "op", "compress").Add(time.Duration(blockSeconds.Load()).Seconds())
	}
	return Result{Compressed: out, Gzip: time.Since(start)}, nil
}

// gzipMember compresses one block into a self-contained gzip member with
// the LK length subfield.
func gzipMember(block []byte, level int) ([]byte, error) {
	out := append(make([]byte, 0, memberOverhead+len(block)/2),
		0x1f, 0x8b, // magic
		8,          // CM: DEFLATE
		0x04,       // FLG: FEXTRA only
		0, 0, 0, 0, // MTIME: zero for determinism
		xfl(level),
		0xff, // OS: unknown
		8, 0, // XLEN
		'L', 'K', 4, 0, // subfield id + length
		0, 0, 0, 0, // the member's length, known once it is written
	)
	out, err := deflateRaw(out, block, level, true, nil)
	if err != nil {
		return nil, err
	}
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(block))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(block)))
	binary.LittleEndian.PutUint32(out[memberLenOff:], uint32(len(out)))
	return out, nil
}

// xfl is the gzip XFL convention: 2 for maximum compression, 4 for fastest.
func xfl(level int) byte {
	switch level {
	case 9:
		return 2
	case 1, -2:
		return 4
	default:
		return 0
	}
}

// zlibBlock compresses one block into a raw DEFLATE fragment terminated
// by a sync flush: byte-aligned, non-final, safe to concatenate.
func zlibBlock(block []byte, level int) ([]byte, error) {
	return deflateRaw(make([]byte, 0, len(block)/2), block, level, false, nil)
}

// zlibHeader builds the RFC 1950 two-byte header for the given level (CMF
// 0x78, FLEVEL by level band as zlib sets it, FCHECK mod-31 correction).
func zlibHeader(level int) []byte {
	h := [2]byte{0x78, 0}
	switch level {
	case -2, 0, 1:
		h[1] = 0 << 6
	case 2, 3, 4, 5:
		h[1] = 1 << 6
	case 6, -1:
		h[1] = 2 << 6
	default:
		h[1] = 3 << 6
	}
	h[1] += uint8(31 - (uint16(h[0])<<8+uint16(h[1]))%31)
	return h[:]
}

// splitMembers scans a gzip stream for the crafted member layout and
// returns the per-member slices (aliasing data). ok is false when any
// member lacks the LK length subfield or the framing does not add up —
// the caller then falls back to serial decoding, which handles foreign
// gzip streams.
func splitMembers(data []byte) (members [][]byte, ok bool) {
	pos := 0
	for pos < len(data) {
		rest := data[pos:]
		if len(rest) < memberHeaderLen ||
			rest[0] != 0x1f || rest[1] != 0x8b || rest[2] != 8 || rest[3] != 0x04 ||
			rest[10] != 8 || rest[11] != 0 ||
			rest[12] != 'L' || rest[13] != 'K' || rest[14] != 4 || rest[15] != 0 {
			return nil, false
		}
		memberLen := int(binary.LittleEndian.Uint32(rest[memberLenOff:]))
		if memberLen < memberOverhead || memberLen > len(rest) {
			return nil, false
		}
		members = append(members, rest[:memberLen])
		pos += memberLen
	}
	return members, len(members) > 0
}

// DecompressMembersParallel inflates a multi-member gzip stream produced
// by CompressParallel on a bounded worker pool, decoding members
// concurrently and reassembling in order. Streams without the member
// length subfield (foreign gzip, zlib, serial output) fall back to the
// serial DecompressAuto — the function accepts everything DecompressAuto
// does. workers 0 means GOMAXPROCS.
func DecompressMembersParallel(data []byte, workers int) ([]byte, error) {
	return DecompressTo(nil, data, workers)
}

// DecompressTo is DecompressMembersParallel appending to dst: a caller that
// decodes stream after stream hands the same buffer back and pays for its
// growth once. A stream without the member layout inflates straight into
// dst; members inflated side by side are copied there in order.
func DecompressTo(dst, data []byte, workers int) ([]byte, error) {
	members, ok := splitMembers(data)
	if !ok {
		return decompress(dst, data, sniff(data))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(members) {
		workers = len(members)
	}
	start := time.Now()

	outs := make([][]byte, len(members))
	errs := make([]error, len(members))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				m := int(next.Add(1)) - 1
				if m >= len(members) {
					return
				}
				outs[m], errs[m] = inflateStream(nil, members[m], FormatGzip)
			}
		}()
	}
	wg.Wait()
	for m, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("gzipio: member %d: %w", m, err)
		}
	}
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	dst = slices.Grow(dst, total)
	for _, o := range outs {
		dst = append(dst, o...)
	}
	if o := obs.Default(); o != nil {
		o.Counter(MetricParallelOps, "op", "decompress").Inc()
		o.Counter(MetricMembers, "op", "decompress").Add(float64(len(members)))
		o.Counter(MetricBlockSeconds, "op", "decompress").Add(time.Since(start).Seconds())
	}
	return dst, nil
}
