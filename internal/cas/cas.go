// Package cas implements the content-addressed chunk layer under the
// store's dedup path: a content-defined chunker (gear rolling hash with
// min/avg/max bounds), SHA-256 chunk addressing, a recipe codec that
// turns a generation payload into a list of chunk references, and an
// in-memory refcount index the store rebuilds at Open and keeps current
// across commits, prunes and GC passes.
//
// The package is pure — no filesystem, no store dependency — so the
// chunk math can be fuzzed and property-tested in isolation and reused
// verbatim by every backend.
//
// Chunks are views. The cutter copies only a chunk that spans two Write
// calls; every other chunk reaches emit as a sub-slice of the slice being
// written, and Split's chunks are sub-slices of its input. A view lent to
// emit lives until the Write or Flush call that emitted it returns: emit may
// collect the chunks of one call (the store hashes them in batches on a
// second goroutine) but must have finished with them when the call does.
package cas

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
)

// HashSize is the byte length of a chunk address (SHA-256).
const HashSize = 32

// Hash addresses one chunk by the SHA-256 of its content.
type Hash [HashSize]byte

// Sum returns the content address of data.
func Sum(data []byte) Hash { return sha256.Sum256(data) }

// String renders the address as lowercase hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// ParseHash inverts Hash.String.
func ParseHash(s string) (Hash, error) {
	var h Hash
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != HashSize {
		return h, fmt.Errorf("cas: bad chunk hash %q", s)
	}
	copy(h[:], b)
	return h, nil
}

// Default chunker bounds. The average targets the store's commit-chunk
// granularity (256 KiB) so one content-defined chunk is one bounded
// write; min/max keep the size distribution tight enough that a single
// flipped byte dirties O(1) chunks.
const (
	DefaultMinChunk = 64 << 10
	DefaultAvgChunk = 256 << 10
	DefaultMaxChunk = 1 << 20
)

// Config bounds the content-defined chunker. Cut points depend only on
// content and these bounds, so two stores with the same Config chunk
// identical payloads identically — the property replicated commits rely
// on for byte-exact quorum voting over recipes.
type Config struct {
	// Min is the smallest chunk the cutter may emit (except the final
	// tail). 0 means DefaultMinChunk.
	Min int
	// Avg is the target average chunk size; it must be a power of two
	// (the cutter masks the rolling hash with Avg-1). 0 means
	// DefaultAvgChunk.
	Avg int
	// Max force-cuts a chunk regardless of content. 0 means
	// DefaultMaxChunk.
	Max int
}

func (c Config) withDefaults() Config {
	if c.Min == 0 {
		c.Min = DefaultMinChunk
	}
	if c.Avg == 0 {
		c.Avg = DefaultAvgChunk
	}
	if c.Max == 0 {
		c.Max = DefaultMaxChunk
	}
	return c
}

// Validate rejects bounds the cutter cannot honor.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Avg&(c.Avg-1) != 0 {
		return fmt.Errorf("cas: average chunk size %d is not a power of two", c.Avg)
	}
	if c.Min <= 0 || c.Min > c.Avg || c.Avg > c.Max {
		return fmt.Errorf("cas: chunk bounds min=%d avg=%d max=%d violate 0 < min <= avg <= max", c.Min, c.Avg, c.Max)
	}
	return nil
}

// gearTable is the 256-entry random table driving the gear rolling
// hash. It is generated once from a fixed splitmix64 seed so cut points
// are stable across processes, architectures and releases — a chunk
// written by one store must be findable by every other.
var gearTable = func() [256]uint64 {
	var t [256]uint64
	state := uint64(0x9E3779B97F4A7C15)
	for i := range t {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		t[i] = z ^ (z >> 31)
	}
	return t
}()

// Chunker is a streaming content-defined cutter: bytes go in via Write,
// complete chunks come out through the emit callback, and Flush emits
// the final partial chunk. Cut points use the gear hash — h = h<<1 +
// gear[b] — masked to the average size, with min/max bounds; because
// the hash has a finite window (64 bytes effectively), cut points
// resynchronize shortly after any local edit, which is what makes slab
// boundaries in the chunked compression layout stable cut points
// without explicit alignment plumbing.
type Chunker struct {
	cfg  Config
	mask uint64
	emit func(chunk []byte) error
	// buf is the head of a chunk begun in an earlier Write, h the gear hash
	// over it (meaningful once buf holds Min bytes). spare is the buffer the
	// next carried chunk is assembled in: a chunk emitted out of buf must stay
	// readable until the Write that emitted it returns, and that Write may
	// yet have a tail of its own to carry.
	buf, spare []byte
	h          uint64
}

// NewChunker builds a streaming cutter delivering chunks to emit. A chunk
// passed to emit is a view (see the package comment): valid until the Write
// or Flush call that emitted it returns, and not after.
func NewChunker(cfg Config, emit func(chunk []byte) error) (*Chunker, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Chunker{cfg: cfg, mask: uint64(cfg.Avg - 1), emit: emit}, nil
}

// warm returns the gear hash over the 64 bytes (fewer under a smaller Min)
// that precede position Min of a chunk, so that the boundary decision at
// Min already has full context.
func (c *Chunker) warm(chunk []byte) (h uint64) {
	for _, b := range chunk[max(c.cfg.Min-64, 0):c.cfg.Min] {
		h = h<<1 + gearTable[b]
	}
	return h
}

// scan carries the hash over d, testing before each byte whether the chunk
// ends ahead of it. It returns the index of the first byte past the cut, or
// -1 with every byte of d absorbed.
func (c *Chunker) scan(h uint64, d []byte) (uint64, int) {
	for i, b := range d {
		if h&c.mask == 0 {
			return h, i
		}
		h = h<<1 + gearTable[b]
	}
	return h, -1
}

// Write implements io.Writer, emitting every complete chunk found in
// the stream so far.
func (c *Chunker) Write(p []byte) (int, error) {
	written := len(p)
	lo, hi := c.cfg.Min, c.cfg.Max
	if len(c.buf) > 0 {
		// A chunk is under way in buf. Bring it up to Min, where the hash
		// starts; then look for its end in p.
		if n := len(c.buf); n < lo {
			take := min(lo-n, len(p))
			c.buf = append(c.buf, p[:take]...)
			if p = p[take:]; len(c.buf) < lo {
				return written, nil
			}
			c.h = c.warm(c.buf)
		}
		room := min(hi-len(c.buf), len(p))
		h, cut := c.scan(c.h, p[:room])
		switch {
		case cut >= 0:
		case len(c.buf)+room == hi:
			cut = room
		default:
			c.buf, c.h = append(c.buf, p...), h
			return written, nil
		}
		chunk := append(c.buf, p[:cut]...)
		c.buf, c.spare = c.spare[:0], chunk
		if err := c.emit(chunk); err != nil {
			return 0, err
		}
		p = p[cut:]
	}
	for len(p) >= lo {
		lim := min(len(p), hi)
		h, cut := c.scan(c.warm(p), p[lo:lim])
		switch {
		case cut >= 0:
			cut += lo
		case lim == hi:
			cut = hi
		default:
			c.buf, c.h = append(c.buf, p...), h
			return written, nil
		}
		if err := c.emit(p[:cut]); err != nil {
			return 0, err
		}
		p = p[cut:]
	}
	c.buf = append(c.buf, p...)
	return written, nil
}

// Flush emits the final partial chunk, if any. The chunker is reusable
// afterwards (a fresh stream starts clean).
func (c *Chunker) Flush() error {
	if len(c.buf) == 0 {
		return nil
	}
	chunk := c.buf
	c.buf, c.spare = c.spare[:0], chunk
	return c.emit(chunk)
}

var _ io.Writer = (*Chunker)(nil)

// Split cuts data into content-defined chunks in one call. The chunks are
// views of data.
func Split(cfg Config, data []byte) ([][]byte, error) {
	var out [][]byte
	ch, err := NewChunker(cfg, func(chunk []byte) error {
		out = append(out, chunk)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if _, err := ch.Write(data); err != nil {
		return nil, err
	}
	if n := len(ch.buf); n > 0 {
		out = append(out, data[len(data)-n:]) // what Flush would emit, where it lies
	}
	return out, nil
}
