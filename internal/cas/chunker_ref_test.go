package cas

import (
	"bytes"
	"math/rand"
	"testing"
)

// refChunker is the cutter Chunker replaced, verbatim: every byte appended to
// one buffer, the buffer scanned from Min after each append and moved down
// after each cut. It is the oracle for where the cuts fall.
type refChunker struct {
	cfg  Config
	mask uint64
	buf  []byte
	emit func(chunk []byte) error
}

func newRefChunker(cfg Config, emit func(chunk []byte) error) (*refChunker, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &refChunker{
		cfg:  cfg,
		mask: uint64(cfg.Avg - 1),
		buf:  make([]byte, 0, cfg.Max),
		emit: emit,
	}, nil
}

// Write implements io.Writer, emitting every complete chunk found in
// the stream so far.
func (c *refChunker) Write(p []byte) (int, error) {
	written := len(p)
	for len(p) > 0 {
		take := c.cfg.Max - len(c.buf)
		if take > len(p) {
			take = len(p)
		}
		c.buf = append(c.buf, p[:take]...)
		p = p[take:]
		for {
			cut := c.cut()
			if cut == 0 {
				break
			}
			if err := c.emit(c.buf[:cut]); err != nil {
				return 0, err
			}
			c.buf = append(c.buf[:0], c.buf[cut:]...)
		}
	}
	return written, nil
}

// cut finds the first content-defined cut point in the buffered bytes,
// or 0 when the buffer holds no complete chunk yet.
func (c *refChunker) cut() int {
	if len(c.buf) < c.cfg.Min {
		return 0
	}
	var h uint64
	// Warm the hash over the window before Min so the boundary decision
	// at Min already has full context.
	warm := c.cfg.Min - 64
	if warm < 0 {
		warm = 0
	}
	for i := warm; i < c.cfg.Min; i++ {
		h = h<<1 + gearTable[c.buf[i]]
	}
	for i := c.cfg.Min; i < len(c.buf); i++ {
		if h&c.mask == 0 {
			return i
		}
		h = h<<1 + gearTable[c.buf[i]]
	}
	if len(c.buf) >= c.cfg.Max {
		return c.cfg.Max
	}
	return 0
}

// Flush emits the final partial chunk, if any. The chunker is reusable
// afterwards (a fresh stream starts clean).
func (c *refChunker) Flush() error {
	if len(c.buf) == 0 {
		return nil
	}
	chunk := c.buf
	c.buf = c.buf[:0]
	return c.emit(chunk)
}

// chunkerConfigs are the bounds the in-place cutter is held to the reference
// under: the benchmark's, the defaults, the tests' small ones, and the
// degenerate Min=Avg=Max where every cut is forced.
var chunkerConfigs = []Config{
	{Min: 4 << 10, Avg: 16 << 10, Max: 64 << 10},
	{},
	{Min: 1 << 10, Avg: 4 << 10, Max: 16 << 10},
	{Min: 512, Avg: 512, Max: 512},
	{Min: 16, Avg: 64, Max: 256}, // Min below the 64-byte warm-up
}

// chunkerInput is n bytes of a kind: random (content cuts), zero (only
// forced cuts) or random with long constant runs (both, back to back).
func chunkerInput(rng *rand.Rand, kind, n int) []byte {
	data := make([]byte, n)
	if kind != 1 {
		rng.Read(data)
	}
	if kind == 2 {
		for off := 0; off < n; {
			run := rng.Intn(n/4 + 1)
			if rng.Intn(2) == 0 {
				clear(data[off:min(off+run, n)])
			}
			off += run + 1
		}
	}
	return data
}

// writeSplits cuts [0,n) into Write calls: one call, single bytes, or random
// sizes biased towards the chunker's interesting lengths.
func writeSplits(rng *rand.Rand, cfg Config, n, mode int) []int {
	cfg = cfg.withDefaults()
	var sizes []int
	for left := n; left > 0; {
		var s int
		switch mode {
		case 0:
			s = left
		case 1:
			s = 1
		default:
			switch rng.Intn(6) {
			case 0:
				s = 1 + rng.Intn(3)
			case 1: // lands inside the warm-up window before Min
				s = max(cfg.Min-64, 0) + rng.Intn(64) + 1
			case 2:
				s = cfg.Min + rng.Intn(3) - 1
			case 3:
				s = cfg.Max + rng.Intn(3) - 1
			case 4:
				s = rng.Intn(3*cfg.Max) + 1
			default:
				s = rng.Intn(cfg.Avg) + 1
			}
		}
		s = max(1, min(s, left))
		sizes = append(sizes, s)
		left -= s
	}
	return sizes
}

// checkChunkerAgainstReference feeds data to the reference and, split into
// Write calls of the given sizes, to the Chunker. The chunk lists must be
// identical, and every chunk emitted during one call must still read as it
// did when emitted once that call returns — with the bytes just written
// scribbled over in between, as a caller recycling its buffer would.
func checkChunkerAgainstReference(t *testing.T, cfg Config, data []byte, sizes []int) {
	t.Helper()
	var want [][]byte
	ref, err := newRefChunker(cfg, func(c []byte) error {
		want = append(want, append([]byte(nil), c...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ref.Write(data)
	ref.Flush()

	var got, views, copies [][]byte
	ch, err := NewChunker(cfg, func(c []byte) error {
		views = append(views, c)
		copies = append(copies, append([]byte(nil), c...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	settle := func(call string) {
		for i, v := range views {
			if !bytes.Equal(v, copies[i]) {
				t.Fatalf("%s: chunk %d (%d bytes) changed between emit and the call's return", call, len(got)+i, len(v))
			}
		}
		got = append(got, copies...)
		views, copies = views[:0], copies[:0]
	}
	off := 0
	for _, s := range sizes {
		p := append([]byte(nil), data[off:off+s]...)
		if n, err := ch.Write(p); err != nil || n != s {
			t.Fatalf("Write(%d bytes) = %d, %v", s, n, err)
		}
		settle("Write")
		for i := range p {
			p[i] ^= 0xFF
		}
		off += s
	}
	if err := ch.Flush(); err != nil {
		t.Fatal(err)
	}
	settle("Flush")
	if len(got) != len(want) {
		t.Fatalf("%d chunks, reference cut %d (cfg %+v, %d bytes, %d writes)", len(got), len(want), cfg, len(data), len(sizes))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("chunk %d: %d bytes, reference %d (cfg %+v)", i, len(got[i]), len(want[i]), cfg)
		}
	}
}

// TestChunkerMatchesReference: over random, constant and mixed data, every
// configuration and every way of splitting the stream into Write calls, the
// in-place cutter emits the reference's chunks.
func TestChunkerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for ci, cfg := range chunkerConfigs {
		hi := cfg.withDefaults().Max
		for kind := 0; kind < 3; kind++ {
			for mode := 0; mode < 6; mode++ {
				n := rng.Intn(5*hi) + 1
				if mode == 1 {
					n = min(n, 3<<10+hi) // single-byte writes: keep the reference's rescans affordable
				}
				data := chunkerInput(rng, kind, n)
				checkChunkerAgainstReference(t, cfg, data, writeSplits(rng, cfg, n, mode))
			}
		}
		// Lengths around the bounds, in one write and in two.
		c := cfg.withDefaults()
		for _, n := range []int{0, 1, c.Min - 1, c.Min, c.Min + 1, c.Max - 1, c.Max, c.Max + 1, 2 * c.Max} {
			data := chunkerInput(rng, ci%2, n)
			checkChunkerAgainstReference(t, cfg, data, writeSplits(rng, cfg, n, 0))
			if n > 1 {
				checkChunkerAgainstReference(t, cfg, data, []int{n / 2, n - n/2})
			}
		}
	}
}

// TestSplitReturnsViews: Split's chunks are data itself, cut up.
func TestSplitReturnsViews(t *testing.T) {
	data := randomBytes(5, 300<<10)
	chunks, err := Split(Config{Min: 4 << 10, Avg: 16 << 10, Max: 64 << 10}, data)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for i, c := range chunks {
		if len(c) == 0 || &c[0] != &data[off] {
			t.Fatalf("chunk %d is not data[%d:]", i, off)
		}
		off += len(c)
	}
	if off != len(data) {
		t.Fatalf("chunks cover %d of %d bytes", off, len(data))
	}
}
