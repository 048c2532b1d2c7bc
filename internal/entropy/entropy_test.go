package entropy

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"lossyckpt/internal/gzipio"
	"lossyckpt/internal/obs"
)

// corpus builds inputs spanning the shapes the entropy stage sees:
// container streams (structured header + packed floats), repetitive
// code bytes, incompressible noise, and degenerate sizes.
func corpus() map[string][]byte {
	rng := rand.New(rand.NewSource(42))
	smooth := make([]byte, 0, 64*1024)
	for i := 0; i < 8*1024; i++ {
		v := 280 + 15*math.Sin(float64(i)/200)
		var b [8]byte
		u := math.Float64bits(v)
		for k := 0; k < 8; k++ {
			b[k] = byte(u >> (8 * k))
		}
		smooth = append(smooth, b[:]...)
	}
	noise := make([]byte, 32*1024)
	rng.Read(noise)
	runs := bytes.Repeat([]byte{0, 0, 0, 7, 7, 1}, 6000)
	mixed := append(append([]byte("LCKP header-ish"), runs[:2048]...), noise[:2048]...)
	return map[string][]byte{
		"empty":  {},
		"one":    {0x5a},
		"tiny":   []byte("abcdefgh"),
		"runs":   runs,
		"smooth": smooth,
		"noise":  noise,
		"mixed":  mixed,
	}
}

func TestLZ4RoundTrip(t *testing.T) {
	for name, data := range corpus() {
		comp := lz4Compress(nil, data)
		back, err := lz4Decompress(nil, comp)
		if err != nil {
			t.Fatalf("%s: decompress: %v", name, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("%s: round trip mismatch: got %d bytes want %d", name, len(back), len(data))
		}
	}
}

func TestLZ4CompressesRedundantData(t *testing.T) {
	data := bytes.Repeat([]byte("checkpoint"), 10000)
	comp := lz4Compress(nil, data)
	if len(comp) >= len(data)/10 {
		t.Fatalf("repetitive input barely compressed: %d -> %d", len(data), len(comp))
	}
}

func TestLZ4IncompressibleBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 256*1024)
	rng.Read(data)
	comp := lz4Compress(nil, data)
	if len(comp) > lz4CompressBound(len(data)) {
		t.Fatalf("output %d exceeds bound %d", len(comp), lz4CompressBound(len(data)))
	}
}

func TestLZ4DecompressRejectsCorrupt(t *testing.T) {
	cases := map[string][]byte{
		"empty":           {},
		"bad header":      {0xff},
		"huge declared":   {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"trailing":        append(lz4Compress(nil, nil), 1, 2, 3),
		"truncated token": {4, 0x40, 'a'},
		"zero offset":     {8, 0x41, 'a', 0, 0},
		"far offset":      {8, 0x41, 'a', 0xff, 0xff},
	}
	for name, data := range cases {
		if _, err := lz4Decompress(nil, data); err == nil {
			t.Errorf("%s: corrupt input decoded without error", name)
		}
	}
}

func TestLZ4TruncationAlwaysErrors(t *testing.T) {
	data := bytes.Repeat([]byte("abcdefgh123"), 2000)
	comp := lz4Compress(nil, data)
	for cut := 1; cut < len(comp); cut += 37 {
		if back, err := lz4Decompress(nil, comp[:cut]); err == nil && bytes.Equal(back, data) {
			t.Fatalf("truncation at %d/%d still produced the full output", cut, len(comp))
		}
	}
}

func TestShuffleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, stride := range []int{1, 2, 4, 8, 16} {
		for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 8191, 8192} {
			data := make([]byte, n)
			rng.Read(data)
			back := UnshuffleBytes(ShuffleBytes(data, stride), stride)
			if !bytes.Equal(back, data) {
				t.Fatalf("stride %d len %d: shuffle not a bijection", stride, n)
			}
		}
	}
}

func TestShuffleLaneLayout(t *testing.T) {
	// 3 elements of stride 4 plus a 2-byte tail.
	src := []byte{
		0x00, 0x01, 0x02, 0x03,
		0x10, 0x11, 0x12, 0x13,
		0x20, 0x21, 0x22, 0x23,
		0xaa, 0xbb,
	}
	want := []byte{
		0x00, 0x10, 0x20, // lane 0
		0x01, 0x11, 0x21, // lane 1
		0x02, 0x12, 0x22, // lane 2
		0x03, 0x13, 0x23, // lane 3
		0xaa, 0xbb, // verbatim tail
	}
	got := ShuffleBytes(src, 4)
	if !bytes.Equal(got, want) {
		t.Fatalf("lane layout:\n got %x\nwant %x", got, want)
	}
}

func TestShuffleImprovesLZ4OnFloats(t *testing.T) {
	data := corpus()["smooth"]
	plain := lz4Compress(nil, data)
	shuf := lz4Compress(nil, ShuffleBytes(data, 8))
	if len(shuf) >= len(plain) {
		t.Fatalf("shuffle did not help smooth float64 data: plain %d, shuffled %d", len(plain), len(shuf))
	}
}

func TestCompressDecompressAllParams(t *testing.T) {
	for name, data := range corpus() {
		for _, p := range []Params{
			{Codec: Gzip, GzipLevel: gzipio.Default},
			{Codec: Gzip, Shuffle: true, GzipLevel: gzipio.Default},
			{Codec: Gzip, GzipLevel: gzipio.Default, GzipBlock: 8 * 1024},
			{Codec: LZ4},
			{Codec: LZ4, Shuffle: true},
			{Codec: LZ4, Shuffle: true, Stride: 4},
		} {
			res, err := Compress(data, p)
			if err != nil {
				t.Fatalf("%s %s: compress: %v", name, p.Label(), err)
			}
			if string(res.Compressed[:4]) != envelopeMagic {
				t.Fatalf("%s %s: missing envelope", name, p.Label())
			}
			for _, workers := range []int{0, 1, 4} {
				back, err := Decompress(res.Compressed, workers)
				if err != nil {
					t.Fatalf("%s %s workers=%d: decompress: %v", name, p.Label(), workers, err)
				}
				if !bytes.Equal(back, data) {
					t.Fatalf("%s %s workers=%d: round trip mismatch", name, p.Label(), workers)
				}
			}
			// A recycled buffer, dirty and of any size, changes nothing, and
			// a buffer with room for one stream's bytes is where they are
			// left — shuffled ones too, whose lanes decode into a buffer of
			// the package's own and are transposed back into the caller's.
			for _, size := range []int{len(data) + 512, len(data) / 2} {
				dst := bytes.Repeat([]byte{0xa5}, size)
				back, err := DecompressTo(dst, res.Compressed, 1)
				if err != nil || !bytes.Equal(back, data) {
					t.Fatalf("%s %s into %d bytes: round trip mismatch (err %v)", name, p.Label(), size, err)
				}
				inPlace := p.GzipBlock == 0 && size > len(data) && len(data) > 0
				if inPlace && &back[0] != &dst[0] {
					t.Errorf("%s %s: decoded beside a buffer of %d bytes that had room for %d", name, p.Label(), size, len(data))
				}
			}
		}
	}
}

func TestDecompressLegacyGzipAndZlib(t *testing.T) {
	data := bytes.Repeat([]byte("legacy payload "), 512)
	for _, format := range []gzipio.Format{gzipio.FormatGzip, gzipio.FormatZlib} {
		res, err := gzipio.CompressFormat(data, gzipio.Default, gzipio.InMemory, "", format)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decompress(res.Compressed, 2)
		if err != nil {
			t.Fatalf("%v: legacy decode: %v", format, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("%v: legacy round trip mismatch", format)
		}
	}
}

func TestDecompressRejectsBadEnvelope(t *testing.T) {
	good, err := Compress([]byte("hello world hello world"), Params{Codec: LZ4})
	if err != nil {
		t.Fatal(err)
	}
	badVer := append([]byte{}, good.Compressed...)
	badVer[4] = 99
	badCodec := append([]byte{}, good.Compressed...)
	badCodec[5] = 200
	badStride := append([]byte{}, good.Compressed...)
	badStride[6] = flagShuffled
	badStride[7] = 0
	for name, data := range map[string][]byte{
		"version": badVer, "codec": badCodec, "stride": badStride,
	} {
		if _, err := Decompress(data, 1); err == nil {
			t.Errorf("bad %s accepted", name)
		}
	}
}

func TestIdentify(t *testing.T) {
	data := bytes.Repeat([]byte("identify me "), 256)
	gz, _ := gzipio.CompressFormat(data, gzipio.Default, gzipio.InMemory, "", gzipio.FormatGzip)
	zl, _ := gzipio.CompressFormat(data, gzipio.Default, gzipio.InMemory, "", gzipio.FormatZlib)
	lz, _ := Compress(data, Params{Codec: LZ4})
	lzs, _ := Compress(data, Params{Codec: LZ4, Shuffle: true})
	gzs, _ := Compress(data, Params{Codec: Gzip, Shuffle: true, GzipLevel: gzipio.Default})
	cases := map[string]string{
		string(gz.Compressed):  "gzip",
		string(zl.Compressed):  "zlib",
		string(lz.Compressed):  "lz4",
		string(lzs.Compressed): "lz4+shuffle",
		string(gzs.Compressed): "gzip+shuffle",
		"garbage":              "unknown",
	}
	for data, want := range cases {
		if got := Identify([]byte(data)); got != want {
			t.Errorf("Identify = %q, want %q", got, want)
		}
	}
}

func TestParseID(t *testing.T) {
	for name, want := range map[string]ID{"": Gzip, "gzip": Gzip, "lz4": LZ4} {
		got, err := ParseID(name)
		if err != nil || got != want {
			t.Errorf("ParseID(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseID("zstd"); err == nil {
		t.Error("ParseID accepted unknown codec")
	}
}

func TestRecordSelection(t *testing.T) {
	reg := obs.NewRegistry()
	defer obs.SetDefault(obs.SetDefault(reg))
	RecordSelection(Params{Codec: LZ4, Shuffle: true})
	RecordSelection(Params{Codec: LZ4, Shuffle: true})
	RecordSelection(Params{Codec: Gzip})
	snap := reg.Snapshot()
	got := map[string]float64{}
	for _, m := range snap.Metrics {
		if m.Name == MetricCodecSelected {
			if len(m.Labels) != 1 {
				t.Errorf("selection counter labelled %v, want codec alone", m.Labels)
			}
			got[m.Labels["codec"]] = m.Value
		}
	}
	if got["lz4+shuffle"] != 2 || got["gzip"] != 1 {
		t.Fatalf("unexpected selection counters: %v", got)
	}
}
