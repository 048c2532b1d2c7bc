package gzipio

import (
	"bytes"
	"compress/gzip"
	"compress/zlib"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// testPayload builds a compressible but non-trivial byte stream.
func testPayload(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(rng.Intn(16))
	}
	return data
}

func TestCompressParallelByteStableAcrossWorkers(t *testing.T) {
	data := testPayload(3<<20+12345, 1) // 3 blocks + ragged tail at default size
	for _, format := range []Format{FormatGzip, FormatZlib} {
		var want []byte
		for _, workers := range []int{1, 2, 3, 8} {
			res, err := CompressParallel(data, Default, format, ParallelOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", format, workers, err)
			}
			if want == nil {
				want = res.Compressed
				continue
			}
			if !bytes.Equal(want, res.Compressed) {
				t.Errorf("%v: workers=%d output differs from workers=1", format, workers)
			}
		}
	}
}

func TestCompressParallelRoundTripsBothDecoders(t *testing.T) {
	cases := []struct {
		name string
		n    int
	}{
		{"zero_length", 0},
		{"single_block", 100},
		{"exact_block", DefaultBlockSize},
		{"multi_block", 2*DefaultBlockSize + 777},
	}
	for _, format := range []Format{FormatGzip, FormatZlib} {
		for _, tc := range cases {
			data := testPayload(tc.n, 2)
			res, err := CompressParallel(data, Default, format, ParallelOptions{Workers: 4})
			if err != nil {
				t.Fatalf("%v %s: %v", format, tc.name, err)
			}
			serial, err := DecompressAuto(res.Compressed)
			if err != nil {
				t.Fatalf("%v %s: serial decode: %v", format, tc.name, err)
			}
			if !bytes.Equal(serial, data) {
				t.Errorf("%v %s: serial decode mismatch", format, tc.name)
			}
			par, err := DecompressMembersParallel(res.Compressed, 3)
			if err != nil {
				t.Fatalf("%v %s: parallel decode: %v", format, tc.name, err)
			}
			if !bytes.Equal(par, data) {
				t.Errorf("%v %s: parallel decode mismatch", format, tc.name)
			}
		}
	}
}

func TestCompressParallelBlockSizeTunable(t *testing.T) {
	data := testPayload(300_000, 3)
	small, err := CompressParallel(data, Default, FormatGzip, ParallelOptions{BlockSize: 64 << 10, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	big, err := CompressParallel(data, Default, FormatGzip, ParallelOptions{BlockSize: 1 << 20, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ms, ok := splitMembers(small.Compressed)
	if !ok || len(ms) != 5 {
		t.Errorf("64 KiB blocks: got %d members, ok=%v, want 5", len(ms), ok)
	}
	mb, ok := splitMembers(big.Compressed)
	if !ok || len(mb) != 1 {
		t.Errorf("1 MiB blocks: got %d members, ok=%v, want 1", len(mb), ok)
	}
	for _, out := range [][]byte{small.Compressed, big.Compressed} {
		dec, err := DecompressMembersParallel(out, 0)
		if err != nil || !bytes.Equal(dec, data) {
			t.Errorf("block-size round trip failed: %v", err)
		}
	}
}

// TestParallelGzipReadableByStockReader checks the multi-member output
// against the plain stdlib reader (the "stock gzip" contract: RFC 1952
// concatenated members).
func TestParallelGzipReadableByStockReader(t *testing.T) {
	data := testPayload(2<<20+99, 4)
	res, err := CompressParallel(data, Default, FormatGzip, ParallelOptions{BlockSize: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(res.Compressed))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Error("stdlib gzip.Reader mismatch on multi-member stream")
	}
}

// TestParallelZlibReadableByStockReader checks the flush-boundary zlib
// assembly against the plain stdlib zlib reader as one stream.
func TestParallelZlibReadableByStockReader(t *testing.T) {
	data := testPayload(2<<20+99, 5)
	res, err := CompressParallel(data, Default, FormatZlib, ParallelOptions{BlockSize: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	zr, err := zlib.NewReader(bytes.NewReader(res.Compressed))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if err := zr.Close(); err != nil {
		t.Fatalf("adler verification: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Error("stdlib zlib.Reader mismatch on parallel stream")
	}
}

// TestInteropGzipCLI exercises both directions against the stock gzip
// command when present: our multi-member output must gunzip, and
// concatenated gzip-CLI members must DecompressAuto.
func TestInteropGzipCLI(t *testing.T) {
	gzipBin, err := exec.LookPath("gzip")
	if err != nil {
		t.Skip("gzip binary not installed")
	}
	dir := t.TempDir()
	data := testPayload(600_000, 6)

	// Direction 1: CompressParallel output through `gzip -d`.
	res, err := CompressParallel(data, Default, FormatGzip, ParallelOptions{BlockSize: 128 << 10})
	if err != nil {
		t.Fatal(err)
	}
	gzPath := filepath.Join(dir, "ours.gz")
	if err := os.WriteFile(gzPath, res.Compressed, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(gzipBin, "-t", gzPath).CombinedOutput(); err != nil {
		t.Fatalf("gzip -t rejected our multi-member stream: %v: %s", err, out)
	}
	var dec bytes.Buffer
	cmd := exec.Command(gzipBin, "-dc", gzPath)
	cmd.Stdout = &dec
	if err := cmd.Run(); err != nil {
		t.Fatalf("gzip -dc: %v", err)
	}
	if !bytes.Equal(dec.Bytes(), data) {
		t.Error("gzip CLI decoded different bytes")
	}

	// Direction 2: two gzip-CLI outputs concatenated into one stream.
	half := len(data) / 2
	var concatenated []byte
	for i, part := range [][]byte{data[:half], data[half:]} {
		p := filepath.Join(dir, "part"+string(rune('a'+i)))
		if err := os.WriteFile(p, part, 0o644); err != nil {
			t.Fatal(err)
		}
		if out, err := exec.Command(gzipBin, "-f", p).CombinedOutput(); err != nil {
			t.Fatalf("gzip: %v: %s", err, out)
		}
		gz, err := os.ReadFile(p + ".gz")
		if err != nil {
			t.Fatal(err)
		}
		concatenated = append(concatenated, gz...)
	}
	got, err := DecompressAuto(concatenated)
	if err != nil {
		t.Fatalf("DecompressAuto on concatenated CLI members: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("concatenated CLI members decoded different bytes")
	}
	// The foreign members carry no LK subfield; the parallel decoder must
	// fall back, not fail.
	got, err = DecompressMembersParallel(concatenated, 2)
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("parallel decoder fallback on CLI members: %v", err)
	}
}

// TestDecompressAutoConcatenatedStdlibMembers is the pure-Go interop
// check (always runs): members produced by stock gzip.Writer / zlib
// Writer concatenated back to back.
func TestDecompressAutoConcatenatedStdlibMembers(t *testing.T) {
	data := testPayload(200_000, 7)
	half := len(data) / 2

	var gzCat bytes.Buffer
	for _, part := range [][]byte{data[:half], data[half:]} {
		zw := gzip.NewWriter(&gzCat)
		zw.Write(part)
		zw.Close()
	}
	got, err := DecompressAuto(gzCat.Bytes())
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("concatenated gzip members: %v", err)
	}

	var zlCat bytes.Buffer
	for _, part := range [][]byte{data[:half], data[half:]} {
		zw := zlib.NewWriter(&zlCat)
		zw.Write(part)
		zw.Close()
	}
	got, err = DecompressAuto(zlCat.Bytes())
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("concatenated zlib members: %v", err)
	}
}

func TestDecompressAutoZeroLengthAndSingleBlock(t *testing.T) {
	for _, format := range []Format{FormatGzip, FormatZlib} {
		empty, err := CompressFormat(nil, Default, InMemory, "", format)
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecompressAuto(empty.Compressed)
		if err != nil {
			t.Fatalf("%v empty: %v", format, err)
		}
		if len(out) != 0 {
			t.Errorf("%v empty: got %d bytes", format, len(out))
		}

		one, err := CompressFormat([]byte("x"), Default, InMemory, "", format)
		if err != nil {
			t.Fatal(err)
		}
		out, err = DecompressAuto(one.Compressed)
		if err != nil || string(out) != "x" {
			t.Errorf("%v single byte: %q, %v", format, out, err)
		}
	}
}

// TestDecompressMembersParallelRejectsDamage spot-checks the decoder's
// error paths (the fuzz target explores these adversarially).
func TestDecompressMembersParallelRejectsDamage(t *testing.T) {
	data := testPayload(300_000, 10)
	res, err := CompressParallel(data, Default, FormatGzip, ParallelOptions{BlockSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	good := res.Compressed

	// Truncated final member.
	if _, err := DecompressMembersParallel(good[:len(good)-5], 2); err == nil {
		t.Error("truncated stream decoded without error")
	}
	// Flipped payload byte: the member CRC must catch it.
	mut := append([]byte(nil), good...)
	mut[len(mut)/2] ^= 0x40
	if out, err := DecompressMembersParallel(mut, 2); err == nil && bytes.Equal(out, data) {
		t.Error("corrupted stream decoded to original bytes")
	}
	// Garbage between members: splitMembers bails, serial fallback errors.
	members, ok := splitMembers(good)
	if !ok || len(members) < 2 {
		t.Fatal("expected multiple members")
	}
	var withGarbage []byte
	withGarbage = append(withGarbage, members[0]...)
	withGarbage = append(withGarbage, 0xde, 0xad, 0xbe, 0xef)
	withGarbage = append(withGarbage, members[1]...)
	if _, err := DecompressMembersParallel(withGarbage, 2); err == nil {
		t.Error("garbage between members decoded without error")
	}
}
