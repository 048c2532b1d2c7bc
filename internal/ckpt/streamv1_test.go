package ckpt

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lossyckpt/internal/grid"
	"lossyckpt/internal/guard"
)

// streamV1Dir holds checkpoint streams in the v1 layout — one CRC-led frame
// per entry — written by the v1 writer before it was removed: the five
// climate arrays (climate5 at nx=24, step 720) under the whole-array lossy
// codec and under guard PSNR>=80, the fuzz target's array under gzip (step 3),
// and a warm delta checkpoint of the chunked lossy codec (8-plane slabs,
// step 721) with one slab of the second array dirtied. fields.sha256 has the
// digests of the fields each restored to then. Nothing writes v1 any more;
// these files are what the reader is held to, and they are never rewritten.
var streamV1Dir = filepath.Join("testdata", "golden", "stream_v1")

// streamV1Codec is the codec each corpus stream was written with, by file.
func streamV1Codec(file string) Codec {
	switch file {
	case "guard.ckpt":
		return NewGuard(guard.Policy{PSNRFloor: 80})
	case "gzip.ckpt":
		return NewGzip()
	case "lossy_chunked_delta.ckpt":
		c := NewLossy()
		c.ChunkExtent = 8
		return c
	default:
		return NewLossy()
	}
}

// TestDecodesStreamV1Corpus: every stream in testdata/golden/stream_v1 is a
// version 1 stream, and restores to the fields fields.sha256 records through
// every reader — Restore off a reader, the in-memory scan RestoreLatest runs,
// loadStream, each strict and lenient — and passes VerifyStream with decode.
func TestDecodesStreamV1Corpus(t *testing.T) {
	sums, err := os.ReadFile(filepath.Join(streamV1Dir, "fields.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{} // file -> "name digest" in stream order
	var files []string
	for _, line := range strings.Split(strings.TrimSpace(string(sums)), "\n") {
		file, rest, _ := strings.Cut(line, " ")
		if want[file] == nil {
			files = append(files, file)
		}
		want[file] = append(want[file], rest)
	}
	if len(files) != 4 {
		t.Fatalf("fields.sha256 names %d streams, want 4", len(files))
	}
	for _, file := range files {
		stream, err := os.ReadFile(filepath.Join(streamV1Dir, file))
		if err != nil {
			t.Fatal(err)
		}
		hdr, err := readStreamHeader(&byteReader{b: stream})
		if err != nil || hdr.Version != fileVersion {
			t.Fatalf("%s: header %+v (%v), want stream version %d", file, hdr, err, fileVersion)
		}
		info, err := InspectStream(stream)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		codec := streamV1Codec(file)
		digests := func(how string, names []string, fs []*grid.Field) {
			t.Helper()
			for i, l := range want[file] {
				if got := fmt.Sprintf("%s %x", names[i], sha256.Sum256(grid.FloatBytes(fs[i].Data()))); got != l {
					t.Errorf("%s via %s: restored %s, recorded %s", file, how, got, l)
				}
			}
		}
		for _, lenient := range []bool{false, true} {
			for _, inMemory := range []bool{false, true} {
				var names []string
				var back []*grid.Field
				for _, e := range info.Entries {
					names, back = append(names, e.Name), append(back, grid.MustNew(e.Shape...))
				}
				m := managerOver(t, codec, 2, names, back)
				how := fmt.Sprintf("Restore lenient=%v", lenient)
				switch {
				case inMemory:
					how = fmt.Sprintf("in-memory restore lenient=%v", lenient)
					_, _, err = m.restore(nil, &byteReader{b: stream}, lenient)
				case lenient:
					_, _, err = m.RestorePartial(bytes.NewReader(stream))
				default:
					_, err = m.Restore(bytes.NewReader(stream))
				}
				if err != nil {
					t.Fatalf("%s via %s: %v", file, how, err)
				}
				digests(how, names, back)
			}
			lc, err := loadStream(&byteReader{b: stream}, 2, lenient)
			if err != nil || lc.Partial {
				t.Fatalf("%s via loadStream lenient=%v: %+v, %v", file, lenient, lc, err)
			}
			var names []string
			var got []*grid.Field
			for _, lf := range lc.Fields {
				names, got = append(names, lf.Name), append(got, lf.Field)
			}
			digests(fmt.Sprintf("loadStream lenient=%v", lenient), names, got)
		}
		if err := VerifyStream(stream, true, 2); err != nil {
			t.Errorf("%s: VerifyStream: %v", file, err)
		}
	}
}
