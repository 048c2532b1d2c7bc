package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"lossyckpt/internal/grid"
)

// FuzzRestore hardens the checkpoint-stream parser: arbitrary input into
// Restore must error out cleanly, never panic or corrupt registered state
// silently.
func FuzzRestore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("CKPT"))

	// Seed with a real v1 stream (the corpus's, of the array the target
	// registers) and systematic corruptions.
	raw, err := os.ReadFile(filepath.Join(streamV1Dir, "gzip.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	for _, pos := range []int{0, 6, len(raw) / 3, len(raw) - 1} {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0xA5
		f.Add(mut)
	}

	// Same corruptions over the v2 segmented layout Checkpoint writes.
	seedMgr := NewManager(NewGzip(), 1)
	if err := seedMgr.Register("x", smoothField(64, 8)); err != nil {
		f.Fatal(err)
	}
	var sbuf bytes.Buffer
	if _, err := seedMgr.Checkpoint(&sbuf, 3); err != nil {
		f.Fatal(err)
	}
	sraw := sbuf.Bytes()
	f.Add(sraw)
	f.Add(sraw[:len(sraw)/2])
	for _, pos := range []int{6, 20, len(sraw) / 3, len(sraw) - 5} {
		mut := append([]byte(nil), sraw...)
		mut[pos] ^= 0xA5
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Decoding into the registered array must reach the verdict, and the
		// array, of decoding apart and copying over (stagedCodec).
		restore := func(codec Codec) (*grid.Field, error) {
			mgr := NewManager(codec, 1)
			target := smoothField(64, 8)
			if err := mgr.Register("x", target); err != nil {
				t.Fatal(err)
			}
			_, err := mgr.Restore(bytes.NewReader(data))
			return target, err
		}
		inPlace, err := restore(NewGzip())
		apart, apartErr := restore(stagedCodec{NewGzip()})
		if errString(err) != errString(apartErr) {
			t.Fatalf("restore in place: %v; decoding apart: %v", err, apartErr)
		}
		if !inPlace.Equal(apart) {
			t.Fatalf("restore in place and decoding apart leave different arrays (error %v)", err)
		}
	})
}
