package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"testing"

	"lossyckpt/internal/grid"
	"lossyckpt/internal/guard"
)

// The bytes.Buffer writers the framing was built from before it was laid
// out by appends: the oracle below, and the tests that forge streams, still
// write with them.

func writeU16(buf *bytes.Buffer, v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	buf.Write(b[:])
}

func writeU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func writeU64(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}

func writeString(buf *bytes.Buffer, s string) {
	writeU16(buf, uint16(len(s)))
	buf.WriteString(s)
}

// referenceCheckpoint is the v1 writer Checkpoint replaced: each entry
// staged whole in a buffer — prologue, payload length, payload — to take its
// CRC, then copied behind CRC and length into the stream buffer. The entries
// are encoded one after the other, no delta cache in sight.
func referenceCheckpoint(t *testing.T, codec Codec, names []string, fields []*grid.Field, step int) []byte {
	t.Helper()
	var buf bytes.Buffer
	writeU32(&buf, fileMagic)
	writeU16(&buf, fileVersion)
	writeString(&buf, codec.Name())
	writeU64(&buf, uint64(step))
	writeU32(&buf, uint32(len(names)))
	for i, name := range names {
		var enc *Encoded
		var err error
		if ee, ok := codec.(EntryEncoder); ok {
			enc, err = ee.EncodeEntry(Entry{Name: name, Field: fields[i]})
		} else {
			enc, err = codec.Encode(fields[i])
		}
		if err != nil {
			t.Fatal(err)
		}
		var entry bytes.Buffer
		writeString(&entry, name)
		writeU16(&entry, uint16(fields[i].Dims()))
		for _, e := range fields[i].Shape() {
			writeU64(&entry, uint64(e))
		}
		writeU64(&entry, uint64(len(enc.Payload)))
		entry.Write(enc.Payload)
		writeU32(&buf, crc32.ChecksumIEEE(entry.Bytes()))
		writeU64(&buf, uint64(entry.Len()))
		buf.Write(entry.Bytes())
	}
	return buf.Bytes()
}

// partsWriter records each Write it is handed.
type partsWriter struct{ parts [][]byte }

func (p *partsWriter) Write(q []byte) (int, error) {
	p.parts = append(p.parts, append([]byte(nil), q...))
	return len(q), nil
}

// TestCheckpointMatchesBufferedFraming: the stream Checkpoint writes part by
// part is, joined, the stream the staging writer built — for every codec
// family, one variable and five, with delta on across a mutation — and no
// payload passes through a copy on the way: it reaches the writer as the
// codec's slice, one Write.
func TestCheckpointMatchesBufferedFraming(t *testing.T) {
	chunked := func() Codec {
		c := NewLossy()
		c.ChunkExtent = 8
		return c
	}
	for _, tc := range []struct {
		name  string
		codec func() Codec
		delta bool
	}{
		{"none", func() Codec { return None{} }, false},
		{"gzip", func() Codec { return NewGzip() }, false},
		{"gzip-delta", func() Codec { return NewGzip() }, true},
		{"lossy", func() Codec { return NewLossy() }, false},
		{"lossy-chunked-delta", chunked, true},
		{"guard", func() Codec { return NewGuard(guard.Policy{MaxAbs: 1e-2}) }, false},
	} {
		for _, nvars := range []int{1, 5} {
			t.Run(fmt.Sprintf("%s/%d", tc.name, nvars), func(t *testing.T) {
				var names []string
				var fields []*grid.Field
				for i := 0; i < nvars; i++ {
					names = append(names, fmt.Sprintf("var%d", i))
					f := smoothField(40+8*i, 12, 2)
					f.Data()[3] += float64(i)
					fields = append(fields, f)
				}
				m := managerOver(t, tc.codec(), 2, names, fields)
				m.SetDelta(tc.delta)
				for step := 1; step <= 3; step++ {
					var got bytes.Buffer
					var pw partsWriter
					rep, err := m.Checkpoint(io.MultiWriter(&got, &pw), step)
					if err != nil {
						t.Fatal(err)
					}
					want := referenceCheckpoint(t, tc.codec(), names, fields, step)
					if !bytes.Equal(got.Bytes(), want) {
						t.Fatalf("step %d: stream differs from the staged framing (%d vs %d bytes)", step, got.Len(), len(want))
					}
					if rep.FileBytes != len(want) {
						t.Fatalf("step %d: FileBytes %d, stream has %d", step, rep.FileBytes, len(want))
					}
					if len(pw.parts) != 1+2*nvars {
						t.Fatalf("step %d: %d writes, want header + 2 per entry = %d", step, len(pw.parts), 1+2*nvars)
					}
					for i, e := range rep.Entries {
						if n := len(pw.parts[2+2*i]); n != e.CompressedBytes {
							t.Fatalf("step %d: entry %d written as %d bytes, payload is %d", step, i, n, e.CompressedBytes)
						}
					}
					// Mutate a corner of the last array, so a delta
					// checkpoint reuses the rest.
					last := fields[len(fields)-1].Data()
					last[len(last)-1] += 0.5
				}
			})
		}
	}
}
