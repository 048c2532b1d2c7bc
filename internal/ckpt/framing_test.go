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

// referenceCheckpoint is the v1 writer: each entry staged whole in a buffer
// — prologue, payload length, payload — to take its CRC, then copied behind
// CRC and length into the stream buffer. The entries are encoded one after
// the other, no delta cache in sight. Nothing else writes v1 any more; the
// tests that need a v1 stream of their own arrays build it here.
func referenceCheckpoint(t testing.TB, codec Codec, names []string, fields []*grid.Field, step int) []byte {
	t.Helper()
	buf := referenceHeader(codec, fileVersion, step, len(names))
	for i, name := range names {
		payload := referencePayload(t, codec, name, fields[i])
		var entry bytes.Buffer
		referencePrologue(&entry, name, fields[i].Shape())
		writeU64(&entry, uint64(len(payload)))
		entry.Write(payload)
		writeU32(buf, crc32.ChecksumIEEE(entry.Bytes()))
		writeU64(buf, uint64(entry.Len()))
		buf.Write(entry.Bytes())
	}
	return buf.Bytes()
}

// v1Stream is the v1 stream of m's registered arrays under its codec.
func v1Stream(t testing.TB, m *Manager, step int) []byte {
	t.Helper()
	fields := make([]*grid.Field, len(m.names))
	for i, name := range m.names {
		fields[i] = m.fields[name]
	}
	return referenceCheckpoint(t, m.codec, m.names, fields, step)
}

// referenceCheckpointV2 is the v2 stream of buffered encodes, each payload
// (under 4 GiB) one segment: prologue, segment length, payload, terminator,
// payload length, CRC of prologue and payload.
func referenceCheckpointV2(t testing.TB, codec Codec, names []string, fields []*grid.Field, step int) []byte {
	t.Helper()
	buf := referenceHeader(codec, fileVersionStream, step, len(names))
	for i, name := range names {
		payload := referencePayload(t, codec, name, fields[i])
		var pro bytes.Buffer
		referencePrologue(&pro, name, fields[i].Shape())
		buf.Write(pro.Bytes())
		if len(payload) > 0 {
			writeU32(buf, uint32(len(payload)))
			buf.Write(payload)
		}
		writeU32(buf, 0)
		writeU64(buf, uint64(len(payload)))
		writeU32(buf, crc32.Update(crc32.ChecksumIEEE(pro.Bytes()), crc32.IEEETable, payload))
	}
	return buf.Bytes()
}

func referenceHeader(codec Codec, version, step, count int) *bytes.Buffer {
	var buf bytes.Buffer
	writeU32(&buf, fileMagic)
	writeU16(&buf, uint16(version))
	writeString(&buf, codec.Name())
	writeU64(&buf, uint64(step))
	writeU32(&buf, uint32(count))
	return &buf
}

func referencePrologue(buf *bytes.Buffer, name string, shape []int) {
	writeString(buf, name)
	writeU16(buf, uint16(len(shape)))
	for _, e := range shape {
		writeU64(buf, uint64(e))
	}
}

// referencePayload is one entry's payload encoded buffered.
func referencePayload(t testing.TB, codec Codec, name string, f *grid.Field) []byte {
	t.Helper()
	var enc *Encoded
	var err error
	if ee, ok := codec.(EntryEncoder); ok {
		enc, err = ee.EncodeEntry(Entry{Name: name, Field: f})
	} else {
		enc, err = codec.Encode(f)
	}
	if err != nil {
		t.Fatal(err)
	}
	return enc.Payload
}

// partsWriter records each Write it is handed.
type partsWriter struct{ parts [][]byte }

func (p *partsWriter) Write(q []byte) (int, error) {
	p.parts = append(p.parts, append([]byte(nil), q...))
	return len(q), nil
}

// TestCheckpointMatchesBufferedFraming: the stream Checkpoint writes part by
// part is, joined, the v2 stream of buffered encodes with every payload one
// segment — for every codec family, one variable and five, with delta on
// across a mutation — and every payload reaches the writer in one Write.
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
					want := referenceCheckpointV2(t, tc.codec(), names, fields, step)
					if !bytes.Equal(got.Bytes(), want) {
						t.Fatalf("step %d: stream differs from the staged framing (%d vs %d bytes)", step, got.Len(), len(want))
					}
					if rep.FileBytes != len(want) {
						t.Fatalf("step %d: FileBytes %d, stream has %d", step, rep.FileBytes, len(want))
					}
					// Per entry: prologue, segment length, payload, trailer.
					if len(pw.parts) != 1+4*nvars {
						t.Fatalf("step %d: %d writes, want header + 4 per entry = %d", step, len(pw.parts), 1+4*nvars)
					}
					for i, e := range rep.Entries {
						if n := len(pw.parts[3+4*i]); n != e.CompressedBytes {
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
