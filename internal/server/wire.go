// wire.go is the daemon's field-stream framing: a save request body and
// a restore response body are the same format — a sequence of named
// fields, each a [u16 name length][name][grid field] triple, terminated
// by EOF. The grid serialization is self-delimiting ("GRDF" magic,
// sized payload, CRC), so the framing adds only the variable name; a
// torn stream is detected either by the length prefix hitting EOF
// mid-read or by the grid decoder's own checks.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"lossyckpt/internal/grid"
)

// Wire-format limits. Names are operator-chosen identifiers, not data;
// the count cap bounds a malicious or looping client before the byte
// cap does on small fields.
const (
	maxWireNameLen = 1024
	maxWireFields  = 4096
)

// ErrWire indicates a malformed field stream.
var ErrWire = errors.New("server: malformed field stream")

// NamedField pairs a variable name with its array, the unit of the
// daemon's wire format.
type NamedField = grid.Named

// WriteFields streams fields to w in wire order.
func WriteFields(w io.Writer, fields []NamedField) error {
	var lenBuf [2]byte
	for _, nf := range fields {
		if nf.Name == "" || len(nf.Name) > maxWireNameLen {
			return fmt.Errorf("%w: field name length %d (want 1..%d)", ErrWire, len(nf.Name), maxWireNameLen)
		}
		binary.BigEndian.PutUint16(lenBuf[:], uint16(len(nf.Name)))
		if _, err := w.Write(lenBuf[:]); err != nil {
			return err
		}
		if _, err := io.WriteString(w, nf.Name); err != nil {
			return err
		}
		if _, err := nf.Field.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}

// ReadFields consumes a wire field stream until EOF. A clean EOF at a
// field boundary ends the stream; EOF anywhere else is a torn stream
// and an error. Duplicate names are rejected — the stream feeds a
// checkpoint manager where names are keys.
func ReadFields(r io.Reader) ([]NamedField, error) {
	var (
		fields []NamedField
		seen   = map[string]bool{}
		lenBuf [2]byte
	)
	for {
		if len(fields) >= maxWireFields {
			return nil, fmt.Errorf("%w: more than %d fields", ErrWire, maxWireFields)
		}
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			if err == io.EOF {
				return fields, nil // clean boundary
			}
			return nil, fmt.Errorf("%w: torn name length: %v", ErrWire, err)
		}
		n := int(binary.BigEndian.Uint16(lenBuf[:]))
		if n == 0 || n > maxWireNameLen {
			return nil, fmt.Errorf("%w: field name length %d (want 1..%d)", ErrWire, n, maxWireNameLen)
		}
		name := make([]byte, n)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, fmt.Errorf("%w: torn name: %v", ErrWire, err)
		}
		if seen[string(name)] {
			return nil, fmt.Errorf("%w: duplicate field %q", ErrWire, name)
		}
		f, err := grid.ReadField(r)
		if err != nil {
			return nil, fmt.Errorf("%w: field %q: %v", ErrWire, name, err)
		}
		seen[string(name)] = true
		fields = append(fields, NamedField{Name: string(name), Field: f})
	}
}
