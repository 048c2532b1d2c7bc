// quality.go is the manager's opt-in bridge to the qa package: a
// round-trip quality assessment of every registered variable under the
// manager's own codec, without touching the registered data. This is
// how "assess what this checkpoint configuration would do to my state"
// plugs into the save path — callers run it beside (not inside) a
// checkpoint, so the hot path pays nothing.
package ckpt

import (
	"fmt"

	"lossyckpt/internal/qa"
)

// AssessQuality encodes and decodes every registered array with the
// manager's codec and returns one qa.Assessment per variable. The
// registered fields are not modified. opts zero-value gives the qa
// defaults. Lossless codecs yield all-zero error assessments — still
// useful as a sanity check that the round trip is exact.
func (m *Manager) AssessQuality(opts qa.Options) ([]*qa.Assessment, error) {
	out := make([]*qa.Assessment, 0, len(m.names))
	for _, name := range m.names {
		f := m.fields[name]
		enc, err := m.codec.Encode(f)
		if err != nil {
			return nil, fmt.Errorf("ckpt: quality encode %q: %w", name, err)
		}
		dec, err := m.codec.Decode(enc.Payload, f.Shape(), nil)
		if err != nil {
			return nil, fmt.Errorf("ckpt: quality decode %q: %w", name, err)
		}
		a, err := qa.Assess(name, f.Data(), dec.Data(), opts)
		if err != nil {
			return nil, fmt.Errorf("ckpt: quality assess %q: %w", name, err)
		}
		out = append(out, a)
	}
	return out, nil
}
