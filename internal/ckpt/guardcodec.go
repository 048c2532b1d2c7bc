package ckpt

import (
	"lossyckpt/internal/core"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/guard"
	"lossyckpt/internal/tune"
)

// Guard wraps the lossy pipeline in internal/guard's bounded-error
// enforcement: every entry's payload is a guard envelope carrying the
// guarantee it ships with, and violations degrade down the ladder to
// bit-exact gzip rather than out of spec.
type Guard struct {
	// Options configures the underlying pipeline (guard ladder rungs
	// override ErrorBound/Method/LosslessBands per attempt).
	Options core.Options
	// Policy is the quality guarantee to enforce; the zero value enforces
	// nothing but still annotates entries (mode "unbounded").
	Policy guard.Policy
	// Tuner, when set, picks the entropy-stage configuration per variable
	// before the ladder runs. The ladder stays the enforcement backstop:
	// tuning only changes lossless entropy framing, and the final gzip
	// rung is untouched.
	Tuner *tune.Tuner
}

// NewGuard returns a Guard codec over the paper's default pipeline
// configuration with the given policy.
func NewGuard(pol guard.Policy) *Guard {
	return &Guard{Options: core.DefaultOptions(), Policy: pol}
}

// Name implements Codec.
func (*Guard) Name() string { return "guard" }

// Lossless implements Codec. The guard is not lossless in general — only
// individual entries that fell back are, and their annotations say so.
func (*Guard) Lossless() bool { return false }

// Encode implements Codec (no variable name: base policy only).
func (c *Guard) Encode(f *grid.Field) (*Encoded, error) { return c.EncodeEntry(Entry{Field: f}) }

// EncodeEntry implements EntryEncoder: the name selects the per-variable
// policy override and labels the telemetry. The envelope leads with what the
// ladder decided last, so the payload is built in memory and returned.
func (c *Guard) EncodeEntry(e Entry) (*Encoded, error) {
	out, err := guard.Encode(e.Name, e.Field, tunedOptions(c.Options, c.Tuner, e.Name, e.Field), c.Policy)
	if err != nil {
		return nil, err
	}
	ann := out.Annotation
	return &Encoded{Payload: out.Payload, RawBytes: out.RawBytes, Guarantee: &ann}, nil
}

// Decode implements Codec.
func (c *Guard) Decode(payload []byte, shape []int, into *grid.Field) (*grid.Field, error) {
	f, _, err := guard.DecodeInto(payload, shape, c.Options.Workers, into)
	return f, err
}

// entryGuarantee sniffs a guard annotation off an entry payload; nil for
// non-enveloped codec payloads or a corrupt envelope (the decode proper
// reports that error).
func entryGuarantee(payload []byte) *guard.Annotation {
	if !guard.IsEnveloped(payload) {
		return nil
	}
	ann, err := guard.ParseAnnotation(payload)
	if err != nil {
		return nil
	}
	return &ann
}
