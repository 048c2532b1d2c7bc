package ckpt

import (
	"fmt"

	"lossyckpt/internal/core"
	"lossyckpt/internal/guard"
)

// StreamEntry is one entry's metadata as seen by InspectStream.
type StreamEntry struct {
	Name         string
	Shape        []int
	PayloadBytes int
	// Guarantee is the guard annotation the payload envelope carries
	// (nil for non-guard codecs).
	Guarantee *guard.Annotation
	// Entropy names the entry's entropy framing ("gzip", "lz4+shuffle",
	// …), sniffed through guard envelopes and chunked framing without
	// decoding; "unknown" for payloads with no recognizable entropy
	// stage (the none/fpc codecs).
	Entropy string
}

// StreamInfo is the registration-free summary of one checkpoint stream.
type StreamInfo struct {
	Codec   string
	Step    int
	Entries []StreamEntry
}

// InspectStream parses a checkpoint stream's framing without decoding
// payloads: header, per-frame CRCs, entry bodies, and any guard
// annotations. Any damage is an error (use loadStream's lenient mode for
// salvage semantics).
func InspectStream(data []byte) (*StreamInfo, error) {
	br := &byteReader{b: data}
	hdr, err := readStreamHeader(br)
	if err != nil {
		return nil, err
	}
	info := &StreamInfo{Codec: hdr.Codec, Step: hdr.Step}
	seen := make(map[string]bool, hdr.Count)
	for i := 0; i < hdr.Count; i++ {
		ent, err := readEntry(br, hdr.Version, i)
		if err != nil {
			return nil, err
		}
		if seen[ent.Name] {
			return nil, fmt.Errorf("%w: duplicate variable %q", ErrFormat, ent.Name)
		}
		seen[ent.Name] = true
		se := StreamEntry{Name: ent.Name, Shape: ent.Shape, PayloadBytes: len(ent.Payload)}
		inner := ent.Payload
		if guard.IsEnveloped(ent.Payload) {
			ann, err := guard.ParseAnnotation(ent.Payload)
			if err != nil {
				return nil, fmt.Errorf("ckpt: entry %q guard envelope: %w", ent.Name, err)
			}
			se.Guarantee = &ann
			if p, err := guard.InnerPayload(ent.Payload); err == nil {
				inner = p
			}
		}
		se.Entropy = core.IdentifyEntropy(inner)
		info.Entries = append(info.Entries, se)
		ent.release()
	}
	return info, nil
}

// VerifyStream audits one checkpoint stream end to end: framing and
// per-frame CRCs always, guard envelope CRCs and annotations when
// present, and — with decode set — a full decode of every entry, up to
// workers at once. It is the verification callback store.Scrub uses to
// re-audit retained generations beyond the store's own size+CRC check.
func VerifyStream(data []byte, decode bool, workers int) error {
	info, err := InspectStream(data)
	if err != nil {
		return err
	}
	if !decode {
		return nil
	}
	codec, err := decoderFor(info.Codec, workers)
	if err != nil {
		return err
	}
	br := &byteReader{b: data}
	hdr, err := readStreamHeader(br)
	if err != nil {
		return err
	}
	_, err = (&entryScan{codec: codec, workers: workers}).run(br, hdr)
	return err
}

// StoreVerifier adapts VerifyStream to store.ScrubOptions.Verify.
func StoreVerifier(decode bool, workers int) func([]byte) error {
	return func(data []byte) error { return VerifyStream(data, decode, workers) }
}
