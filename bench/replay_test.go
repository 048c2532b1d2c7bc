package main

import (
	"bytes"
	"testing"

	"lossyckpt/internal/ckpt"
	"lossyckpt/internal/core"
	"lossyckpt/internal/entropy"
)

// TestReplayMatchesCore holds the chain of public calls that the per-layer
// numbers time to the path the program takes: on every workload's arrays,
// with the options its codec resolves (the tuner's pick as the codec makes
// it, the rung the guard ladder ends on), the replayed stages must produce
// the bytes core.Compress produces, the very stream the guard shipped, and
// invert to the field core.Decompress returns, slab by slab on the chunked
// workloads and on the ladder's lossless-bands rung too. A traced run makes
// the same comparison on its own parts; this test adds the chunked framing.
func TestReplayMatchesCore(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := w.newInputs(7, 16)
			if err != nil {
				t.Fatal(err)
			}
			p := &probes{c: &config{w: w}, in: in, codec: w.newCodec(in), live: in.newFields(true)}
			in.load(0, p.live)
			if g, ok := p.codec.(*ckpt.Guard); ok {
				if err := p.guardLadder(g); err != nil {
					t.Fatal(err)
				}
			}
			for v, f := range p.live {
				if l, ok := p.codec.(*ckpt.Lossy); ok && l.Tuner != nil {
					// One encode through the codec leaves the tuner's pick cached.
					if _, err := l.EncodeNamed(in.names[v], f); err != nil {
						t.Fatal(err)
					}
				}
				pt, chunk, ok, err := p.partFor(v, f)
				if err != nil || !ok {
					t.Fatalf("%s: no stages to replay (%v)", in.names[v], err)
				}
				if pt.raw {
					got, err := entropy.Compress(floatBytes(f.Data()), pt.entropy)
					if err != nil {
						t.Fatal(err)
					}
					want, err := p.codec.Encode(f)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Compressed, want.Payload) {
						t.Fatalf("%s: replayed entropy stage differs from the codec's payload", pt.name)
					}
					continue
				}
				ss, err := slabs(f, chunk)
				if err != nil {
					t.Fatal(err)
				}
				rungs := []core.Options{pt.opts}
				if w.guarded {
					bands := pt.opts
					bands.ErrorBound, bands.LosslessBands = 0, true
					rungs = append(rungs, bands)
				}
				for r, opts := range rungs {
					var streams [][]byte
					for k, slab := range ss {
						got, _, err := replayCompress(nil, slab, opts)
						if err != nil {
							t.Fatal(err)
						}
						want, err := core.Compress(slab, opts)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want.Data) {
							t.Fatalf("%s slab %d: replayed stream differs from core.Compress (%d vs %d bytes)", pt.name, k, len(got), len(want.Data))
						}
						if r == 0 && pt.want != nil && !bytes.Equal(got, pt.want) {
							t.Fatalf("%s: replayed stream differs from the one the guard shipped", pt.name)
						}
						back, err := replayDecompress(nil, got, opts.Workers)
						if err != nil {
							t.Fatal(err)
						}
						ref, err := core.Decompress(want.Data)
						if err != nil {
							t.Fatal(err)
						}
						if !back.Equal(ref) {
							t.Fatalf("%s slab %d: replayed inverse differs from core.Decompress", pt.name, k)
						}
						streams = append(streams, got)
					}
					if chunk == 0 {
						continue
					}
					// The chunked engine frames exactly these slab streams, in order.
					whole, err := core.CompressChunked(f, opts, chunk)
					if err != nil {
						t.Fatal(err)
					}
					if whole.Chunks != len(streams) {
						t.Fatalf("%s: chunked engine made %d chunks, replay %d", pt.name, whole.Chunks, len(streams))
					}
					rest := whole.Data
					for k, got := range streams {
						at := bytes.Index(rest, got)
						if at < 0 {
							t.Fatalf("%s slab %d: replayed stream not in the chunked stream", pt.name, k)
						}
						rest = rest[at+len(got):]
					}
					if len(rest) != 0 {
						t.Fatalf("%s: %d bytes follow the last slab in the chunked stream", pt.name, len(rest))
					}
				}
			}
		})
	}
}
