package guard

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"lossyckpt/internal/climate"
	"lossyckpt/internal/core"
	"lossyckpt/internal/grid"
	"lossyckpt/internal/stats"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the current encoder")

// goldenPolicies are the ladders the digests pin: one that mostly stays on
// the first rung, one that escalates some variables, one that no lossy
// quantization meets; and the last two again over a base that clips
// coefficients — a bounded rung ships them clipped, the lossless-bands rung
// after two clipped attempts must see them unclipped.
var goldenPolicies = []struct {
	name          string
	pol           Policy
	zeroThreshold float64
}{
	{"psnr80", Policy{PSNRFloor: 80}, 0},
	{"maxrel1e-3", Policy{MaxRel: 1e-3}, 0},
	{"maxabs1e-9", Policy{MaxAbs: 1e-9}, 0},
	{"maxrel1e-3_clip1e-3", Policy{MaxRel: 1e-3}, 1e-3},
	{"maxabs1e-9_clip1e-3", Policy{MaxAbs: 1e-9}, 1e-3},
}

// climate5 is the paper's checkpoint at a reduced leading extent: the
// climate model's five arrays after a few steps.
func climate5(t testing.TB) (names []string, fields []*grid.Field) {
	t.Helper()
	cfg := climate.DefaultConfig()
	cfg.Nx = 96
	model, err := climate.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model.StepN(3)
	for _, nf := range model.Fields() {
		names = append(names, nf.Name)
		fields = append(fields, nf.Field.Clone())
	}
	return names, fields
}

// TestEncodeGoldenClimate5 pins guard.Encode — envelope and inner stream,
// so rung, attempts, escalations and achieved figures too — for the five
// climate fields under three policies, two of them again over clipped
// coefficients, and both verifiers. Two files hold it. climate5_guard.sha256
// has the payloads' digests as the encoder writes them today, recorded by
// -update-golden. climate5_guard_fields.sha256 has the digests of the fields
// the payloads decoded to when every rung was a whole core.Compress through
// compress/flate (PRs 12-15); it is never rewritten, so a payload may change
// its DEFLATE bytes but not what it restores to. The promise is checked by an
// independent decode on every architecture; the bytes where the digests
// were recorded.
func TestEncodeGoldenClimate5(t *testing.T) {
	path := filepath.Join("testdata", "golden", "climate5_guard.sha256")
	names, fields := climate5(t)
	var got, gotFields strings.Builder
	modes := map[Mode]int{}
	for _, gp := range goldenPolicies {
		for _, vm := range []VerifyMode{VerifyAnalytic, VerifyDecode} {
			for i, f := range fields {
				pol := gp.pol
				pol.Verify = vm
				base := core.DefaultOptions()
				base.ZeroThreshold = gp.zeroThreshold
				out, err := Encode(names[i], f, base, pol)
				if err != nil {
					t.Fatalf("%s/%v/%s: %v", gp.name, vm, names[i], err)
				}
				ann := out.Annotation
				modes[ann.Mode]++
				fmt.Fprintf(&got, "%s %v %s %v attempts=%d escalations=%d %x\n",
					gp.name, vm, names[i], ann.Mode, ann.Attempts, ann.Escalations, sha256.Sum256(out.Payload))

				back, _, err := Decode(out.Payload, f.Shape(), 0)
				if err != nil {
					t.Fatalf("%s/%v/%s: decode: %v", gp.name, vm, names[i], err)
				}
				img := make([]byte, 8*back.Len())
				for k, v := range back.Data() {
					binary.LittleEndian.PutUint64(img[8*k:], math.Float64bits(v))
				}
				fmt.Fprintf(&gotFields, "%s %v %s %x\n", gp.name, vm, names[i], sha256.Sum256(img))
				maxAbs, _ := stats.MaxAbsError(f.Data(), back.Data())
				maxRel, _ := stats.MaxRelError(f.Data(), back.Data())
				psnr, _ := stats.PSNR(f.Data(), back.Data())
				if !meets(pol, maxAbs, maxRel, psnr) || maxAbs > ann.AchievedMaxAbs {
					t.Errorf("%s/%v/%s (%v): restored with max-abs %g max-rel %g PSNR %g, promised %+v",
						gp.name, vm, names[i], ann.Mode, maxAbs, maxRel, psnr, ann)
				}
				if gp.zeroThreshold > 0 && ann.Mode == LosslessBands {
					// The rung must have been handed the coefficients as
					// transformed, not as an earlier rung clipped them.
					opts := base
					opts.LosslessBands = true
					fresh, err := core.Compress(f, opts)
					if err != nil {
						t.Fatal(err)
					}
					inner, err := InnerPayload(out.Payload)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(inner, fresh.Data) {
						t.Errorf("%s/%v/%s: lossless-bands rung after clipped rungs differs from a fresh compression", gp.name, vm, names[i])
					}
				}
			}
		}
	}
	if modes[Bounded] == 0 || modes[LosslessBands] == 0 {
		t.Errorf("the digests should cover both shipping rungs, got %v", modes)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The compressor's arithmetic may be fused differently on other
	// architectures (the Go spec allows x*y+z in one rounding), so the
	// bytes are pinned where the digests were recorded.
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests recorded on amd64, running on %s", runtime.GOARCH)
	}
	for _, c := range []struct{ path, got, what string }{
		{path, got.String(), "payload differs from the golden encoder's"},
		{filepath.Join("testdata", "golden", "climate5_guard_fields.sha256"), gotFields.String(), "payload decodes to another field than the compress/flate-era encoder's did"},
	} {
		want, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(c.got, "\n")
		if len(wantLines) != len(gotLines) {
			t.Fatalf("%s: %d digest lines, golden has %d", c.path, len(gotLines), len(wantLines))
		}
		for i := range wantLines {
			if wantLines[i] != gotLines[i] {
				t.Errorf("%s:\n got  %s\n want %s", c.what, gotLines[i], wantLines[i])
			}
		}
	}
}

// TestDecodesV1Corpus: testdata/golden/v1 holds two payloads the commit
// before container format 2 wrote for climate fields of 24 planes under
// PSNR >= 80 — a bounded rung and a lossless-bands rung, both over version 1
// containers. They are never rewritten and decode to the fields that commit
// decoded them to (fields.sha256), on the rung recorded.
func TestDecodesV1Corpus(t *testing.T) {
	dir := filepath.Join("testdata", "golden", "v1")
	sums, err := os.ReadFile(filepath.Join(dir, "fields.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(sums)), "\n")
	if len(lines) != 2 {
		t.Fatalf("fields.sha256 has %d lines, want 2", len(lines))
	}
	for _, line := range lines {
		file, _, _ := strings.Cut(line, " ")
		payload, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			back, ann, err := Decode(payload, []int{24, 82, 2}, workers)
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			if got := fmt.Sprintf("%s %v %x", file, ann.Mode, sha256.Sum256(grid.FloatBytes(back.Data()))); got != line {
				t.Errorf("%d workers: decoded %s, recorded %s", workers, got, line)
			}
		}
	}
}
