package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lossyckpt/internal/ckpt"
	"lossyckpt/internal/core"
	"lossyckpt/internal/grid"
)

// The CLI's run() takes its argument vector directly, so the whole tool is
// testable in-process.

func TestUsageAndUnknownSubcommand(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no arguments accepted")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
}

func TestParseShape(t *testing.T) {
	good := map[string][]int{
		"4":         {4},
		"8x9":       {8, 9},
		"1156x82x2": {1156, 82, 2},
	}
	for s, want := range good {
		got, err := parseShape(s)
		if err != nil {
			t.Errorf("parseShape(%q): %v", s, err)
			continue
		}
		if len(got) != len(want) {
			t.Errorf("parseShape(%q) = %v", s, got)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("parseShape(%q) = %v, want %v", s, got, want)
			}
		}
	}
	for _, s := range []string{"", "0", "-4", "4xx2", "axb", "4x"} {
		if _, err := parseShape(s); err == nil {
			t.Errorf("parseShape(%q): expected error", s)
		}
	}
}

func TestEndToEndWorkflow(t *testing.T) {
	dir := t.TempDir()
	grd := filepath.Join(dir, "field.grd")
	lkc := filepath.Join(dir, "field.lkc")
	out := filepath.Join(dir, "restored.grd")

	if err := run([]string{"gen", "-out", grd, "-shape", "96x20x2", "-steps", "10"}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if err := run([]string{"compress", "-in", grd, "-out", lkc, "-method", "proposed", "-n", "64"}); err != nil {
		t.Fatalf("compress: %v", err)
	}
	st1, _ := os.Stat(grd)
	st2, _ := os.Stat(lkc)
	if st2.Size() >= st1.Size() {
		t.Errorf("compressed file (%d) not smaller than field (%d)", st2.Size(), st1.Size())
	}
	if err := run([]string{"inspect", "-in", lkc}); err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if err := run([]string{"decompress", "-in", lkc, "-out", out}); err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if err := run([]string{"diff", "-a", grd, "-b", out}); err != nil {
		t.Fatalf("diff: %v", err)
	}

	// The restored field must parse and have the requested shape.
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fld, err := grid.ReadField(f)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{96, 20, 2}
	for d, e := range want {
		if fld.Extent(d) != e {
			t.Fatalf("restored shape %v, want %v", fld.Shape(), want)
		}
	}
}

func TestCompressFlagsValidation(t *testing.T) {
	dir := t.TempDir()
	grd := filepath.Join(dir, "f.grd")
	if err := run([]string{"gen", "-out", grd, "-shape", "32x8x2", "-steps", "1"}); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"compress", "-in", grd},                                         // missing -out
		{"compress", "-out", "x.lkc"},                                    // missing -in
		{"compress", "-in", grd, "-out", "x.lkc", "-method", "vector"},   // bad method
		{"compress", "-in", grd, "-out", "x.lkc", "-scheme", "dct"},      // bad scheme
		{"compress", "-in", grd, "-out", "x.lkc", "-n", "0"},             // bad n
		{"compress", "-in", filepath.Join(dir, "nope.grd"), "-out", "x"}, // missing input
		{"gen", "-out", filepath.Join(dir, "g.grd"), "-shape", "8x8"},    // gen needs 3D
		{"gen", "-out", filepath.Join(dir, "g.grd"), "-var", "humidity"}, // unknown var
		{"gen"}, // missing -out
		{"decompress", "-in", grd, "-out", filepath.Join(dir, "o.grd")}, // not an .lkc
		{"inspect", "-in", grd}, // not an .lkc
		{"inspect"},             // missing -in
		{"diff", "-a", grd},     // missing -b
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// -d is a 16-bit header field and the size of three tables: beyond it is
	// refused up front, not truncated into the header or allocated.
	for _, d := range []string{"70000", "1000000000", "0", "-3"} {
		err := run([]string{"compress", "-in", grd, "-out", filepath.Join(dir, "d.lkc"), "-d", d})
		if !errors.Is(err, core.ErrOptions) {
			t.Errorf("compress -d %s: err = %v, want core.ErrOptions", d, err)
		}
	}
	if err := run([]string{"compress", "-in", grd, "-out", filepath.Join(dir, "d.lkc"), "-d", "65535"}); err != nil {
		t.Errorf("compress -d 65535: %v", err)
	}
}

func TestDiffShapeMismatch(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.grd")
	b := filepath.Join(dir, "b.grd")
	if err := run([]string{"gen", "-out", a, "-shape", "32x8x2", "-steps", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"gen", "-out", b, "-shape", "32x8x1", "-steps", "1"}); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"diff", "-a", a, "-b", b})
	if err == nil || !strings.Contains(err.Error(), "shape mismatch") {
		t.Errorf("diff with mismatched shapes: %v", err)
	}
}

func TestSaveRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "temperature.grd")
	b := filepath.Join(dir, "pressure.grd")
	if err := run([]string{"gen", "-out", a, "-shape", "64x16x2", "-steps", "3", "-var", "temperature"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"gen", "-out", b, "-shape", "64x16x2", "-steps", "3", "-var", "pressure"}); err != nil {
		t.Fatal(err)
	}
	ckptDir := filepath.Join(dir, "ckpts")
	outDir := filepath.Join(dir, "restored")

	// Two generations with a lossless codec, -keep 2.
	if err := run([]string{"save", "-dir", ckptDir, "-in", a + "," + b, "-keep", "2", "-codec", "none", "-step", "3"}); err != nil {
		t.Fatalf("save: %v", err)
	}
	if err := run([]string{"save", "-dir", ckptDir, "-in", a + "," + b, "-keep", "2", "-codec", "none", "-step", "4"}); err != nil {
		t.Fatalf("save 2: %v", err)
	}
	if err := run([]string{"restore", "-dir", ckptDir, "-out", outDir}); err != nil {
		t.Fatalf("restore: %v", err)
	}
	// A lossless round trip through the store must be bit-exact.
	for _, name := range []string{"temperature", "pressure"} {
		orig, err := os.ReadFile(filepath.Join(dir, name+".grd"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(outDir, name+".grd"))
		if err != nil {
			t.Fatalf("restored %s missing: %v", name, err)
		}
		if string(orig) != string(got) {
			t.Errorf("%s: restored bytes differ from original", name)
		}
	}
}

func TestRestoreFallsBackWhenLatestCorrupt(t *testing.T) {
	dir := t.TempDir()
	grd := filepath.Join(dir, "wind_u.grd")
	if err := run([]string{"gen", "-out", grd, "-shape", "48x12x2", "-steps", "2", "-var", "wind_u"}); err != nil {
		t.Fatal(err)
	}
	ckptDir := filepath.Join(dir, "ckpts")
	if err := run([]string{"save", "-dir", ckptDir, "-in", grd, "-codec", "none", "-step", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"save", "-dir", ckptDir, "-in", grd, "-codec", "none", "-step", "2"}); err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the newest generation file on disk.
	raw, err := os.ReadFile(filepath.Join(ckptDir, "gen-00000002.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(filepath.Join(ckptDir, "gen-00000002.ckpt"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(dir, "restored")
	if err := run([]string{"restore", "-dir", ckptDir, "-out", outDir}); err != nil {
		t.Fatalf("restore with corrupt newest generation: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(outDir, "wind_u.grd"))
	if err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(grd)
	if err != nil {
		t.Fatal(err)
	}
	if string(orig) != string(got) {
		t.Error("fallback restore differs from original field")
	}
}

func TestSaveRestoreFlagsValidation(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{"save"},              // missing -dir and -in
		{"save", "-dir", dir}, // missing -in
		{"save", "-dir", dir, "-in", filepath.Join(dir, "nope.grd")}, // missing input
		{"save", "-dir", dir, "-in", "x.grd", "-codec", "zfp"},       // unknown codec
		{"restore"},              // missing -dir and -out
		{"restore", "-dir", dir}, // missing -out
		{"restore", "-dir", filepath.Join(dir, "empty"), "-out", dir}, // no generations
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// An unknown codec is refused with the list of known ones, the list the
	// package doc carries too.
	if err := run(cases[3]); !strings.Contains(err.Error(), ckpt.CodecNames) {
		t.Errorf("args %v: %v, want the error to name %s", cases[3], err, ckpt.CodecNames)
	}
	if doc, err := os.ReadFile("main.go"); err != nil ||
		!strings.Contains(strings.ReplaceAll(string(doc), "\n// ", " "), "one of: "+ckpt.CodecNames+".") {
		t.Errorf("package doc does not list the codecs %s (%v)", ckpt.CodecNames, err)
	}
}

func TestCompressTempFileMode(t *testing.T) {
	dir := t.TempDir()
	grd := filepath.Join(dir, "f.grd")
	lkc := filepath.Join(dir, "f.lkc")
	if err := run([]string{"gen", "-out", grd, "-shape", "64x16x2", "-steps", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"compress", "-in", grd, "-out", lkc, "-tempfile"}); err != nil {
		t.Fatalf("temp-file compress: %v", err)
	}
	if err := run([]string{"decompress", "-in", lkc, "-out", filepath.Join(dir, "o.grd")}); err != nil {
		t.Fatalf("decompress after temp-file mode: %v", err)
	}
}

func TestSaveGuardedAndFsck(t *testing.T) {
	dir := t.TempDir()
	grd := filepath.Join(dir, "temperature.grd")
	if err := run([]string{"gen", "-out", grd, "-shape", "64x16x2", "-steps", "3"}); err != nil {
		t.Fatal(err)
	}
	ckptDir := filepath.Join(dir, "ckpts")
	outDir := filepath.Join(dir, "restored")

	// -bound switches to the guard codec and enforces the bound.
	if err := run([]string{"save", "-dir", ckptDir, "-in", grd, "-bound", "0.01",
		"-guard-mode", "decode", "-step", "1"}); err != nil {
		t.Fatalf("guarded save: %v", err)
	}
	if err := run([]string{"restore", "-dir", ckptDir, "-out", outDir}); err != nil {
		t.Fatalf("restore: %v", err)
	}
	// The restored field is within the declared bound.
	if err := run([]string{"diff", "-a", grd, "-b", filepath.Join(outDir, "temperature.grd")}); err != nil {
		t.Fatalf("diff: %v", err)
	}

	// A clean store fscks clean (exit nil).
	if err := run([]string{"fsck", "-dir", ckptDir, "-decode"}); err != nil {
		t.Fatalf("fsck on clean store: %v", err)
	}

	// Corrupt the generation at rest: fsck must quarantine it and exit
	// non-zero, and the file must survive under quarantine/.
	raw, err := os.ReadFile(filepath.Join(ckptDir, "gen-00000001.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0x10
	if err := os.WriteFile(filepath.Join(ckptDir, "gen-00000001.ckpt"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"fsck", "-dir", ckptDir}); err == nil {
		t.Fatal("fsck on corrupt store exited clean")
	}
	if _, err := os.Stat(filepath.Join(ckptDir, "quarantine", "gen-00000001.ckpt")); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	// A second fsck over the now-empty index is clean again.
	if err := run([]string{"fsck", "-dir", ckptDir}); err != nil {
		t.Fatalf("fsck after quarantine: %v", err)
	}
}

func TestSaveGuardModeValidation(t *testing.T) {
	dir := t.TempDir()
	grd := filepath.Join(dir, "temperature.grd")
	if err := run([]string{"gen", "-out", grd, "-shape", "32x8x2", "-steps", "1"}); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"save", "-dir", filepath.Join(dir, "ckpts"), "-in", grd,
		"-bound", "0.1", "-guard-mode", "bogus"})
	if err == nil {
		t.Fatal("bogus -guard-mode accepted")
	}
	if err := run([]string{"fsck"}); err == nil {
		t.Fatal("fsck without -dir accepted")
	}
}

// TestReplicatedSaveRestoreFsck round-trips a checkpoint through a
// 3-way replicated store via the CLI flags, kills one replica's copy,
// and verifies restore still succeeds and fsck heals the fleet back to
// zero divergence.
func TestReplicatedSaveRestoreFsck(t *testing.T) {
	dir := t.TempDir()
	grd := filepath.Join(dir, "temperature.grd")
	if err := run([]string{"gen", "-out", grd, "-shape", "48x12x2", "-steps", "2", "-var", "temperature"}); err != nil {
		t.Fatal(err)
	}
	ckptDir := filepath.Join(dir, "ckpts")
	repl := []string{"-replicas", "3", "-quorum", "2"}
	save := append([]string{"save", "-dir", ckptDir, "-in", grd, "-codec", "none", "-step", "1"}, repl...)
	if err := run(save); err != nil {
		t.Fatalf("replicated save: %v", err)
	}
	// Every replica holds the generation.
	for i := 0; i < 3; i++ {
		p := filepath.Join(ckptDir, fmt.Sprintf("r%d", i), "gen-00000001.ckpt")
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("replica %d missing its copy: %v", i, err)
		}
	}
	// A node loses its copy; quorum restore must still succeed.
	if err := os.Remove(filepath.Join(ckptDir, "r1", "gen-00000001.ckpt")); err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(dir, "restored")
	restore := append([]string{"restore", "-dir", ckptDir, "-out", outDir}, repl...)
	if err := run(restore); err != nil {
		t.Fatalf("replicated restore with one lost copy: %v", err)
	}
	orig, err := os.ReadFile(grd)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(outDir, "temperature.grd"))
	if err != nil {
		t.Fatal(err)
	}
	if string(orig) != string(got) {
		t.Error("replicated restore differs from original field")
	}
	// fsck heals whatever read-repair has not already fixed; a second
	// fsck must then find the fleet clean.
	fsck := append([]string{"fsck", "-dir", ckptDir}, repl...)
	_ = run(fsck) // may exit non-zero while reporting the healing
	if err := run(fsck); err != nil {
		t.Fatalf("fsck after healing: %v", err)
	}
	// The healed copy is byte-identical to its peers.
	want, err := os.ReadFile(filepath.Join(ckptDir, "r0", "gen-00000001.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	healed, err := os.ReadFile(filepath.Join(ckptDir, "r1", "gen-00000001.ckpt"))
	if err != nil {
		t.Fatalf("replica 1 not healed: %v", err)
	}
	if string(want) != string(healed) {
		t.Error("healed replica differs from its peers")
	}
}

// TestObjectBackendCLI saves and restores through the object-store
// backend (pointer-swap commit, no renames).
func TestObjectBackendCLI(t *testing.T) {
	dir := t.TempDir()
	grd := filepath.Join(dir, "pressure.grd")
	if err := run([]string{"gen", "-out", grd, "-shape", "48x12x2", "-steps", "2", "-var", "pressure"}); err != nil {
		t.Fatal(err)
	}
	ckptDir := filepath.Join(dir, "ckpts")
	if err := run([]string{"save", "-dir", ckptDir, "-in", grd, "-codec", "none", "-backend", "object"}); err != nil {
		t.Fatalf("object save: %v", err)
	}
	if _, err := os.Stat(filepath.Join(ckptDir, "CURRENT")); err != nil {
		t.Fatalf("object backend wrote no pointer record: %v", err)
	}
	outDir := filepath.Join(dir, "restored")
	if err := run([]string{"restore", "-dir", ckptDir, "-out", outDir, "-backend", "object"}); err != nil {
		t.Fatalf("object restore: %v", err)
	}
	orig, _ := os.ReadFile(grd)
	got, err := os.ReadFile(filepath.Join(outDir, "pressure.grd"))
	if err != nil {
		t.Fatal(err)
	}
	if string(orig) != string(got) {
		t.Error("object-backend restore differs from original field")
	}
	if err := run([]string{"fsck", "-dir", ckptDir, "-backend", "object"}); err != nil {
		t.Fatalf("object fsck: %v", err)
	}
}

// TestStoreFlagsValidation rejects nonsense topology flags.
func TestStoreFlagsValidation(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{"fsck", "-dir", dir, "-replicas", "0"},
		{"fsck", "-dir", dir, "-replicas", "3", "-quorum", "4"},
		{"fsck", "-dir", dir, "-backend", "s3"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestSaveDedupRoundTripAndFsck: -dedup stores generations as chunk
// recipes, restores stay bit-exact, and fsck's chunk audit passes.
func TestSaveDedupRoundTripAndFsck(t *testing.T) {
	dir := t.TempDir()
	grd := filepath.Join(dir, "pressure.grd")
	if err := run([]string{"gen", "-out", grd, "-shape", "64x16x2", "-steps", "3", "-var", "pressure"}); err != nil {
		t.Fatal(err)
	}
	ckptDir := filepath.Join(dir, "ckpts")
	for step := 1; step <= 3; step++ {
		if err := run([]string{"save", "-dir", ckptDir, "-in", grd, "-keep", "-1",
			"-codec", "none", "-dedup", "-step", fmt.Sprint(step)}); err != nil {
			t.Fatalf("dedup save %d: %v", step, err)
		}
	}
	// Generations live as recipes next to a chunk directory.
	if fi, err := os.Stat(filepath.Join(ckptDir, "cas")); err != nil || !fi.IsDir() {
		t.Fatalf("dedup store has no cas/ chunk directory: %v", err)
	}
	outDir := filepath.Join(dir, "restored")
	if err := run([]string{"restore", "-dir", ckptDir, "-out", outDir}); err != nil {
		t.Fatalf("restore: %v", err)
	}
	orig, err := os.ReadFile(grd)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(outDir, "pressure.grd"))
	if err != nil {
		t.Fatal(err)
	}
	if string(orig) != string(got) {
		t.Error("dedup round trip differs from original field")
	}
	if err := run([]string{"fsck", "-dir", ckptDir}); err != nil {
		t.Fatalf("fsck on dedup store: %v", err)
	}
}
