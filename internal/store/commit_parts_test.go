package store

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"lossyckpt/internal/cas"
	"lossyckpt/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/commit_journal.golden from the current commit path")

// journalPayloads are the commits whose filesystem operations
// testdata/commit_journal.golden pins: a plain payload of two full commitChunk
// blocks and a tail; a dedup payload under the default bounds, whose chunks
// run past one commitChunk block; and one under small bounds with a repeated
// region, so the same chunk turns up twice inside one commit.
func journalPayloads() []struct {
	name    string
	opts    Options
	payload []byte
} {
	small := genPayload(23, 96<<10)
	small = append(small, small[16<<10:48<<10]...)
	return []struct {
		name    string
		opts    Options
		payload []byte
	}{
		{"plain", Options{}, genPayload(21, 700_000)},
		{"dedup-default", Options{Dedup: true}, genPayload(22, 1_500_000)},
		{"dedup-small", Options{Dedup: true, DedupChunk: cas.Config{Min: 4 << 10, Avg: 16 << 10, Max: 64 << 10}}, small},
	}
}

// TestCommitJournalMatchesRecorded: the FaultFS journal of a plain and of two
// dedup commits — every operation's kind, target and write size, in order —
// is the one recorded from the commit path that staged every payload byte
// through a 256 KiB buffer per file. The crash matrices number their crash
// points by these operations.
func TestCommitJournalMatchesRecorded(t *testing.T) {
	var got strings.Builder
	for _, tc := range journalPayloads() {
		dir := t.TempDir()
		ffs := NewFaultFS(OsFS{})
		tc.opts.FS = ffs
		s := openTest(t, dir, tc.opts)
		before := len(ffs.Journal())
		if _, err := s.CommitCtx(context.Background(), 7, tc.payload); err != nil {
			t.Fatalf("%s: commit: %v", tc.name, err)
		}
		got.WriteString("# " + tc.name + "\n")
		for _, line := range ffs.Journal()[before:] {
			// "op 12: write 4096 bytes to <dir>/x": drop the op number's
			// offset (Open's own ops) and the temp dir.
			_, desc, _ := strings.Cut(line, ": ")
			desc = strings.ReplaceAll(desc, dir+string(filepath.Separator), "")
			got.WriteString(strings.ReplaceAll(desc, dir, ".") + "\n")
		}
	}
	golden := filepath.Join("testdata", "commit_journal.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("journal line %d: got %q, recorded %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("journal has %d lines, recorded %d", len(gl), len(wl))
	}
}

// storeImage is everything a commit leaves under a store root: file names
// (relative) to contents.
func storeImage(t *testing.T, root string) map[string]string {
	t.Helper()
	img := make(map[string]string)
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, rerr := os.ReadFile(path)
		rel, _ := filepath.Rel(root, path)
		img[rel] = string(data)
		return rerr
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestCommitPartsEqualsJoined: a payload committed as several slices yields
// the generation record, and the files — payload or recipe, chunk set,
// manifest — that the same bytes committed as one slice do, on a plain, a
// dedup and a replicated store, however the slices fall across chunk and
// block boundaries.
func TestCommitPartsEqualsJoined(t *testing.T) {
	payload := genPayload(31, 900<<10)
	splits := [][]int{
		{0},                            // an empty part first
		{1, 13},                        // a header-sized part, then the rest
		{300 << 10, 300<<10 + 1},       // a one-byte part mid-stream
		{commitChunk, 2 * commitChunk}, // parts that end on block boundaries
		{5000, 5001, 5002, 70000, 500000},
	}
	cut := func(at []int) [][]byte {
		var parts [][]byte
		prev := 0
		for _, a := range at {
			parts = append(parts, payload[prev:a])
			prev = a
		}
		return append(parts, payload[prev:])
	}
	ctx := context.Background()
	for _, mode := range []string{"plain", "dedup", "replicated", "replicated-dedup"} {
		t.Run(mode, func(t *testing.T) {
			opts := Options{}
			if strings.HasSuffix(mode, "dedup") {
				opts = dedupOpts()
			}
			open := func(dir string) (Target, func()) {
				if strings.HasPrefix(mode, "replicated") {
					r, err := OpenReplicated(dir, ReplicaDirs(dir, 3), 2, opts)
					if err != nil {
						t.Fatal(err)
					}
					return r, r.Wait
				}
				return openTest(t, dir, opts), func() {}
			}
			reg := obs.NewRegistry()
			defer obs.SetDefault(obs.SetDefault(reg))
			refDir := t.TempDir()
			ref, wait := open(refDir)
			wantGen, err := ref.CommitCtx(ctx, 3, payload)
			if err != nil {
				t.Fatal(err)
			}
			wait()
			// A buffered commit's span says how many bytes it was handed, on
			// one store and on every replica of three alike.
			spans := 0
			events, _ := reg.Events()
			for _, ev := range events {
				if ev.Name != MetricCommitSpan {
					continue
				}
				spans++
				if i := slices.Index(ev.Attrs, "bytes"); i < 0 || ev.Attrs[i+1] != fmt.Sprint(len(payload)) {
					t.Fatalf("commit span labelled %v, want bytes=%d", ev.Attrs, len(payload))
				}
			}
			if spans == 0 {
				t.Fatal("the commit recorded no span")
			}
			want := storeImage(t, refDir)
			for _, at := range splits {
				dir := t.TempDir()
				st, wait := open(dir)
				gen, err := st.CommitCtx(ctx, 3, cut(at)...)
				if err != nil {
					t.Fatalf("split %v: %v", at, err)
				}
				wait()
				if gen != wantGen {
					t.Fatalf("split %v: generation %+v, joined commit gave %+v", at, gen, wantGen)
				}
				if got := storeImage(t, dir); !reflect.DeepEqual(got, want) {
					var names []string
					for n := range got {
						names = append(names, n)
					}
					sort.Strings(names)
					t.Fatalf("split %v: store files differ from the joined commit's (%d vs %d files: %v)", at, len(got), len(want), names)
				}
				back, err := st.ReadGeneration(gen.Seq)
				if err != nil || !bytes.Equal(back, payload) {
					t.Fatalf("split %v: read back: %v, equal=%v", at, err, bytes.Equal(back, payload))
				}
			}
		})
	}
}
