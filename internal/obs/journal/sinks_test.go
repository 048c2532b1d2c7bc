package journal

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"lossyckpt/internal/obs"
)

// TestOpAndNoteFeedTheSinksThatAreSet: one Begin/End pair and one Note reach
// the journal as records and the registry as the span's series and two events
// in the tail, with one rendering of the attributes — under both sinks, under
// either alone, and under neither (a nil Op).
func TestOpAndNoteFeedTheSinksThatAreSet(t *testing.T) {
	for _, tc := range []struct {
		name     string
		reg, jnl bool
	}{{"both", true, true}, {"registry", true, false}, {"journal", false, true}, {"neither", false, false}} {
		t.Run(tc.name, func(t *testing.T) {
			var reg *obs.Registry
			var j *Journal
			var path string
			if tc.reg {
				reg = obs.NewRegistry()
			}
			if tc.jnl {
				j, path = openTest(t, Options{})
			}
			op := j.Begin(reg, "store.commit", "dir", "d", "bytes", 4096, "seq", uint64(7), "dedup", true)
			if (op != nil) != (tc.reg || tc.jnl) {
				t.Fatalf("Begin returned %v", op)
			}
			op.Set("chunks_new", 3)
			op.End(errors.New("disk gone"))
			op.End(nil) // a second End records nothing
			j.Note(reg, "store.sweep", "removed", int64(2))

			if tc.reg {
				if n := reg.Counter("lossyckpt_store_commit_total").Value(); n != 1 {
					t.Errorf("_total = %v, want 1", n)
				}
				if n := reg.Counter("lossyckpt_store_commit_errors_total").Value(); n != 1 {
					t.Errorf("_errors_total = %v, want 1", n)
				}
				if n := reg.Histogram("lossyckpt_store_commit_seconds", obs.DurationBuckets).Count(); n != 1 {
					t.Errorf("_seconds count = %v, want 1", n)
				}
				events, _ := reg.Events()
				if len(events) != 2 || events[0].Name != SpanName("store.commit") || events[1].Name != "store.sweep" {
					t.Fatalf("tail: %+v", events)
				}
				want := []string{"dir", "d", "bytes", "4096", "seq", "7", "dedup", "true"}
				if got := events[0].Attrs; !slices.Equal(got[:len(want)], want) || !slices.Contains(got, "disk gone") {
					t.Errorf("span event attrs %v, want %v and the error", got, want)
				}
				if got := events[1].Attrs; !slices.Equal(got, []string{"removed", "2"}) {
					t.Errorf("note event attrs %v", got)
				}
			}
			if tc.jnl {
				recs, _, err := ReadFile(path)
				if err != nil || len(recs) != 3 {
					t.Fatalf("records: %+v, err %v", recs, err)
				}
				end, note := recs[1], recs[2]
				if end.Phase != "end" || end.Op != "store.commit" || end.Err != "disk gone" ||
					end.Attrs["bytes"] != "4096" || end.Attrs["seq"] != "7" || end.Attrs["dedup"] != "true" || end.Attrs["chunks_new"] != "3" {
					t.Errorf("end record: %+v", end)
				}
				if note.Phase != "note" || note.Op != "store.sweep" || note.Attrs["removed"] != "2" {
					t.Errorf("note record: %+v", note)
				}
			}
		})
	}
	if got := attrString(time.Second); got != "!time.Duration" {
		t.Errorf("a value outside the closed set rendered as %q, want its type name", got)
	}
}

// The attribute values of TestNoSinkCostsNothing are variables so the compiler
// cannot fold them into static data: they are what a call site passes.
var (
	allocDir   = "ckpts/r0"
	allocBytes = 1 << 20
	allocSeq   = uint64(1) << 40
)

// TestNoSinkCostsNothing: with neither sink set, Begin, Set, End and Note
// allocate nothing — not the Op, not the attribute slice, not the boxed values
// — so no call site needs an "is anything listening" branch of its own.
func TestNoSinkCostsNothing(t *testing.T) {
	var j *Journal
	allocs := testing.AllocsPerRun(200, func() {
		op := j.Begin(nil, "store.commit", "dir", allocDir, "bytes", allocBytes, "seq", allocSeq, "dedup", allocBytes > 0)
		op.Set("chunks_new", allocBytes, "dir", allocDir)
		op.SetSeq(allocSeq)
		op.End(nil)
		j.Note(nil, "store.sweep", "dir", allocDir, "removed", allocBytes)
	})
	if allocs != 0 {
		t.Fatalf("Begin/Set/End/Note with no sink allocate %v times per run, want 0", allocs)
	}
}

// TestBrokenRotationRecovers: a rotation that cannot reopen the active file —
// here the journal's directory is gone — leaves the journal broken, not
// closed: every append retries the open, what is lost in between is counted,
// and once the directory is back the journal records again.
func TestBrokenRotationRecovers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "flight")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "run.jsonl")
	reg := obs.NewRegistry()
	defer obs.SetDefault(obs.SetDefault(reg))
	j, err := Open(path, Options{MaxBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.Note(nil, "before", "pad", strings.Repeat("x", 200))
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	j.Note(nil, "lost.rotating") // over MaxBytes: rotates, cannot reopen
	j.Note(nil, "lost.retrying")
	if n := reg.Counter(MetricDroppedRecords).Value(); n != 2 {
		t.Fatalf("%s = %v after two appends with no directory, want 2", MetricDroppedRecords, n)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	j.Note(nil, "after")
	recs, _, err := ReadFile(path)
	if err != nil || len(recs) != 1 || recs[0].Op != "after" {
		t.Fatalf("after the directory came back the journal holds %+v (err %v), want the one record appended since", recs, err)
	}
	if n := reg.Counter(MetricDroppedRecords).Value(); n != 2 {
		t.Fatalf("%s = %v, want 2: the append that recovered was not lost", MetricDroppedRecords, n)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j.Note(nil, "closed") // closed is not broken: no retry, no count
	if recs, _, _ = ReadFile(path); len(recs) != 1 || reg.Counter(MetricDroppedRecords).Value() != 2 {
		t.Fatalf("an append after Close wrote or counted: %+v", recs)
	}
}
