// sinks_test.go holds the one-front-door property: every operation and every
// single-shot fact reaches the journal and the registry through one Begin/End
// pair or one Note, so the two sinks cannot tell different stories — whichever
// of them is set.
package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"lossyckpt/internal/grid"
	"lossyckpt/internal/obs"
	"lossyckpt/internal/obs/journal"
	"lossyckpt/internal/stats"
	"lossyckpt/internal/store"
)

// sinkRun is what one pass of the scenario left in each sink: the names in the
// registry's tail, and the journal's records.
type sinkRun struct {
	reg  *obs.Registry
	tail []string
	recs []journal.Record
}

// journalNames lists what the journal says should be in the tail: an op by its
// span name once per end record, a note by its own name.
func (r *sinkRun) journalNames() (names []string) {
	for _, rec := range r.recs {
		switch rec.Phase {
		case "end":
			names = append(names, journal.SpanName(rec.Op))
		case "note":
			names = append(names, rec.Op)
		}
	}
	sort.Strings(names)
	return names
}

// runSinkScenario drives save → silent chunk damage on one replica → restore
// with read-repair → more damage → scrub with a quarantine and a heal →
// a buffered checkpoint restored leniently around a damaged frame, on an
// N=3/W=2 dedup store whose third replica suffers one injected write error.
// The sinks are the process defaults, as the CLI and the daemon install them,
// so the layers that are handed neither (FaultFS, the codecs) land there too.
func runSinkScenario(t *testing.T, withReg, withJournal bool) *sinkRun {
	t.Helper()
	run := &sinkRun{}
	dir := t.TempDir()
	jpath := filepath.Join(dir, "flight.jsonl")
	if withReg {
		run.reg = obs.NewRegistry()
		defer obs.SetDefault(obs.SetDefault(run.reg))
	}
	if withJournal {
		j, err := journal.Open(jpath, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		defer journal.SetDefault(journal.SetDefault(j))
	}

	flaky := store.NewFaultFS(store.OsFS{})
	flaky.FailAt(3, store.Fault{Kind: store.ErrorOnce})
	root := filepath.Join(dir, "store")
	rst, err := store.OpenReplicated(root, store.ReplicaDirs(root, 3), 2,
		store.Options{Dedup: true, Sleep: func(time.Duration) {}}, store.OsFS{}, store.OsFS{}, flaky)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(NewLossy(), 2)
	fields := registerSample(t, m)
	flat := grid.MustNew(16, 16) // reconstructs exactly: the quality pass notes it
	flat.Fill(3)
	if err := m.Register("flat", flat); err != nil {
		t.Fatal(err)
	}
	m.EnableQualityTelemetry(true)
	if _, _, err := m.CheckpointTo(rst, 1); err != nil {
		t.Fatal(err)
	}
	rst.Wait()
	want := fields["pressure"].Clone()

	damageChunk := func(replica string) {
		t.Helper()
		chunks, _ := filepath.Glob(filepath.Join(root, replica, "cas", "*.chk"))
		if len(chunks) == 0 {
			t.Fatalf("replica %s holds no chunk", replica)
		}
		data, err := os.ReadFile(chunks[0])
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(chunks[0], data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	damageChunk("r0")
	fields["pressure"].Fill(-1)
	if sr, err := m.RestoreLatest(rst); err != nil || sr.Partial {
		t.Fatalf("restore over a damaged replica: %+v, %v", sr, err)
	}
	if maxErr, err := stats.MaxAbsError(want.Data(), fields["pressure"].Data()); err != nil || maxErr > 0.5 {
		t.Fatalf("restore did not bring the saved state back: max error %v, %v", maxErr, err)
	}
	damageChunk("r1")
	if rep, err := rst.Scrub(store.ScrubOptions{}); err != nil || len(rep.Quarantined) == 0 {
		t.Fatalf("scrub over a damaged replica: %+v, %v", rep, err)
	}

	var buf bytes.Buffer
	if _, err := m.Checkpoint(&buf, 2); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	stream[len(stream)-8] ^= 0x01 // inside the last entry's payload: its CRC fails
	if _, skipped, err := m.RestorePartial(bytes.NewReader(stream)); err != nil || len(skipped) != 1 {
		t.Fatalf("lenient restore around a damaged frame: skipped %v, %v", skipped, err)
	}

	if withReg {
		events, dropped := run.reg.Events()
		if dropped != 0 {
			t.Fatalf("the tail dropped %d events: the scenario outgrew the ring", dropped)
		}
		for _, ev := range events {
			run.tail = append(run.tail, ev.Name)
		}
		sort.Strings(run.tail)
	}
	if withJournal {
		journal.Default().Close()
		var torn bool
		if run.recs, torn, err = journal.ReadAll(jpath); err != nil || torn {
			t.Fatalf("journal: torn=%v err=%v", torn, err)
		}
	}
	return run
}

// TestSinkMatrix runs the scenario under both sinks, each alone, and neither.
func TestSinkMatrix(t *testing.T) {
	both := runSinkScenario(t, true, true)

	// Same facts in both sinks: every op that ended and every note is in
	// the tail under the name the journal gives it, and nothing else is.
	names := both.journalNames()
	if !slices.Equal(both.tail, names) {
		t.Fatalf("the registry's tail and the journal disagree:\ntail    %v\njournal %v", both.tail, names)
	}
	// The span series are the journal's end records, counted.
	ended, failed := map[string]float64{}, map[string]float64{}
	noted := map[string]journal.Record{}
	for _, rec := range both.recs {
		switch rec.Phase {
		case "end":
			ended[rec.Op]++
			if rec.Err != "" {
				failed[rec.Op]++
			}
		case "note":
			noted[rec.Op] = rec
		}
	}
	for _, op := range []string{"ckpt.checkpoint", "ckpt.restore", "store.quorum_commit", "store.commit", "store.scrub", "store.gc"} {
		if ended[op] == 0 {
			t.Errorf("the scenario ended no %s", op)
		}
	}
	for op, n := range ended {
		span := journal.SpanName(op)
		if got := both.reg.Counter(span + "_total").Value(); got != n {
			t.Errorf("%s_total = %v, the journal holds %v end records of %s", span, got, n, op)
		}
		if got := both.reg.Counter(span + "_errors_total").Value(); got != failed[op] {
			t.Errorf("%s_errors_total = %v, the journal holds %v failed %s", span, got, failed[op], op)
		}
		if got := both.reg.Histogram(span+"_seconds", obs.DurationBuckets).Count(); float64(got) != n {
			t.Errorf("%s_seconds counts %v, want %v", span, got, n)
		}
	}
	// One call, one operation: the save into the store and the restore
	// that walked it each count once, whatever they wrapped.
	if ended["ckpt.checkpoint"] != 2 || ended["ckpt.restore"] != 2 {
		t.Errorf("ckpt.checkpoint ended %v times and ckpt.restore %v, want 2 and 2", ended["ckpt.checkpoint"], ended["ckpt.restore"])
	}
	// What only the in-memory ring used to hold is on record now, with
	// the attributes a post-mortem asks for.
	for _, fact := range []string{"store.manifest_rebuilt", "faultfs.injected", "store.replica_read_failed",
		"store.read_repair", "store.scrub_quarantined", "store.scrub_repair", "ckpt.partial_restore", "ckpt.quality_exact"} {
		if _, ok := noted[fact]; !ok {
			t.Errorf("the journal holds no %s note", fact)
		}
	}
	if q := noted["store.scrub_quarantined"]; q.Attrs["seq"] != "1" || q.Attrs["reason"] == "" || q.Attrs["path"] == "" {
		t.Errorf("the quarantine note does not say which generation, why and where to: %v", q.Attrs)
	}
	if f := noted["store.replica_read_failed"]; f.Attrs["replica"] != "0" || f.Attrs["seq"] != "1" {
		t.Errorf("the failed read note does not name replica 0, generation 1: %v", f.Attrs)
	}

	// Either sink alone shows what it showed beside the other.
	if tail := runSinkScenario(t, true, false).tail; !slices.Equal(tail, both.tail) {
		t.Errorf("registry alone:\ntail %v\nwant %v", tail, both.tail)
	}
	if alone := runSinkScenario(t, false, true).journalNames(); !slices.Equal(alone, names) {
		t.Errorf("journal alone:\nrecords %v\nwant    %v", alone, names)
	}

	// Neither: the scenario runs the same, and the front door costs nothing.
	runSinkScenario(t, false, false)
	m := NewManager(NewLossy(), 1)
	step, dir := 720, t.TempDir()
	if allocs := testing.AllocsPerRun(100, func() {
		op := journal.Begin("ckpt.checkpoint", "codec", m.codec.Name(), "mode", "stream")
		op.SetStep(step)
		op.Set("entries_reused", step)
		journal.Note("ckpt.store_fallback", "gen", uint64(step), "reason", dir)
		op.End(nil)
	}); allocs != 0 {
		t.Errorf("with no sink set Begin/Note/End allocate %v times, want 0", allocs)
	}
}
