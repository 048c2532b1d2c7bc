package obs_test

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lossyckpt/internal/obs"
	"lossyckpt/internal/obs/journal"
)

// TestSpanRecordsMetricsAndEvent: a timed operation — now a journal Op ended
// against a registry — records its count, its error count and its duration
// on the registry, and its completion, error included, as an end record.
func TestSpanRecordsMetricsAndEvent(t *testing.T) {
	r := obs.NewRegistry()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	sp := j.Begin(r, "store.commit", "gen", "3")
	time.Sleep(time.Millisecond)
	sp.End(nil)
	j.Begin(r, "store.commit").End(errors.New("disk on fire"))

	if got := r.Counter("lossyckpt_store_commit_total").Value(); got != 2 {
		t.Errorf("span total = %v, want 2", got)
	}
	if got := r.Counter("lossyckpt_store_commit_errors_total").Value(); got != 1 {
		t.Errorf("span errors = %v, want 1", got)
	}
	h := r.Histogram("lossyckpt_store_commit_seconds", obs.DurationBuckets)
	if h.Count() != 2 || h.Sum() <= 0 {
		t.Errorf("span histogram count=%d sum=%v", h.Count(), h.Sum())
	}

	recs, _, err := journal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ends []journal.Record
	for _, rec := range recs {
		if rec.Phase == "end" {
			ends = append(ends, rec)
		}
	}
	if len(ends) != 2 {
		t.Fatalf("end records = %d, want 2", len(ends))
	}
	if ends[0].Attrs["gen"] != "3" || ends[0].Err != "" {
		t.Errorf("first end record: %+v", ends[0])
	}
	if !strings.Contains(ends[1].Err, "disk") {
		t.Errorf("error missing from the failed operation's end record: %+v", ends[1])
	}
}
