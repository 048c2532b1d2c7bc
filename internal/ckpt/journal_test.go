// journal_test.go proves the flight-recorder acceptance bar: a
// checkpoint killed mid-operation must be fully reconstructable from
// the journal alone — the stage it reached, the bytes committed per
// replica, and every replica's vote outcome.
package ckpt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lossyckpt/internal/obs/journal"
	"lossyckpt/internal/store"
)

// TestJournalReconstructsKilledCheckpoint streams a checkpoint into a
// 3-replica store (one replica dead, quorum W=2), then emulates a
// process kill by tearing the journal mid-way through the root end
// record — exactly what a kill during the final append leaves behind.
// Replay must recover the last stage the checkpoint reached, the byte
// watermark, the per-replica commits, and all three quorum votes.
func TestJournalReconstructsKilledCheckpoint(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "flight.jsonl")
	j, err := journal.Open(jpath, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}

	lossy := NewLossy()
	m := NewManager(lossy, 1)
	registerSample(t, m)
	defer journal.SetDefault(journal.SetDefault(j))

	// Two healthy-but-slow replicas and one that is already dead: the
	// instant crash failure always reaches the quorum collector before
	// the two successes do, so the journal deterministically carries
	// all three vote outcomes (a straggler voting after quorum End is
	// dropped by design).
	slowA := store.NewFaultFS(store.OsFS{})
	slowB := store.NewFaultFS(store.OsFS{})
	dead := store.NewFaultFS(store.OsFS{})
	root := filepath.Join(dir, "store")
	rst, err := store.OpenReplicated(root, store.ReplicaDirs(root, 3), 2,
		store.Options{Sleep: func(time.Duration) {}},
		slowA, slowB, dead)
	if err != nil {
		t.Fatalf("OpenReplicated: %v", err)
	}
	slowA.SetOpDelay(2 * time.Millisecond)
	slowB.SetOpDelay(2 * time.Millisecond)
	dead.CrashNow()

	if _, _, err := m.CheckpointStreamTo(rst, 42); err != nil {
		t.Fatalf("checkpoint with one dead replica: %v", err)
	}
	rst.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Emulate the kill: cut the file mid-way through the root end
	// record, dropping anything after it.
	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	endIdx := -1
	for i, ln := range lines {
		if strings.Contains(ln, `"op":"ckpt.checkpoint"`) && strings.Contains(ln, `"phase":"end"`) {
			endIdx = i
		}
	}
	if endIdx < 0 {
		t.Fatalf("no ckpt.checkpoint end record in journal:\n%s", raw)
	}
	tornTail := lines[endIdx][:len(lines[endIdx])/2]
	tornFile := strings.Join(lines[:endIdx], "\n") + "\n" + tornTail
	if err := os.WriteFile(jpath, []byte(tornFile), 0o644); err != nil {
		t.Fatal(err)
	}

	recs, torn, err := journal.ReadAll(jpath)
	if err != nil {
		t.Fatalf("replaying torn journal: %v", err)
	}
	if !torn {
		t.Fatal("torn tail not detected")
	}

	roots := journal.Replay(recs)
	var ck *journal.OpState
	for _, r := range roots {
		if r.Op == "ckpt.checkpoint" {
			ck = r
		}
	}
	if ck == nil {
		t.Fatalf("no ckpt.checkpoint root among %d roots", len(roots))
	}
	if ck.Complete {
		t.Fatal("killed checkpoint replayed as complete")
	}
	inc := journal.Incomplete(roots)
	found := false
	for _, op := range inc {
		if op.ID == ck.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("killed checkpoint %s missing from Incomplete()", ck.ID)
	}

	// Stage reached: the per-entry progress breadcrumbs survive the
	// kill, so the furthest entry and its byte watermark are known.
	if !strings.HasPrefix(ck.LastStage, "entry:") {
		t.Fatalf("stage reached = %q, want entry:<var>", ck.LastStage)
	}
	if ck.LastBytes <= 0 {
		t.Fatalf("byte watermark = %d, want > 0", ck.LastBytes)
	}

	// Bytes committed: each replica's store.commit child carries the
	// durable byte count; the two live replicas completed theirs.
	var quorum *journal.OpState
	committed := 0
	for _, c := range ck.Children {
		switch c.Op {
		case "store.quorum_commit":
			quorum = c
		case "store.commit":
			if c.Complete && c.Err == "" {
				if c.BytesOut <= 0 {
					t.Errorf("completed replica commit %s has %d bytes", c.ID, c.BytesOut)
				}
				committed++
			}
		}
	}
	if committed != 2 {
		t.Errorf("completed replica commits = %d, want 2", committed)
	}

	// Replica votes: the quorum op ended before the kill, carrying one
	// failed vote (the dead replica) and two successes.
	if quorum == nil {
		t.Fatal("no store.quorum_commit child under the checkpoint op")
	}
	if !quorum.Complete || quorum.Err != "" {
		t.Fatalf("quorum op complete=%v err=%q", quorum.Complete, quorum.Err)
	}
	if len(quorum.Votes) != 3 {
		t.Fatalf("votes = %d, want 3: %+v", len(quorum.Votes), quorum.Votes)
	}
	ok, failed := 0, 0
	for _, v := range quorum.Votes {
		if v.OK {
			ok++
		} else {
			failed++
			if v.Err == "" {
				t.Errorf("failed vote from replica %s has no error", v.Replica)
			}
		}
	}
	if ok != 2 || failed != 1 {
		t.Fatalf("vote split ok=%d failed=%d, want 2/1", ok, failed)
	}
}

// TestJournalRecordsRestore: a restore through the store shows up as
// its own complete wide event with per-variable entries.
func TestJournalRecordsRestore(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "flight.jsonl")
	j, err := journal.Open(jpath, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}

	m := NewManager(NewLossy(), 1)
	fields := registerSample(t, m)
	defer journal.SetDefault(journal.SetDefault(j))
	st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.CheckpointStreamTo(st, 7); err != nil {
		t.Fatal(err)
	}
	for _, f := range fields {
		f.Fill(-1)
	}
	if _, err := m.RestoreLatest(st); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recs, torn, err := journal.ReadAll(jpath)
	if err != nil || torn {
		t.Fatalf("read: torn=%v err=%v", torn, err)
	}
	var restore *journal.OpState
	for _, r := range journal.Replay(recs) {
		if strings.HasPrefix(r.Op, "ckpt.restore") {
			restore = r
		}
	}
	if restore == nil {
		t.Fatal("no restore op in journal")
	}
	if !restore.Complete || restore.Err != "" {
		t.Fatalf("restore op complete=%v err=%q", restore.Complete, restore.Err)
	}
	if len(restore.Entries) != len(fields) {
		t.Fatalf("restore entries = %d, want %d", len(restore.Entries), len(fields))
	}
}
