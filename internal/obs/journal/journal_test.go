package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lossyckpt/internal/obs"
)

func openTest(t *testing.T, opt Options) (*Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := Open(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, path
}

// TestBeginEndRoundTrip: one op's begin/end pair replays into a single
// complete root with its attributes, stages, and bytes intact.
func TestBeginEndRoundTrip(t *testing.T) {
	j, path := openTest(t, Options{})
	op := j.Begin(nil, "ckpt.checkpoint", "codec", "lossy")
	op.SetStep(7)
	op.SetBytes(1000, 250)
	op.Stage("transform", 3*time.Millisecond)
	op.Stage("transform", 2*time.Millisecond) // accumulates
	op.Entry(Entry{Var: "temp", BytesIn: 1000, BytesOut: 250, Codec: "lz4+shuffle", Divisions: 128})
	op.End(nil)

	recs, torn, err := ReadFile(path)
	if err != nil || torn {
		t.Fatalf("read: err=%v torn=%v", err, torn)
	}
	roots := Replay(recs)
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	r := roots[0]
	if !r.Complete || r.Err != "" || r.Step != 7 || r.BytesIn != 1000 || r.BytesOut != 250 {
		t.Fatalf("bad root state: %+v", r)
	}
	if got := r.Stages["transform"]; got < 0.004 || got > 0.006 {
		t.Fatalf("transform stage = %v, want ~0.005", got)
	}
	if len(r.Entries) != 1 || r.Entries[0].Codec != "lz4+shuffle" {
		t.Fatalf("entries: %+v", r.Entries)
	}
}

// TestParentPropagation: ops begun while a root is active become its
// children in the replayed tree; notes attach the same way.
func TestParentPropagation(t *testing.T) {
	j, path := openTest(t, Options{})
	root := j.Begin(nil, "ckpt.checkpoint")
	child := j.Begin(nil, "store.commit")
	child.Vote("0", true, nil)
	child.Vote("1", false, errors.New("disk gone"))
	child.End(nil)
	j.Note(nil, "guard.escalate", "var", "temp", "why", "bound violated")
	root.End(nil)

	recs, _, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	roots := Replay(recs)
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1 (children should nest)", len(roots))
	}
	r := roots[0]
	if len(r.Children) != 1 || r.Children[0].Op != "store.commit" {
		t.Fatalf("children: %+v", r.Children)
	}
	votes := r.Children[0].Votes
	if len(votes) != 2 || votes[0].OK != true || votes[1].OK != false || votes[1].Err == "" {
		t.Fatalf("votes: %+v", votes)
	}
	if len(r.Notes) != 1 || r.Notes[0].Op != "guard.escalate" {
		t.Fatalf("notes: %+v", r.Notes)
	}
	// After the root ends, new ops are roots again.
	j.Begin(nil, "ckpt.restore").End(nil)
	recs, _, _ = ReadFile(path)
	if got := len(Replay(recs)); got != 2 {
		t.Fatalf("roots after second op = %d, want 2", got)
	}
}

// TestIncompleteOpSurvivesKill: an op begun but never ended — the
// kill-mid-checkpoint shape — replays as incomplete, carrying the last
// Progress breadcrumb (stage reached, bytes committed).
func TestIncompleteOpSurvivesKill(t *testing.T) {
	j, path := openTest(t, Options{})
	op := j.Begin(nil, "ckpt.checkpoint", "mode", "stream")
	op.Progress("entry:temperature", 4096)
	op.Progress("payload_streamed", 9000)
	// no End: simulated kill

	recs, torn, err := ReadFile(path)
	if err != nil || torn {
		t.Fatalf("read: err=%v torn=%v", err, torn)
	}
	roots := Replay(recs)
	if len(roots) != 1 || roots[0].Complete {
		t.Fatalf("want one incomplete root, got %+v", roots)
	}
	if roots[0].LastStage != "payload_streamed" || roots[0].LastBytes != 9000 {
		t.Fatalf("last breadcrumb: stage=%q bytes=%d", roots[0].LastStage, roots[0].LastBytes)
	}
	inc := Incomplete(roots)
	if len(inc) != 1 || inc[0].Op != "ckpt.checkpoint" {
		t.Fatalf("incomplete: %+v", inc)
	}
}

// TestTornTailRecovered: a truncated final line must not poison replay —
// the reader drops it and reports torn=true.
func TestTornTailRecovered(t *testing.T) {
	j, path := openTest(t, Options{})
	j.Begin(nil, "ckpt.checkpoint").End(nil)
	j.Begin(nil, "ckpt.restore").End(nil)
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record mid-JSON.
	torn := data[:len(data)-15]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, wasTorn, err := ReadFile(path)
	if err != nil {
		t.Fatalf("torn tail must not error: %v", err)
	}
	if !wasTorn {
		t.Fatal("torn=false for a truncated final line")
	}
	roots := Replay(recs)
	if len(roots) != 2 {
		t.Fatalf("roots = %d, want 2 (checkpoint complete, restore's end lost)", len(roots))
	}
	if !roots[0].Complete {
		t.Fatal("first op lost despite living before the tear")
	}
}

// TestCorruptMiddleRejected: a malformed line with records after it is
// real corruption, not a torn tail.
func TestCorruptMiddleRejected(t *testing.T) {
	j, path := openTest(t, Options{})
	j.Begin(nil, "a").End(nil)
	j.Close()

	data, _ := os.ReadFile(path)
	bad := []byte("{broken\n")
	mixed := append(bad, data...)
	if err := os.WriteFile(path, mixed, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFile(path); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

// TestRotation: exceeding MaxBytes rotates path → path.1 → …, keeping
// at most MaxFiles rotated generations, and ReadAll stitches them back
// oldest-first.
func TestRotation(t *testing.T) {
	j, path := openTest(t, Options{MaxBytes: 2048, MaxFiles: 3})
	for i := 0; i < 200; i++ {
		op := j.Begin(nil, "ckpt.checkpoint", "round", fmt.Sprint(i))
		op.SetStep(i)
		op.End(nil)
	}
	j.Close()

	rotated := RotatedSet(path, DefaultMaxFiles+2)
	if len(rotated) < 2 {
		t.Fatalf("no rotation happened: %v", rotated)
	}
	for _, p := range rotated {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("rotated file %s: %v", p, err)
		}
		if fi.Size() > 2048+int64(DefaultMaxRecordBytes) {
			t.Fatalf("%s is %d bytes, far over the cap", p, fi.Size())
		}
	}
	if extra := filepath.Join(path + ".4"); fileExists(extra) {
		t.Fatalf("%s exists; MaxFiles=3 not enforced", extra)
	}

	recs, _, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 10 {
		t.Fatalf("ReadAll returned %d records", len(recs))
	}
	// Steps must be non-decreasing across the stitched files.
	last := -1
	for _, r := range recs {
		if r.Phase != "end" {
			continue
		}
		if r.Step < last {
			t.Fatalf("records out of order: step %d after %d", r.Step, last)
		}
		last = r.Step
	}
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// TestOversizedRecordDropped: a record bigger than MaxRecordBytes is
// dropped rather than written or fatal.
func TestOversizedRecordDropped(t *testing.T) {
	j, path := openTest(t, Options{MaxRecordBytes: 512})
	op := j.Begin(nil, "ckpt.checkpoint")
	op.Set("blob", strings.Repeat("x", 4096))
	op.End(nil)
	j.Begin(nil, "ckpt.restore").End(nil)

	recs, _, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Phase == "end" && r.Op == "ckpt.checkpoint" {
			t.Fatal("oversized end record was written")
		}
	}
	// The journal stays usable.
	found := false
	for _, r := range recs {
		if r.Op == "ckpt.restore" && r.Phase == "end" {
			found = true
		}
	}
	if !found {
		t.Fatal("journal unusable after oversized drop")
	}
}

// TestNilSafety: a nil journal and its nil ops are inert no-ops.
func TestNilSafety(t *testing.T) {
	var j *Journal
	op := j.Begin(nil, "anything")
	op.Set("k", "v")
	op.SetBytes(1, 2)
	op.Stage("s", time.Second)
	op.Entry(Entry{Var: "x"})
	op.Vote("0", true, nil)
	op.Progress("p", 3)
	op.End(errors.New("ignored"))
	j.Note(nil, "note")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentVotesAfterEnd: straggler goroutines voting after End —
// the replicated store's quorum drain shape — must not race or corrupt
// the record. Run under -race.
func TestConcurrentVotesAfterEnd(t *testing.T) {
	j, path := openTest(t, Options{})
	op := j.Begin(nil, "store.quorum_commit")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			op.Vote(fmt.Sprint(i), i%2 == 0, nil)
			op.Stage("replica", time.Millisecond)
		}(i)
		if i == 3 {
			op.End(nil) // quorum reached early; stragglers keep calling
		}
	}
	wg.Wait()
	op.End(errors.New("second End must be a no-op"))

	recs, _, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := 0
	for _, r := range recs {
		if r.Phase == "end" {
			ends++
			if r.Err != "" {
				t.Fatalf("second End overwrote the first: %+v", r)
			}
		}
	}
	if ends != 1 {
		t.Fatalf("end records = %d, want 1", ends)
	}
}

// TestConcurrentOps: many goroutines journaling distinct ops at once is
// safe and loses nothing. Run under -race.
func TestConcurrentOps(t *testing.T) {
	j, path := openTest(t, Options{MaxBytes: 1 << 20})
	var wg sync.WaitGroup
	const n = 32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			op := j.Begin(nil, "ckpt.checkpoint", "worker", fmt.Sprint(i))
			op.SetStep(i)
			op.Stage("transform", time.Microsecond)
			op.End(nil)
		}(i)
	}
	wg.Wait()

	recs, _, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := 0
	for _, r := range recs {
		if r.Phase == "end" {
			ends++
		}
	}
	if ends != n {
		t.Fatalf("end records = %d, want %d", ends, n)
	}
}

// TestSetDefault: SetDefault installs the process journal and hands back the
// one it replaced; the package-level Begin and Note record on it and on the
// process registry, and with neither installed they are no-ops.
func TestSetDefault(t *testing.T) {
	j, path := openTest(t, Options{})
	reg := obs.NewRegistry()
	defer obs.SetDefault(obs.SetDefault(reg))
	if prev := SetDefault(j); prev != nil {
		t.Fatalf("a default was installed before the test: %v", prev.Path())
	}
	if Default() != j {
		t.Fatal("SetDefault did not install the default")
	}
	Begin("store.commit", "seq", uint64(3)).End(nil)
	Note("tune.decision", "codec", "lz4")
	if prev := SetDefault(nil); prev != j {
		t.Fatal("SetDefault(nil) did not hand back the installed journal")
	}
	recs, _, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[1].Op != "store.commit" || recs[2].Op != "tune.decision" {
		t.Fatalf("records: %+v", recs)
	}
	if n := reg.Counter(SpanName("store.commit") + "_total").Value(); n != 1 {
		t.Fatalf("the process registry counted %v store.commit operations, want 1", n)
	}
	obs.SetDefault(nil)
	Begin("dropped").End(nil) // must not panic with nothing installed
	Note("dropped")
}

// TestSummarize: the journal summary counts ops, escalations, repairs,
// codec decisions and failed votes, and renders them as markdown.
func TestSummarize(t *testing.T) {
	j, path := openTest(t, Options{})
	root := j.Begin(nil, "ckpt.checkpoint")
	root.Entry(Entry{Var: "t", Codec: "gzip", Escalations: 2})
	q := j.Begin(nil, "store.quorum_commit")
	q.Vote("0", true, nil)
	q.Vote("1", false, errors.New("x"))
	q.End(nil)
	j.Note(nil, "store.read_repair", "replica", "1", "reason", "corrupt")
	j.Note(nil, "tune.decision", "codec", "lz4", "shuffle", "true")
	j.Note(nil, "guard.escalate", "var", "wind_u", "step", "choose_divisions", "why", "bound violated",
		"divisions", 255, "coeff_err", "3.5e-05", "target", "1.25e-05")
	root.End(nil)
	j.Begin(nil, "ckpt.restore") // left incomplete

	recs, torn, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(recs, torn, 5)
	if sum.Escalations != 2 {
		t.Errorf("escalations = %d, want 2", sum.Escalations)
	}
	if sum.Repairs != 1 {
		t.Errorf("repairs = %d, want 1", sum.Repairs)
	}
	if sum.FailedVotes != 1 {
		t.Errorf("failed votes = %d, want 1", sum.FailedVotes)
	}
	if sum.Codecs["gzip"] != 1 || sum.Codecs["lz4+shuffle"] != 1 {
		t.Errorf("codecs: %+v", sum.Codecs)
	}
	if len(sum.Incomplete) != 1 {
		t.Errorf("incomplete: %+v", sum.Incomplete)
	}
	var b strings.Builder
	if err := sum.WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ckpt.checkpoint", "lz4+shuffle", "Slowest",
		"| wind_u | choose_divisions | bound violated | 255 | 3.5e-05 | 1.25e-05 |"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}

// TestSummarizeServerRequests: server.* records break down by the
// outcome attribute — accepted requests, refusals by reason, and the
// deadline-exceeded count — and the markdown report shows the table.
func TestSummarizeServerRequests(t *testing.T) {
	j, path := openTest(t, Options{})
	for _, c := range []struct{ op, outcome string }{
		{"server.save", "ok"},
		{"server.save", "ok"},
		{"server.save", "overload"},
		{"server.save", "quota"},
		{"server.restore", "deadline"},
		{"server.inspect", "auth"},
	} {
		op := j.Begin(nil, c.op, "tenant", "alpha")
		op.Set("outcome", c.outcome)
		if c.outcome == "ok" {
			op.End(nil)
		} else {
			op.End(errors.New(c.outcome))
		}
	}

	recs, torn, err := ReadFile(path)
	if err != nil || torn {
		t.Fatalf("read: err=%v torn=%v", err, torn)
	}
	sum := Summarize(recs, torn, 5)
	if sum.ServerRequests != 6 {
		t.Errorf("server requests = %d, want 6", sum.ServerRequests)
	}
	want := map[string]int{"overload": 1, "quota": 1, "deadline": 1, "auth": 1}
	for reason, n := range want {
		if sum.Rejected[reason] != n {
			t.Errorf("rejected[%s] = %d, want %d", reason, sum.Rejected[reason], n)
		}
	}
	if len(sum.Rejected) != len(want) {
		t.Errorf("rejected map: %+v", sum.Rejected)
	}
	if sum.DeadlineExceeded != 1 {
		t.Errorf("deadline exceeded = %d, want 1", sum.DeadlineExceeded)
	}
	var b strings.Builder
	if err := sum.WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	for _, wantStr := range []string{"Daemon requests", "overload", "deadline-exceeded: 1"} {
		if !strings.Contains(b.String(), wantStr) {
			t.Errorf("markdown missing %q", wantStr)
		}
	}
}

// TestSummarizeJournalTornMidRequest: a daemon killed mid-request
// leaves a begin with no end plus a torn final line. Replay tolerates
// the tear and the summary lists the in-flight request as incomplete —
// the kill evidence an operator greps for.
func TestSummarizeJournalTornMidRequest(t *testing.T) {
	j, path := openTest(t, Options{})
	done := j.Begin(nil, "server.save", "tenant", "alpha")
	done.Set("outcome", "ok")
	done.End(nil)
	j.Begin(nil, "server.save", "tenant", "beta") // killed before End
	j.Close()

	// Simulate the kill tearing the final append mid-line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"torn","op":"server.res`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, torn, err := ReadFile(path)
	if err != nil {
		t.Fatalf("torn journal poisoned replay: %v", err)
	}
	if !torn {
		t.Fatal("tear not detected")
	}
	sum := Summarize(recs, torn, 5)
	if !sum.Torn {
		t.Error("summary does not flag the torn tail")
	}
	if sum.ServerRequests != 1 {
		t.Errorf("server requests = %d, want 1 (only the completed save)", sum.ServerRequests)
	}
	if len(sum.Incomplete) != 1 || sum.Incomplete[0].Op != "server.save" {
		t.Errorf("incomplete: %+v", sum.Incomplete)
	}
	var b strings.Builder
	if err := sum.WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	for _, wantStr := range []string{"torn tail", "incomplete operations: 1"} {
		if !strings.Contains(b.String(), wantStr) {
			t.Errorf("markdown missing %q", wantStr)
		}
	}
}
