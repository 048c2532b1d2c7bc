// summary.go condenses a journal into the questions an operator
// actually asks: what ran, what was slow, what escalated, what got
// repaired, and which codecs the tuner picked.
package journal

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// SlowOp is one entry of the top-N slowest listing.
type SlowOp struct {
	ID      string
	Op      string
	Step    int
	Seconds float64
	Err     string
}

// OpCount aggregates one operation type.
type OpCount struct {
	Op      string
	Count   int
	Errors  int
	Seconds float64
}

// Summary is the condensed view of a journal.
type Summary struct {
	Records     int
	Torn        bool
	Ops         []OpCount // sorted by count desc
	Slowest     []SlowOp  // top-N by duration
	Incomplete  []SlowOp  // began but never ended (kill evidence)
	Escalations int
	Repairs     int
	// Codecs counts codec decisions: tune picks and checkpoint entry
	// codecs, keyed by the codec label.
	Codecs map[string]int
	// FailedVotes counts per-replica commit votes that came back false.
	FailedVotes int
	// ServerRequests counts completed daemon requests (server.* ops).
	ServerRequests int
	// Rejected breaks refused daemon requests down by refusal reason
	// ("overload", "draining", "deadline", "quota", "auth", ...); the
	// outcome attr the server stamps on every request record.
	Rejected map[string]int
	// DeadlineExceeded counts daemon requests that ran out of deadline
	// (also present in Rejected under "deadline").
	DeadlineExceeded int
	// escalated holds the attributes of each guard.escalate note, in order.
	escalated []map[string]string
}

// Summarize builds a Summary over a record stream. topN bounds the
// slowest-operations listing (0 means 10).
func Summarize(recs []Record, torn bool, topN int) *Summary {
	if topN <= 0 {
		topN = 10
	}
	s := &Summary{Records: len(recs), Torn: torn, Codecs: map[string]int{}, Rejected: map[string]int{}}
	counts := map[string]*OpCount{}
	var ended []SlowOp
	begun := map[string]SlowOp{}
	// Escalations are visible twice: as guard.escalate notes written at
	// the moment of escalation, and as per-entry counts on the checkpoint
	// end record. Count each source separately and report the larger one
	// — notes survive a kill before the end record, the entry counts
	// survive when the notes went to a different journal.
	noteEsc, entryEsc := 0, 0
	for i := range recs {
		r := &recs[i]
		switch r.Phase {
		case "begin":
			begun[r.ID] = SlowOp{ID: r.ID, Op: r.Op}
		case "end":
			delete(begun, r.ID)
			c := counts[r.Op]
			if c == nil {
				c = &OpCount{Op: r.Op}
				counts[r.Op] = c
			}
			c.Count++
			c.Seconds += r.Seconds
			if r.Err != "" {
				c.Errors++
			}
			ended = append(ended, SlowOp{ID: r.ID, Op: r.Op, Step: r.Step, Seconds: r.Seconds, Err: r.Err})
			for _, e := range r.Entries {
				if e.Codec != "" {
					s.Codecs[e.Codec]++
				}
				entryEsc += e.Escalations
			}
			for _, v := range r.Votes {
				if !v.OK {
					s.FailedVotes++
				}
			}
			switch r.Op {
			case "store.read_repair":
				s.Repairs++
			}
			if strings.HasPrefix(r.Op, "server.") {
				s.ServerRequests++
				outcome := r.Attrs["outcome"]
				if outcome == "" && r.Err != "" {
					outcome = "error"
				}
				if outcome != "" && outcome != "ok" {
					s.Rejected[outcome]++
				}
				if outcome == "deadline" {
					s.DeadlineExceeded++
				}
			}
		case "note":
			c := counts[r.Op]
			if c == nil {
				c = &OpCount{Op: r.Op}
				counts[r.Op] = c
			}
			c.Count++
			switch r.Op {
			case "guard.escalate":
				noteEsc++
				s.escalated = append(s.escalated, r.Attrs)
			case "store.read_repair", "store.scrub_repair":
				s.Repairs++
			case "tune.decision":
				if codec := r.Attrs["codec"]; codec != "" {
					label := codec
					if r.Attrs["shuffle"] == "true" {
						label += "+shuffle"
					}
					s.Codecs[label]++
				}
			}
		}
	}
	s.Escalations = noteEsc
	if entryEsc > noteEsc {
		s.Escalations = entryEsc
	}
	for _, b := range begun {
		s.Incomplete = append(s.Incomplete, b)
	}
	sort.Slice(s.Incomplete, func(i, k int) bool { return s.Incomplete[i].ID < s.Incomplete[k].ID })
	sort.Slice(ended, func(i, k int) bool { return ended[i].Seconds > ended[k].Seconds })
	if len(ended) > topN {
		ended = ended[:topN]
	}
	s.Slowest = ended
	for _, c := range counts {
		s.Ops = append(s.Ops, *c)
	}
	sort.Slice(s.Ops, func(i, k int) bool {
		if s.Ops[i].Count != s.Ops[k].Count {
			return s.Ops[i].Count > s.Ops[k].Count
		}
		return s.Ops[i].Op < s.Ops[k].Op
	})
	return s
}

// WriteMarkdown renders the summary as a markdown report.
func (s *Summary) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	b.WriteString("# Journal summary\n\n")
	fmt.Fprintf(&b, "- records: %d\n", s.Records)
	if s.Torn {
		b.WriteString("- torn tail: yes (process killed mid-append; final record dropped)\n")
	}
	fmt.Fprintf(&b, "- guard escalations: %d\n", s.Escalations)
	fmt.Fprintf(&b, "- repairs (read-repair + scrub): %d\n", s.Repairs)
	fmt.Fprintf(&b, "- failed replica votes: %d\n", s.FailedVotes)
	if len(s.Incomplete) > 0 {
		fmt.Fprintf(&b, "- **incomplete operations: %d** (began, never ended)\n", len(s.Incomplete))
	}
	b.WriteString("\n## Operations\n\n| op | count | errors | total s |\n|---|---:|---:|---:|\n")
	for _, c := range s.Ops {
		fmt.Fprintf(&b, "| %s | %d | %d | %.4f |\n", c.Op, c.Count, c.Errors, c.Seconds)
	}
	if len(s.Slowest) > 0 {
		b.WriteString("\n## Slowest operations\n\n| id | op | step | seconds | err |\n|---|---|---:|---:|---|\n")
		for _, o := range s.Slowest {
			fmt.Fprintf(&b, "| %s | %s | %d | %.4f | %s |\n", o.ID, o.Op, o.Step, o.Seconds, o.Err)
		}
	}
	if len(s.Incomplete) > 0 {
		b.WriteString("\n## Incomplete operations\n\n| id | op |\n|---|---|\n")
		for _, o := range s.Incomplete {
			fmt.Fprintf(&b, "| %s | %s |\n", o.ID, o.Op)
		}
	}
	if len(s.escalated) > 0 {
		b.WriteString("\n## Guard escalations\n\n| var | step | why | divisions | coeff err | target |\n|---|---|---|---:|---:|---:|\n")
		for _, a := range s.escalated {
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s |\n", a["var"], a["step"], a["why"], a["divisions"], a["coeff_err"], a["target"])
		}
	}
	if s.ServerRequests > 0 || len(s.Rejected) > 0 {
		b.WriteString("\n## Daemon requests\n\n")
		fmt.Fprintf(&b, "- requests completed: %d\n", s.ServerRequests)
		fmt.Fprintf(&b, "- deadline-exceeded: %d\n", s.DeadlineExceeded)
		if len(s.Rejected) > 0 {
			keys := make([]string, 0, len(s.Rejected))
			for k := range s.Rejected {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			b.WriteString("\n| refusal | count |\n|---|---:|\n")
			for _, k := range keys {
				fmt.Fprintf(&b, "| %s | %d |\n", k, s.Rejected[k])
			}
		}
	}
	if len(s.Codecs) > 0 {
		keys := make([]string, 0, len(s.Codecs))
		for k := range s.Codecs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("\n## Codec decisions\n\n| codec | count |\n|---|---:|\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "| %s | %d |\n", k, s.Codecs[k])
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
