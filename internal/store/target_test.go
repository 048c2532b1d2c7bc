package store

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestOpenTargetTopologies: the one opener decides single root versus
// replica set and rejects every out-of-range topology before touching disk.
func TestOpenTargetTopologies(t *testing.T) {
	cases := []struct {
		replicas, quorum int
		wantReplicas     int // 0 = rejected
		wantQuorum       int
	}{
		{replicas: 1, quorum: 0, wantReplicas: 1},
		{replicas: 1, quorum: 1, wantReplicas: 1},
		{replicas: 3, quorum: 0, wantReplicas: 3, wantQuorum: 2}, // majority
		{replicas: 3, quorum: 3, wantReplicas: 3, wantQuorum: 3},
		{replicas: 2, quorum: 1, wantReplicas: 2, wantQuorum: 1},
		{replicas: 0, quorum: 0},
		{replicas: -1, quorum: 0},
		{replicas: 1, quorum: 2},
		{replicas: 3, quorum: 4},
		{replicas: 3, quorum: -1},
	}
	for _, tc := range cases {
		dir := filepath.Join(t.TempDir(), "st")
		st, err := OpenTarget(dir, tc.replicas, tc.quorum, Options{})
		if tc.wantReplicas == 0 {
			if err == nil || st != nil {
				t.Errorf("replicas %d quorum %d: opened %v, want an error and a nil Target", tc.replicas, tc.quorum, st)
			}
			if _, serr := os.Stat(dir); serr == nil {
				t.Errorf("replicas %d quorum %d: rejected topology left %s behind", tc.replicas, tc.quorum, dir)
			}
			continue
		}
		if err != nil {
			t.Errorf("replicas %d quorum %d: %v", tc.replicas, tc.quorum, err)
			continue
		}
		switch s := st.(type) {
		case *Store:
			if tc.wantReplicas != 1 || s.Dir() != dir {
				t.Errorf("replicas %d: got a single root at %s", tc.replicas, s.Dir())
			}
		case *ReplicatedStore:
			if s.Replicas() != tc.wantReplicas || s.Quorum() != tc.wantQuorum {
				t.Errorf("replicas %d quorum %d: got %d-way, write quorum %d", tc.replicas, tc.quorum, s.Replicas(), s.Quorum())
			}
		}
		if _, err := st.CommitStreamCtx(context.Background(), 1, func(w io.Writer) error {
			_, err := w.Write([]byte("payload"))
			return err
		}); err != nil {
			t.Errorf("replicas %d quorum %d: commit: %v", tc.replicas, tc.quorum, err)
		}
		st.Wait()
		if ds := st.DedupStats(); ds.Enabled {
			t.Errorf("replicas %d: dedup reported enabled on a plain target", tc.replicas)
		}
	}
}
