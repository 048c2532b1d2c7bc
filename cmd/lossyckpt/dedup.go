// dedup.go: CLI surfaces for the content-addressed chunk store —
// per-save dedup accounting and the fsck-time chunk audit.
package main

import (
	"fmt"

	"lossyckpt/internal/store"
)

// printDedupStats reports the store's dedup accounting after a save.
func printDedupStats(st store.Target) {
	d := st.DedupStats()
	fmt.Printf("dedup: %d recipe generation(s), %d logical bytes as %d recipe + %d chunk bytes (%d chunks, ratio %.2fx)\n",
		d.DedupGens, d.LogicalBytes, d.RecipeBytes, d.ChunkBytes, d.Chunks, d.Ratio())
	fmt.Printf("physical occupancy: %d bytes\n", st.PhysicalBytes())
}

// fsckDedup audits the chunk layer of every underlying single-root
// store (each replica holds its own chunk population) and prints any
// inconsistencies. It returns whether issues were found.
func fsckDedup(st store.Target) (bad bool, err error) {
	audit := func(label string, s *store.Store) error {
		rep, err := s.FsckDedup()
		if err != nil {
			return err
		}
		if rep.DedupGens == 0 && len(rep.Issues) == 0 {
			return nil
		}
		fmt.Printf("%schunk audit: %d recipe generation(s), %d chunk(s) checked\n",
			label, rep.DedupGens, rep.ChunksChecked)
		for _, is := range rep.Issues {
			switch is.Kind {
			case "recipe":
				bad = true
				fmt.Printf("%s  generation %d: recipe unreadable: %s\n", label, is.Seq, is.Detail)
			case "orphan":
				// Transient between a crash and the next GC — report, not fail.
				fmt.Printf("%s  chunk %s: orphaned (pending GC)\n", label, is.Hash)
			default:
				bad = true
				fmt.Printf("%s  chunk %s (%s): %s\n", label, is.Hash, is.Kind, is.Detail)
			}
		}
		return nil
	}
	switch s := st.(type) {
	case *store.Store:
		if err := audit("", s); err != nil {
			return bad, err
		}
	case *store.ReplicatedStore:
		for i := 0; i < s.Replicas(); i++ {
			r, err := s.Replica(i)
			if err != nil || r == nil {
				continue
			}
			if err := audit(fmt.Sprintf("replica %d: ", i), r); err != nil {
				return bad, err
			}
		}
	}
	return bad, nil
}
