package bipartite

import (
	"math"

	"repro/internal/graph"
)

// hopcroftKarpRescan is HopcroftKarpSeeded (HopcroftKarpScratch when seeds
// is nil) through the cursor-free greedy DFS: every DFS entry
// rescans the vertex's adjacency from the start instead of resuming from
// the per-phase cursor. It is the reference of Invariant 26: the
// TestIteratorDFS* differentials assert that both forms return the same
// matching and phase count, and BenchmarkHKRescanDFS is the denominator of
// the iterator-DFS gate. Arena set-up and result extraction are
// boundedHK's, so the two forms differ only in runLoop's rescan argument.
func hopcroftKarpRescan(b *Bip, s *Scratch, seeds []Seed) Result {
	if s == nil {
		s = NewScratch()
	}
	s.token = 0
	s.build(b, 0, 0)
	phases := s.runLoop(b, math.MaxInt32, seeds, true)
	m := new(graph.Matching)
	m.FillFromSolver(b.N, b.Side, s.matchL, s.matchR, s.matchEdge, b.Edges)
	return Result{M: m, Phases: phases}
}
