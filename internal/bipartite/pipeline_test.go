package bipartite_test

import (
	"math/rand"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/solvertest"
)

// core.ExactPhasedSolver and rescanFactory install the two DFS strategies,
// iterator and rescan, as phase-reporting solver factories, so the full
// reduction pipeline — bipartition draw, class sweep, every solve — runs
// once per strategy. A factory draws nothing from the Rng, so both runs
// see the same bipartitions. Both sides set a factory, which still matters:
// an installed solver turns the cross-class cache off, so a factory run is
// comparable call for call only with another factory run.
func rescanFactory() core.PhasedSolver {
	hk := bipartite.NewScratch()
	return func(b *bipartite.Bip) (*graph.Matching, int, error) {
		res := bipartite.HopcroftKarpRescan(b, hk, nil)
		return res.M, res.Phases, nil
	}
}

// TestIteratorDFSPipelineBitIdentical is the pipeline half of Invariant 26:
// the iterator-per-phase DFS must be bit-identical to the retained
// cursor-free reference through the WHOLE reduction — every generator
// family, the amortised pipeline on, Workers 1 and 4 — matching bytes,
// gain, phase counts, and solver-call counts all equal round by round.
// The solver-level halves (cold, seeded, arena-reuse) are this package's
// TestIteratorDFS* and TestFunnelBip; the delta / repair / cross-round /
// mutation / chaos suites re-assert the iterator path against their own
// references since the default solver now runs it. The test is external
// because core and solvertest import this package; it reaches the rescan
// form through export_test.go.
func TestIteratorDFSPipelineBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, w := range solvertest.Workloads(rand.New(rand.NewSource(26))) {
			sIter, sRef := solvertest.AssertBitIdentical(t, w,
				core.Options{Amortize: true, Workers: workers, PhasedSolverFactory: core.ExactPhasedSolver},
				core.Options{Amortize: true, Workers: workers, PhasedSolverFactory: rescanFactory},
				27, 5)
			if sIter.SolverPhases != sRef.SolverPhases {
				t.Errorf("%s workers %d: phases %d (iterator) vs %d (rescan)",
					w.Name, workers, sIter.SolverPhases, sRef.SolverPhases)
			}
			if sIter.SolverCalls != sRef.SolverCalls {
				t.Errorf("%s workers %d: solver calls %d (iterator) vs %d (rescan)",
					w.Name, workers, sIter.SolverCalls, sRef.SolverCalls)
			}
		}
	}
}
