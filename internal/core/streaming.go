package core

import (
	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/stream"
)

// StreamingOptions configures SolveStreaming, the Theorem 1.2(2) driver.
type StreamingOptions struct {
	// Core carries the reduction parameters. Its PhasedSolverFactory and
	// Workers are ignored: the driver installs the streaming bipartite
	// solver, whose pass ledger is shared by every instance, and so runs
	// the class sweep sequentially.
	Core Options
	// Delta is the (1−δ) target handed to the unweighted streaming
	// subroutine. Default 0.2.
	Delta float64
	// Account, when non-nil, is the resource-accounting authority handed to
	// every subroutine instance; each instance's holds are balanced at its
	// exit so Peak meters the largest single instance.
	Account *stream.Accountant
}

// StreamingResult reports the matching with the pass accounting of the
// multi-pass streaming model.
type StreamingResult struct {
	M     *graph.Matching
	Stats Stats
	// TotalPasses is the number of passes over the input stream: per
	// reduction round, all (W, τ-pair) subroutine instances run in
	// parallel on the same passes (as in the paper), so a round costs one
	// bucketing pass plus the maximum pass count over its instances.
	TotalPasses int
	// MaxRoundPasses is the most passes any single round needed; the
	// O_ε(U_S) claim of Theorem 1.2(2) is about this quantity.
	MaxRoundPasses int
	// SubroutinePasses is the maximum pass count of any single
	// Unw-Bip-Matching instance (the U_S of the theorem).
	SubroutinePasses int
	// PeakStored is the peak word count held by any subroutine instance.
	PeakStored int
}

// SolveStreaming runs the reduction in the multi-pass semi-streaming model:
// the unweighted subroutine is the layer-growing streaming matcher of
// internal/bipartite, every instance's stream is the τ-filtered projection
// of the input stream (consumed in parallel across instances, so passes are
// counted as the per-round maximum), and rounds repeat until the gain
// stalls, as in Solve.
func SolveStreaming(g *graph.Graph, initial *graph.Matching, opts StreamingOptions) (StreamingResult, error) {
	if opts.Delta <= 0 || opts.Delta > 1 {
		opts.Delta = 0.2
	}
	res := StreamingResult{}
	roundPasses := 0
	scratch := &bipartite.StreamScratch{}
	solver := func(b *bipartite.Bip) (*graph.Matching, int, error) {
		// In the model, this instance reads the global stream and keeps
		// only its layered edges; the SliceStream below is that filtered
		// view, and its pass count is the instance's pass count over the
		// global stream. Instances share one scratch arena (they run
		// sequentially here even though the model charges them as parallel).
		// The matcher's cost is passes, not phases, so it reports 0 phases.
		s := stream.FromEdges(b.Edges)
		sr := bipartite.Streaming(b.N, b.Side, s, opts.Delta, bipartite.StreamOptions{
			Account: opts.Account,
			Scratch: scratch,
		})
		roundPasses = max(roundPasses, sr.Passes)
		res.SubroutinePasses = max(res.SubroutinePasses, sr.Passes)
		res.PeakStored = max(res.PeakStored, sr.PeakStored)
		return sr.M, 0, nil
	}
	coreOpts := opts.Core
	coreOpts.PhasedSolverFactory = func() PhasedSolver { return solver }
	coreOpts.Workers = 1

	m := startMatching(g, initial)
	_, err := NewRunner(g, coreOpts).converge(m, &res.Stats, 0, 0, func(int, int) error {
		// One pass buckets edge weights for the viability index and feeds
		// the parametrization; the instances then share roundPasses passes.
		res.TotalPasses += 1 + roundPasses
		res.MaxRoundPasses = max(res.MaxRoundPasses, 1+roundPasses)
		roundPasses = 0
		return nil
	})
	if err != nil {
		return res, err
	}
	res.M = m
	return res, nil
}
