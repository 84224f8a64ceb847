package core

import (
	"math/rand"

	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/mpc"
)

// MPCOptions configures SolveMPC, the Theorem 1.2(1) driver.
type MPCOptions struct {
	// Core carries the reduction parameters. Its PhasedSolverFactory and
	// Workers are ignored: the driver installs the MPC bipartite solver,
	// whose round ledger and Rng are shared by every instance, and so runs
	// the class sweep sequentially. The solver's Rng is a stream of its own,
	// seeded by one draw from Core.Rng before the first round.
	Core Options
	// Delta is the (1−δ) target handed to the unweighted MPC subroutine.
	// Default 0.2.
	Delta float64
}

// MPCResult reports the matching with the round accounting of the MPC model.
type MPCResult struct {
	M     *graph.Matching
	Stats Stats
	// TotalRounds sums, over reduction rounds, one distribution round plus
	// the maximum subroutine round count (instances run in parallel on
	// disjoint machine groups, as in the paper).
	TotalRounds int
	// MaxRoundRounds is the largest per-reduction-round cost.
	MaxRoundRounds int
	// SubroutineRounds is the maximum MPC round count of any single
	// Unw-Bip-Matching instance (the U_M of the theorem).
	SubroutineRounds int
	// PeakLoad is the largest per-machine memory load observed (words).
	PeakLoad int
}

// SolveMPC runs the reduction in the simulated MPC model: every (W, τ-pair)
// instance solves its layered graph with the round-counted MPC bipartite
// matcher, rounds are charged as the per-reduction-round maximum across
// instances (they run on disjoint machines in parallel), and per-machine
// memory loads are validated by the simulator.
func SolveMPC(g *graph.Graph, initial *graph.Matching, opts MPCOptions) (MPCResult, error) {
	if opts.Delta <= 0 || opts.Delta > 1 {
		opts.Delta = 0.2
	}
	res := MPCResult{}
	roundRounds := 0
	rng := opts.Core.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	// The matcher draws from its own stream, seeded by one draw at start, so
	// the number of instances a round solves cannot steer later
	// bipartitions.
	matchRng := rand.New(rand.NewSource(rng.Int63()))

	solver := func(b *bipartite.Bip) (*graph.Matching, int, error) {
		// Each instance gets the paper's O(m/n) machines of its layered
		// graph, with near-linear memory per machine: the partition share
		// plus O(n) state plus the coordinator's merge buffer.
		machines := mpc.MachinesFor(len(b.Edges), b.N)
		mem := 2*len(b.Edges)/machines + (machines+2)*b.N + 16
		mr, err := bipartite.MPC(b, opts.Delta, machines, mem, matchRng)
		if err != nil {
			return nil, 0, err
		}
		// The matcher's cost is MPC rounds, not phases: it reports 0 phases.
		roundRounds = max(roundRounds, mr.Sim.Rounds())
		res.SubroutineRounds = max(res.SubroutineRounds, mr.Sim.Rounds())
		res.PeakLoad = max(res.PeakLoad, mr.Sim.PeakLoad())
		return mr.M, 0, nil
	}
	coreOpts := opts.Core
	coreOpts.Rng = rng
	coreOpts.PhasedSolverFactory = func() PhasedSolver { return solver }
	coreOpts.Workers = 1

	m := startMatching(g, initial)
	_, err := NewRunner(g, coreOpts).converge(m, &res.Stats, 0, 0, func(int, int) error {
		// One round distributes the bipartition and bucket index; the
		// instances then run in parallel.
		res.TotalRounds += 1 + roundRounds
		res.MaxRoundRounds = max(res.MaxRoundRounds, 1+roundRounds)
		roundRounds = 0
		return nil
	})
	if err != nil {
		return res, err
	}
	res.M = m
	return res, nil
}
