package bipartite

import (
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/mpc"
)

// MPCResult reports the MPC solver's matching together with the simulator
// that accumulated its round and memory usage.
type MPCResult struct {
	M   *graph.Matching
	Sim *mpc.Simulator
	// MaximalRounds and AugmentRounds split Sim.Rounds() into the two
	// stages for the overhead experiments.
	MaximalRounds, AugmentRounds int
}

// MPC computes a large matching of a bipartite graph in the simulated MPC
// model with O(m/n) machines and near-linear memory per machine. It is the
// round-counted stand-in for the [GGK+18]/[ABB+19] subroutine of Theorem
// 1.2(1). Stage 1 builds a maximal matching by LMSV11-style filtering: each
// iteration costs two rounds (machines propose greedy local matchings on
// their partitions restricted to free vertices; a coordinator merges).
// Stage 2 improves toward (1−δ) by growing maximal sets of vertex-disjoint
// augmenting paths of length ≤ 2·ceil(1/δ)−1, one round per unmatched layer.
//
// The round counts are the quantity Theorem 1.2(1) is about: the weighted
// reduction must cost only a constant factor over whatever this subroutine
// uses. Memory loads are validated against the simulator's S; exceeding it
// is reported via the error.
func MPC(b *Bip, delta float64, machines, memPerMachine int, rng *rand.Rand) (MPCResult, error) {
	if delta <= 0 || delta > 1 {
		delta = 0.1
	}
	sim, err := mpc.New(machines, memPerMachine)
	if err != nil {
		return MPCResult{}, err
	}
	res := MPCResult{M: graph.NewMatching(b.N), Sim: sim}

	parts := mpc.PartitionEdges(b.Edges, machines, rng)

	// Stage 1: maximal matching by filtering.
	for {
		// Round A: local greedy proposals on free-free edges.
		sim.NextRound()
		res.MaximalRounds++
		var proposals []graph.Edge
		anyEdge := false
		for _, part := range parts {
			if err := sim.Use(len(part) + b.N/machines + 1); err != nil {
				return res, err
			}
			local := graph.NewMatching(b.N)
			for _, e := range part {
				if res.M.IsMatched(e.U) || res.M.IsMatched(e.V) {
					continue
				}
				anyEdge = true
				if !local.IsMatched(e.U) && !local.IsMatched(e.V) {
					mustAdd(local, e)
				}
			}
			proposals = append(proposals, local.Edges()...)
		}
		if !anyEdge {
			break
		}
		// Round B: coordinator merges proposals greedily and broadcasts.
		// Each machine's proposal transfer and the matched-set broadcast
		// are charged to the communication accountant.
		if err := sim.Send(len(proposals)); err != nil {
			return res, err
		}
		sim.NextRound()
		res.MaximalRounds++
		if err := sim.Use(len(proposals)); err != nil {
			return res, err
		}
		if err := sim.Send(res.M.Size() + len(proposals)); err != nil {
			return res, err
		}
		for _, e := range proposals {
			if !res.M.IsMatched(e.U) && !res.M.IsMatched(e.V) {
				mustAdd(res.M, e)
			}
		}
	}

	// Stage 2: augmenting-path rounds, grown by Streaming's flat grower
	// with the layer scans spread over the machines.
	ell := int(math.Ceil(1 / delta))
	layers := ell // (2*ell-1+1)/2 unmatched layers per sweep
	maxSweeps := 4 * ell
	peak := 0
	sc := &StreamScratch{}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		sc.grow(b.N, b.Side, res.M, layers, func() {
			sim.NextRound()
			res.AugmentRounds++
		}, func(visit func(l, r int, w graph.Weight)) {
			for _, part := range parts {
				// Each machine scans its partition against the broadcast
				// frontier; load = partition + frontier state.
				if err := sim.Use(len(part) + b.N/machines + 1); err != nil {
					return
				}
				for _, e := range part {
					l, r := orient(b.Side, e)
					visit(l, r, e.W)
				}
			}
		}, &peak, func(int) {})
		if len(sc.completed) == 0 {
			break
		}
		// One round for the coordinator to apply the augmentations and
		// broadcast the updated matching.
		sim.NextRound()
		res.AugmentRounds++
		if err := sim.Use(res.M.Size() + sc.completedWords()); err != nil {
			return res, err
		}
		if sc.apply(res.M) == 0 {
			break
		}
	}
	return res, nil
}
