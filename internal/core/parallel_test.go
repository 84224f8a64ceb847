package core

import (
	"math/rand"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/layered"
)

func sameMatching(t *testing.T, label string, a, b *graph.Matching) {
	t.Helper()
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		t.Fatalf("%s: %d edges vs %d", label, len(ae), len(be))
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("%s: edge %d differs: %v vs %v", label, i, ae[i], be[i])
		}
	}
}

// TestParallelRoundDeterministic is the acceptance property of the parallel
// class sweep: for a fixed Options.Rng seed, Round with any worker count
// produces bit-for-bit the matching, gain, and stats of the sequential
// sweep, across several consecutive rounds.
func TestParallelRoundDeterministic(t *testing.T) {
	inst := graph.PlantedMatching(80, 400, 100, 200, rand.New(rand.NewSource(3)))
	for _, workers := range []int{2, 4, 7} {
		seqRng := rand.New(rand.NewSource(21))
		parRng := rand.New(rand.NewSource(21))
		mSeq := graph.NewMatching(inst.G.N())
		mPar := graph.NewMatching(inst.G.N())
		var statsSeq, statsPar Stats
		for round := 0; round < 5; round++ {
			gainSeq, err := Round(inst.G, mSeq, Options{Rng: seqRng}, &statsSeq)
			if err != nil {
				t.Fatal(err)
			}
			gainPar, err := Round(inst.G, mPar, Options{Rng: parRng, Workers: workers}, &statsPar)
			if err != nil {
				t.Fatal(err)
			}
			if gainSeq != gainPar {
				t.Fatalf("workers=%d round %d: gain %d vs sequential %d", workers, round, gainPar, gainSeq)
			}
			sameMatching(t, "after round", mSeq, mPar)
		}
		if statsSeq != statsPar {
			t.Fatalf("workers=%d: stats %+v vs sequential %+v", workers, statsPar, statsSeq)
		}
	}
}

// TestParallelRoundDeterministicWithFactory exercises the per-class Rng
// split: a factory-built solver whose behaviour depends on its class Rng
// must still make the parallel sweep reproduce the sequential one exactly,
// because seeds are drawn up-front in class order.
func TestParallelRoundDeterministicWithFactory(t *testing.T) {
	inst := graph.PlantedMatching(60, 300, 100, 200, rand.New(rand.NewSource(4)))
	factory := func(rng *rand.Rand) PhasedSolver {
		return func(b *bipartite.Bip) (*graph.Matching, int, error) {
			// Class-seeded randomness decides the oracle quality, so any
			// scheduling dependence would surface as a different matching.
			if rng.Intn(2) == 0 {
				res := bipartite.HopcroftKarp(b)
				return res.M, res.Phases, nil
			}
			res := bipartite.Approx(b, 0.5)
			return res.M, res.Phases, nil
		}
	}
	seqRng := rand.New(rand.NewSource(33))
	parRng := rand.New(rand.NewSource(33))
	mSeq := graph.NewMatching(inst.G.N())
	mPar := graph.NewMatching(inst.G.N())
	var statsSeq, statsPar Stats
	for round := 0; round < 4; round++ {
		if _, err := Round(inst.G, mSeq, Options{Rng: seqRng, PhasedSolverFactory: factory}, &statsSeq); err != nil {
			t.Fatal(err)
		}
		if _, err := Round(inst.G, mPar, Options{Rng: parRng, PhasedSolverFactory: factory, Workers: 5}, &statsPar); err != nil {
			t.Fatal(err)
		}
		sameMatching(t, "factory round", mSeq, mPar)
	}
	if statsSeq != statsPar {
		t.Fatalf("stats %+v vs sequential %+v", statsPar, statsSeq)
	}
}

// TestSolveParallelMatchesSequential runs the full driver at several worker
// counts and checks the end matching is identical to the sequential run.
func TestSolveParallelMatchesSequential(t *testing.T) {
	inst := graph.PlantedMatching(50, 250, 100, 200, rand.New(rand.NewSource(6)))
	ref, err := Solve(inst.G, nil, Options{Rng: rand.New(rand.NewSource(9)), MaxRounds: 10, Patience: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{3, 8} {
		res, err := Solve(inst.G, nil, Options{
			Rng: rand.New(rand.NewSource(9)), MaxRounds: 10, Patience: 10, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		sameMatching(t, "solve", ref.M, res.M)
		if res.Stats != ref.Stats {
			t.Fatalf("workers=%d: stats %+v vs sequential %+v", workers, res.Stats, ref.Stats)
		}
	}
}

// TestParallelRoundColdCache runs the parallel sweep at a granularity no
// other test uses, so the workers race to insert fresh entries into the
// global τ-pair memo — under -race this covers the cache's synchronisation
// (a sequential warm-up round would mask it by pre-populating the cache).
func TestParallelRoundColdCache(t *testing.T) {
	inst := graph.PlantedMatching(60, 300, 100, 200, rand.New(rand.NewSource(5)))
	m := graph.NewMatching(inst.G.N())
	var stats Stats
	opts := Options{
		Rng:     rand.New(rand.NewSource(11)),
		Workers: 8,
		Layered: layered.Params{Granularity: 0.1},
	}
	if _, err := Round(inst.G, m, opts, &stats); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCustomSolverForcesSequential documents the safety rule: a bare Solver
// closure (no factory) disables the pool, so stateful driver closures (the
// streaming and MPC drivers accumulate pass/round counts) stay data-race
// free even when Workers is set.
func TestCustomSolverForcesSequential(t *testing.T) {
	inst := graph.PlantedMatching(30, 120, 50, 100, rand.New(rand.NewSource(7)))
	calls := 0 // mutated without synchronisation: the sweep must be sequential
	solver := func(b *bipartite.Bip) (*graph.Matching, error) {
		calls++
		return bipartite.HopcroftKarp(b).M, nil
	}
	m := graph.NewMatching(inst.G.N())
	var stats Stats
	if _, err := Round(inst.G, m, Options{Rng: rand.New(rand.NewSource(8)), Solver: solver, Workers: 8}, &stats); err != nil {
		t.Fatal(err)
	}
	if calls != stats.SolverCalls {
		t.Fatalf("solver closure saw %d calls, stats recorded %d", calls, stats.SolverCalls)
	}
}
