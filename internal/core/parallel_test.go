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

// TestParallelRoundDeterministicWithFactory pins the factory contract: the
// factory is called once per class sweep, so a stateful solver whose
// answers depend on its own call history still makes the parallel sweep
// reproduce the sequential one exactly — each class's solver sees the
// class's pairs in the class's order, whichever worker runs it.
func TestParallelRoundDeterministicWithFactory(t *testing.T) {
	inst := graph.PlantedMatching(60, 300, 100, 200, rand.New(rand.NewSource(4)))
	factory := func() PhasedSolver {
		calls := 0
		return func(b *bipartite.Bip) (*graph.Matching, int, error) {
			// The call history decides the answer — every third call
			// returns the empty matching — so a solver shared across
			// classes or workers would surface as a different matching.
			calls++
			if calls%3 == 0 {
				return graph.NewMatching(b.N), 0, nil
			}
			res := bipartite.HopcroftKarp(b)
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

// TestFactoryExactMatchesDefault: a factory draws nothing from the Rng, so
// installing the exact solver through it sees the default run's
// bipartitions and must reproduce the default run exactly — matching and
// every Stats counter, phases included.
func TestFactoryExactMatchesDefault(t *testing.T) {
	inst := graph.PlantedMatching(60, 300, 100, 200, rand.New(rand.NewSource(5)))
	for _, seed := range []int64{1, 2, 3} {
		def, err := Solve(inst.G, nil, Options{Rng: rand.New(rand.NewSource(seed))})
		if err != nil {
			t.Fatal(err)
		}
		fac, err := Solve(inst.G, nil, Options{Rng: rand.New(rand.NewSource(seed)), PhasedSolverFactory: ExactPhasedSolver})
		if err != nil {
			t.Fatal(err)
		}
		sameMatching(t, "factory vs default", def.M, fac.M)
		if fac.Stats != def.Stats {
			t.Fatalf("seed %d: factory stats %+v, default %+v", seed, fac.Stats, def.Stats)
		}
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
