// Package solvertest is the differential net over the amortised solving
// pipeline: it drives the naive (rebuild-every-round) and amortised
// (incremental index + survival probe + cross-class cache) configurations
// of the Theorem 1.2 driver round-by-round over the generator families of
// the E1–E12 experiments and asserts that every round produces the
// bit-identical matching. The equivalence-critical rewrites of the hot path
// (see internal/layered.IncIndex and core.Options.Amortize) are accepted
// only while this net stays green.
package solvertest

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// Workload names one differential instance: a graph and an optional
// initial matching.
type Workload struct {
	Name    string
	G       *graph.Graph
	Initial *graph.Matching
}

// Workloads returns one instance per generator family used across the
// E1–E15 experiments, at differential-test scale (a few rounds of each
// must stay well under a second). The rng drives every family, so a fixed
// seed reproduces the exact instances.
func Workloads(rng *rand.Rand) []Workload {
	random := graph.RandomGraph(40, 160, 64, rng)
	bip := graph.RandomBipartite(24, 24, 120, 32, rng)
	planted := graph.PlantedMatching(60, 300, 100, 200, rng)
	chain := graph.AugmentingChain(6, 40, 9, rng)
	cycle := graph.WeightedCycle(3, 24, 32)
	three, threeM := graph.ThreeAugWorkload(20, 0.5, 60, rng)
	geo := graph.GeometricWeights(40, 160, 2, 8, rng)
	banded := graph.BandedWeights(40, 200, 100, rng)
	uniform := graph.UniformWeights(36, 150, 64, rng)
	// The build-bound shape: the E13 one-octave band at 8n density, so
	// surviving layered builds dominate round time and the differential
	// builder (BuildDelta) is on the hot path at test scale.
	bandedDense := graph.BandedWeights(32, 8*32, 100, rng)

	// Start the cycle workload from its perfect-but-suboptimal matching so
	// the augmenting-cycle machinery (the Section 1.1.2 blow-up) is on the
	// differential path, not just path augmentations.
	cycleM := graph.NewMatching(cycle.G.N())
	for i := 0; i < cycle.G.N(); i += 2 {
		e := graph.Edge{U: i, V: (i + 1) % cycle.G.N(), W: 24}
		if err := cycleM.Add(e); err != nil {
			panic(err)
		}
	}

	return []Workload{
		{Name: "random", G: random.G},
		{Name: "bipartite", G: bip.G},
		{Name: "planted", G: planted.G},
		{Name: "chain", G: chain.G},
		{Name: "cycle", G: cycle.G, Initial: cycleM},
		{Name: "threeaug", G: three.G, Initial: threeM},
		{Name: "geometric", G: geo.G},
		{Name: "banded", G: banded.G},
		{Name: "uniform", G: uniform.G},
		{Name: "bandeddense", G: bandedDense.G},
	}
}

// cloneInitial returns a private copy of the workload's starting matching.
func (w Workload) cloneInitial() *graph.Matching {
	if w.Initial == nil {
		return graph.NewMatching(w.G.N())
	}
	return w.Initial.Clone()
}

// AssertBitIdentical runs optsA and optsB on the workload round-by-round
// for the given number of rounds and fails the test on the first round
// whose matchings differ in any edge or weight. Both options structs
// receive private Rngs seeded with seed, so the two runs draw identical
// bipartitions.
func AssertBitIdentical(t *testing.T, w Workload, optsA, optsB core.Options, seed int64, rounds int) (core.Stats, core.Stats) {
	t.Helper()
	optsA.Rng = rand.New(rand.NewSource(seed))
	optsB.Rng = rand.New(rand.NewSource(seed))
	mA, mB := w.cloneInitial(), w.cloneInitial()
	rA := core.NewRunner(w.G, optsA)
	rB := core.NewRunner(w.G, optsB)
	var sA, sB core.Stats
	for round := 0; round < rounds; round++ {
		gainA, err := rA.Round(mA, &sA)
		if err != nil {
			t.Fatalf("%s round %d (A): %v", w.Name, round, err)
		}
		gainB, err := rB.Round(mB, &sB)
		if err != nil {
			t.Fatalf("%s round %d (B): %v", w.Name, round, err)
		}
		if gainA != gainB {
			t.Fatalf("%s round %d: gain %d (A) vs %d (B)", w.Name, round, gainA, gainB)
		}
		if err := equalMatchings(mA, mB); err != nil {
			t.Fatalf("%s round %d: %v", w.Name, round, err)
		}
		if err := mA.Validate(); err != nil {
			t.Fatalf("%s round %d: invalid matching: %v", w.Name, round, err)
		}
	}
	return sA, sB
}

// equalMatchings reports the first difference between two matchings,
// comparing the full edge sets including weights.
func equalMatchings(a, b *graph.Matching) error {
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		return errMismatch("size", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			return errMismatch("edge", ea[i], eb[i])
		}
	}
	if a.Weight() != b.Weight() {
		return errMismatch("weight", a.Weight(), b.Weight())
	}
	return nil
}

type mismatchError struct {
	what string
	a, b any
}

func (e mismatchError) Error() string {
	return fmt.Sprintf("matchings differ (%s): %v vs %v", e.what, e.a, e.b)
}

func errMismatch(what string, a, b any) error { return mismatchError{what: what, a: a, b: b} }
