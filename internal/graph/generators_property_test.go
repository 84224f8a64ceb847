package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// Property: PlantedMatching's planted matching is truly optimal — verified
// against brute force on small instances.
func TestPlantedMatchingOptimalQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := PlantedMatching(8, 10, 40, 80, rng)
		best := bruteForceMaxWeight(inst.G)
		return best == inst.OptWeight
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// bruteForceMaxWeight enumerates all matchings over the edge set (feasible
// for tiny m) and returns the maximum weight.
func bruteForceMaxWeight(g *Graph) Weight {
	edges := g.Edges()
	var best Weight
	var rec func(i int, used map[int]bool, w Weight)
	rec = func(i int, used map[int]bool, w Weight) {
		if w > best {
			best = w
		}
		for j := i; j < len(edges); j++ {
			e := edges[j]
			if used[e.U] || used[e.V] {
				continue
			}
			used[e.U], used[e.V] = true, true
			rec(j+1, used, w+e.W)
			delete(used, e.U)
			delete(used, e.V)
		}
	}
	rec(0, make(map[int]bool), 0)
	return best
}

// Property: AugmentingChain's reported optimum matches brute force for both
// weight regimes (outer-pair wins vs middle wins).
func TestAugmentingChainOptimalQuick(t *testing.T) {
	f := func(seed int64, outRaw, midRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		out := Weight(outRaw%20 + 1)
		mid := Weight(midRaw%20 + 1)
		inst := AugmentingChain(3, out, mid, rng)
		return bruteForceMaxWeight(inst.G) == inst.OptWeight
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: WeightedCycle's optimum matches brute force for any weight pair
// and half-lengths 1 to 4, and the graph is simple (half-length 1 is one
// edge).
func TestWeightedCycleOptimalQuick(t *testing.T) {
	f := func(aRaw, bRaw uint8, halfRaw uint8) bool {
		a := Weight(aRaw%30 + 1)
		b := Weight(bRaw%30 + 1)
		half := int(halfRaw%4) + 1
		inst := WeightedCycle(half, a, b)
		edges := 2 * half
		if half == 1 {
			edges = 1 // the two edges would be parallel: the graph is simple
		}
		if inst.G.M() != edges {
			return false
		}
		return bruteForceMaxWeight(inst.G) == inst.OptWeight &&
			inst.Opt.Weight() == inst.OptWeight && inst.Opt.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: ThreeAugWorkload's opt matching applies exactly the planted
// augmentations (size k + planted count) and validates.
func TestThreeAugWorkloadConsistencyQuick(t *testing.T) {
	f := func(seed int64, betaRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		beta := float64(betaRaw%10+1) / 10
		k := 20
		inst, m0 := ThreeAugWorkload(k, beta, 15, rng)
		if m0.Validate() != nil || inst.Opt.Validate() != nil {
			return false
		}
		return inst.Opt.Size() == k+int(beta*float64(k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: every generator emits structurally valid graphs (validated by
// re-adding all edges through the checking constructor).
func TestGeneratorsEmitValidGraphsQuick(t *testing.T) {
	f := func(seed int64, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var inst Instance
		switch pick % 5 {
		case 0:
			inst = RandomGraph(20, 40, 50, rng)
		case 1:
			inst = RandomBipartite(8, 9, 30, 50, rng)
		case 2:
			inst = PlantedMatching(12, 20, 40, 80, rng)
		case 3:
			inst = GeometricWeights(15, 30, 2, 8, rng)
		case 4:
			inst = AugmentingChain(4, 3, 4, rng)
		}
		_, err := FromEdges(inst.G.N(), inst.G.Edges())
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestGeometricWeightsClampsToCompleteGraph asks for more edges than the
// complete graph has. The generator must return the complete graph; the
// deadline turns a generator that never returns into a failure.
func TestGeometricWeightsClampsToCompleteGraph(t *testing.T) {
	for _, tc := range []struct{ n, m, want int }{{2, 3, 1}, {4, 7, 6}, {1, 5, 0}, {0, 2, 0}} {
		done := make(chan Instance, 1)
		go func() { done <- GeometricWeights(tc.n, tc.m, 2, 12, rand.New(rand.NewSource(3))) }()
		select {
		case inst := <-done:
			if got := inst.G.M(); got != tc.want {
				t.Errorf("GeometricWeights(n=%d, m=%d): %d edges, want %d", tc.n, tc.m, got, tc.want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("GeometricWeights(n=%d, m=%d) did not return", tc.n, tc.m)
		}
	}
}

// TestPlantedMatchingPositiveWeights covers a heavy range reaching down to
// zero: every edge, planted or noise, must still weigh at least 1, and the
// result must pass the checking constructor.
func TestPlantedMatchingPositiveWeights(t *testing.T) {
	for _, r := range []struct{ low, high Weight }{{0, 0}, {0, 1}, {-3, 2}} {
		for seed := int64(1); seed <= 5; seed++ {
			inst := PlantedMatching(4, 2, r.low, r.high, rand.New(rand.NewSource(seed)))
			for _, e := range inst.G.Edges() {
				if e.W < 1 {
					t.Fatalf("PlantedMatching(heavy [%d, %d], seed %d): edge %v", r.low, r.high, seed, e)
				}
			}
			if _, err := FromEdges(inst.G.N(), inst.G.Edges()); err != nil {
				t.Fatalf("PlantedMatching(heavy [%d, %d], seed %d): %v", r.low, r.high, seed, err)
			}
		}
	}
}

// TestPlantedMatchingNoVertices asks for noise edges on an empty graph: the
// generator must return the empty graph instead of drawing a vertex.
func TestPlantedMatchingNoVertices(t *testing.T) {
	inst := PlantedMatching(0, 5, 10, 20, rand.New(rand.NewSource(1)))
	if inst.G.N() != 0 || inst.G.M() != 0 || inst.OptWeight != 0 {
		t.Fatalf("PlantedMatching(0, 5): n=%d m=%d opt=%d, want an empty graph",
			inst.G.N(), inst.G.M(), inst.OptWeight)
	}
}
