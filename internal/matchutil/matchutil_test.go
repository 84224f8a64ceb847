package matchutil

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestGreedyMaximalIsMaximalAndValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		inst := graph.RandomGraph(30, 80, 50, rng)
		m := GreedyMaximal(inst.G.N(), inst.G.Edges())
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		if !IsMaximal(inst.G, m) {
			t.Fatal("greedy matching not maximal")
		}
	}
}

func TestGreedyWeightedHalfApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		inst := graph.RandomGraph(14, 40, 100, rng)
		greedy := GreedyWeighted(inst.G)
		opt, err := MaxWeightExact(inst.G)
		if err != nil {
			t.Fatal(err)
		}
		if greedy.Weight()*2 < opt.Weight() {
			t.Fatalf("trial %d: greedy %d < half of opt %d", trial, greedy.Weight(), opt.Weight())
		}
	}
}

func TestMaxWeightExactKnownInstances(t *testing.T) {
	tests := []struct {
		name  string
		build func() (*graph.Graph, graph.Weight)
	}{
		{
			"triangle takes heaviest edge",
			func() (*graph.Graph, graph.Weight) {
				g := graph.New(3)
				g.MustAddEdge(0, 1, 5)
				g.MustAddEdge(1, 2, 7)
				g.MustAddEdge(2, 0, 6)
				return g, 7
			},
		},
		{
			"paper 4-cycle 3,4,3,4",
			func() (*graph.Graph, graph.Weight) {
				return graph.WeightedCycle(2, 3, 4).G, 8
			},
		},
		{
			"path prefers outer edges",
			func() (*graph.Graph, graph.Weight) {
				// 4-2: weight 4+4 beats middle 5.
				g := graph.New(4)
				g.MustAddEdge(0, 1, 4)
				g.MustAddEdge(1, 2, 5)
				g.MustAddEdge(2, 3, 4)
				return g, 8
			},
		},
		{
			"single heavy edge beats two light",
			func() (*graph.Graph, graph.Weight) {
				g := graph.New(4)
				g.MustAddEdge(0, 1, 2)
				g.MustAddEdge(1, 2, 10)
				g.MustAddEdge(2, 3, 2)
				return g, 10
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g, want := tt.build()
			m, err := MaxWeightExact(g)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			if m.Weight() != want {
				t.Errorf("weight = %d, want %d", m.Weight(), want)
			}
		})
	}
}

func TestMaxWeightExactMatchesPlanted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		inst := graph.PlantedMatching(12, 20, 100, 150, rng)
		m, err := MaxWeightExact(inst.G)
		if err != nil {
			t.Fatal(err)
		}
		if m.Weight() != inst.OptWeight {
			t.Fatalf("trial %d: exact %d != planted opt %d", trial, m.Weight(), inst.OptWeight)
		}
	}
}

func TestMaxWeightExactRejectsLarge(t *testing.T) {
	g := graph.New(MaxExactVertices + 1)
	if _, err := MaxWeightExact(g); err == nil {
		t.Error("large instance accepted")
	}
}

func TestMaxCardinalityExact(t *testing.T) {
	// Perfect matching on a 6-cycle has 3 edges.
	g := graph.New(6)
	for i := 0; i < 6; i++ {
		g.MustAddEdge(i, (i+1)%6, graph.Weight(1+i)) // weights must not matter
	}
	m, err := MaxCardinalityExact(g)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 3 {
		t.Errorf("size = %d, want 3", m.Size())
	}
}

// Property: exact DP is optimal — no single augmentation (edge swap) can
// improve it on random small graphs.
func TestMaxWeightExactNoImprovingEdgeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := graph.RandomGraph(10, 20, 30, rng)
		m, err := MaxWeightExact(inst.G)
		if err != nil {
			return false
		}
		for _, e := range inst.G.Edges() {
			if graph.PathAugmentation(m, []graph.Edge{e}).Gain() > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFindThreeAugPathsOnPlanted(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inst, m0 := graph.ThreeAugWorkload(30, 0.5, 0, rng)
	paths := FindThreeAugPaths(inst.G, m0)
	// All 15 planted paths are vertex-disjoint, so greedy must find all.
	if len(paths) != 15 {
		t.Fatalf("found %d paths, want 15", len(paths))
	}
	m := m0.Clone()
	for _, p := range paths {
		if _, err := graph.Apply(m, p.Augmentation()); err != nil {
			t.Fatalf("augmentation failed: %v", err)
		}
	}
	if m.Size() != 45 {
		t.Errorf("size after augmenting = %d, want 45", m.Size())
	}
}

func TestFindThreeAugPathsReverseOrientation(t *testing.T) {
	// Free neighbour only reachable when scanning from the higher endpoint
	// first: a–v–u–b with a adjacent to v only and b adjacent to u only.
	g := graph.New(4)
	g.MustAddEdge(1, 2, 1) // matched u=1, v=2
	g.MustAddEdge(0, 2, 1) // free 0 adjacent to v
	g.MustAddEdge(1, 3, 1) // free 3 adjacent to u
	m := graph.NewMatching(4)
	if err := m.Add(graph.Edge{U: 1, V: 2, W: 1}); err != nil {
		t.Fatal(err)
	}
	paths := FindThreeAugPaths(g, m)
	if len(paths) != 1 {
		t.Fatalf("found %d paths, want 1", len(paths))
	}
}

func TestCountThreeAugmentable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst, m0 := graph.ThreeAugWorkload(20, 0.4, 0, rng)
	if got := CountThreeAugmentable(inst.G, m0); got != 8 {
		t.Errorf("CountThreeAugmentable = %d, want 8", got)
	}
	// The scan is O(m): one all-false used set for the whole call, not a
	// fresh O(n) one per neighbour lookup.
	if allocs := testing.AllocsPerRun(10, func() { CountThreeAugmentable(inst.G, m0) }); allocs > 1 {
		t.Errorf("CountThreeAugmentable allocates %v times per call, want at most 1", allocs)
	}
}

func TestRatio(t *testing.T) {
	m := graph.NewMatching(2)
	if err := m.Add(graph.Edge{U: 0, V: 1, W: 5}); err != nil {
		t.Fatal(err)
	}
	if r := Ratio(m, 10); r != 0.5 {
		t.Errorf("Ratio = %v", r)
	}
	if r := Ratio(m, 0); r != 0 {
		t.Errorf("Ratio with 0 opt = %v", r)
	}
}

func TestMaxCardinalityAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 40; trial++ {
		inst := graph.RandomGraph(14, 30, 5, rng)
		got := MaxCardinality(inst.G)
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		want, err := MaxCardinalityExact(inst.G)
		if err != nil {
			t.Fatal(err)
		}
		if got.Size() != want.Size() {
			t.Fatalf("trial %d: blossom %d != exact %d", trial, got.Size(), want.Size())
		}
	}
}

func TestMaxCardinalityOddCycles(t *testing.T) {
	// Blossoms proper: odd cycles force contraction. Two triangles joined
	// by a bridge have a perfect-but-one matching of size 3.
	g := graph.New(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 0, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 4, 1)
	g.MustAddEdge(4, 5, 1)
	g.MustAddEdge(5, 3, 1)
	m := MaxCardinality(g)
	if m.Size() != 3 {
		t.Errorf("size = %d, want 3", m.Size())
	}
}

func TestMaxCardinalityPetersenLike(t *testing.T) {
	// 5-cycle with a pendant on each vertex: maximum matching is 5 (each
	// pendant edge), requiring the algorithm to reject the odd cycle edges.
	g := graph.New(10)
	for i := 0; i < 5; i++ {
		g.MustAddEdge(i, (i+1)%5, 1)
		g.MustAddEdge(i, 5+i, 1)
	}
	m := MaxCardinality(g)
	if m.Size() != 5 {
		t.Errorf("size = %d, want 5", m.Size())
	}
}

func TestLemma32ThreeAugmentableBound(t *testing.T) {
	// Lemma 3.2 ([KMM12] Lemma 1): for a maximal matching M' with
	// |M'| <= (1/2+a)|M*|, at least (1/2-3a)|M*| edges of M' are
	// 3-augmentable and at most 4a|M*| are not.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		inst := graph.RandomGraph(40, 120, 1, rng)
		mPrime := GreedyMaximal(inst.G.N(), inst.G.Edges())
		mStar := MaxCardinality(inst.G)
		alpha := float64(mPrime.Size())/float64(mStar.Size()) - 0.5
		if alpha < 0 {
			continue // lemma hypothesis |M'| <= (1/2+a)|M*| with a >= 0
		}
		augmentable := CountThreeAugmentable(inst.G, mPrime)
		lower := (0.5 - 3*alpha) * float64(mStar.Size())
		if float64(augmentable) < lower-1e-9 {
			t.Fatalf("trial %d: %d 3-augmentable edges below Lemma 3.2 bound %.2f (alpha=%.3f)",
				trial, augmentable, lower, alpha)
		}
		nonAug := mPrime.Size() - augmentable
		upper := 4 * alpha * float64(mStar.Size())
		if float64(nonAug) > upper+1e-9 {
			t.Fatalf("trial %d: %d non-3-augmentable edges above Lemma 3.2 bound %.2f",
				trial, nonAug, upper)
		}
	}
}
