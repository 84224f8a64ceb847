package graph

import (
	"math/rand"
	"slices"
	"testing"
)

func TestEdgeOther(t *testing.T) {
	e := Edge{U: 3, V: 7, W: 5}
	if got := e.Other(3); got != 7 {
		t.Errorf("Other(3) = %d, want 7", got)
	}
	if got := e.Other(7); got != 3 {
		t.Errorf("Other(7) = %d, want 3", got)
	}
	if got := e.Other(1); got != -1 {
		t.Errorf("Other(1) = %d, want -1", got)
	}
}

func TestEdgeCanonicalAndKey(t *testing.T) {
	e := Edge{U: 9, V: 2, W: 4}
	c := e.Canonical()
	if c.U != 2 || c.V != 9 || c.W != 4 {
		t.Errorf("Canonical() = %v", c)
	}
	if e.EdgeKey() != (Key{U: 2, V: 9}) {
		t.Errorf("EdgeKey() = %v", e.EdgeKey())
	}
	if KeyOf(2, 9) != KeyOf(9, 2) {
		t.Error("KeyOf is not symmetric")
	}
}

func TestGraphAddEdgeValidation(t *testing.T) {
	g := New(4)
	tests := []struct {
		name string
		e    Edge
		ok   bool
	}{
		{"valid", Edge{U: 0, V: 1, W: 3}, true},
		{"self loop", Edge{U: 2, V: 2, W: 1}, false},
		{"negative vertex", Edge{U: -1, V: 1, W: 1}, false},
		{"vertex too large", Edge{U: 0, V: 4, W: 1}, false},
		{"zero weight", Edge{U: 0, V: 2, W: 0}, false},
		{"negative weight", Edge{U: 0, V: 2, W: -5}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := g.AddEdge(tt.e)
			if (err == nil) != tt.ok {
				t.Errorf("AddEdge(%v) error = %v, want ok=%v", tt.e, err, tt.ok)
			}
		})
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(3, []Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}})
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Errorf("N=%d M=%d, want 3, 2", g.N(), g.M())
	}
	if g.MaxWeight() != 3 {
		t.Errorf("MaxWeight = %d, want 3", g.MaxWeight())
	}
	if _, err := FromEdges(2, []Edge{{U: 0, V: 5, W: 1}}); err == nil {
		t.Error("FromEdges accepted out-of-range vertex")
	}
}

func TestAdjacency(t *testing.T) {
	g, err := FromEdges(4, []Edge{
		{U: 0, V: 1, W: 1},
		{U: 0, V: 2, W: 2},
		{U: 2, V: 3, W: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	adj := g.Adjacency()
	if len(adj[0]) != 2 {
		t.Errorf("deg(0) = %d, want 2", len(adj[0]))
	}
	if len(adj[1]) != 1 || adj[1][0].To != 0 || adj[1][0].W != 1 {
		t.Errorf("adj[1] = %v", adj[1])
	}
	if len(adj[3]) != 1 || adj[3][0].EdgeIndex != 2 {
		t.Errorf("adj[3] = %v", adj[3])
	}
}

func TestAdjacencyCachedAndInvalidated(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 5)
	first := g.Adjacency()
	if again := g.Adjacency(); &again[0] != &first[0] {
		t.Error("repeated Adjacency calls did not share the cached lists")
	}
	// AddEdge must invalidate: the next materialisation sees the new edge.
	g.MustAddEdge(1, 2, 7)
	adj := g.Adjacency()
	if len(adj[1]) != 2 {
		t.Fatalf("deg(1) after AddEdge = %d, want 2", len(adj[1]))
	}
	if adj[1][1].To != 2 || adj[1][1].W != 7 || adj[1][1].EdgeIndex != 1 {
		t.Errorf("adj[1][1] = %+v", adj[1][1])
	}
}

func TestSortedEdges(t *testing.T) {
	g, err := FromEdges(4, []Edge{
		{U: 0, V: 1, W: 1},
		{U: 2, V: 3, W: 9},
		{U: 1, V: 2, W: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := g.SortedEdges()
	if s[0].W != 9 || s[1].W != 5 || s[2].W != 1 {
		t.Errorf("SortedEdges = %v", s)
	}
	// Original order untouched.
	if g.Edges()[0].W != 1 {
		t.Error("SortedEdges mutated the graph")
	}

	// Tied weights fall back to U, then V, ascending, with each edge's
	// endpoint orientation kept.
	tied, err := FromEdges(5, []Edge{
		{U: 3, V: 1, W: 5},
		{U: 0, V: 4, W: 5},
		{U: 2, V: 4, W: 7},
		{U: 0, V: 2, W: 5},
		{U: 1, V: 4, W: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Edge{
		{U: 2, V: 4, W: 7},
		{U: 0, V: 2, W: 5},
		{U: 0, V: 4, W: 5},
		{U: 1, V: 4, W: 5},
		{U: 3, V: 1, W: 5},
	}
	if got := tied.SortedEdges(); !slices.Equal(got, want) {
		t.Errorf("tied SortedEdges = %v, want %v", got, want)
	}
}

func TestRandomGraphProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inst := RandomGraph(50, 200, 100, rng)
	g := inst.G
	if g.M() != 200 {
		t.Fatalf("M = %d, want 200", g.M())
	}
	seen := make(map[Key]struct{})
	for _, e := range g.Edges() {
		if e.U == e.V {
			t.Fatalf("self loop %v", e)
		}
		if e.W < 1 || e.W > 100 {
			t.Fatalf("weight out of range: %v", e)
		}
		k := e.EdgeKey()
		if _, dup := seen[k]; dup {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[k] = struct{}{}
	}
}

func TestPlantedMatchingIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	inst := PlantedMatching(12, 30, 100, 200, rng)
	if !inst.OptExact {
		t.Fatal("planted instance must be exact")
	}
	if err := inst.Opt.Validate(); err != nil {
		t.Fatalf("planted opt invalid: %v", err)
	}
	if inst.Opt.Weight() != inst.OptWeight {
		t.Fatalf("opt weight mismatch: %d vs %d", inst.Opt.Weight(), inst.OptWeight)
	}
	if inst.Opt.Size() != inst.G.N()/2 {
		t.Fatalf("planted matching not perfect: size %d", inst.Opt.Size())
	}
	// Noise weights must be small enough to keep the planted matching optimal.
	for _, e := range inst.G.Edges() {
		if !inst.Opt.Has(e.U, e.V) && e.W > 100/4 {
			t.Fatalf("noise edge too heavy: %v", e)
		}
	}
}

func TestWeightedCyclePaperExample(t *testing.T) {
	// The paper's 4-cycle with weights (3,4,3,4): matching of 3s has weight
	// 6; optimum takes the 4s for weight 8 (Section 1.1.2).
	inst := WeightedCycle(2, 3, 4)
	if inst.G.N() != 4 || inst.G.M() != 4 {
		t.Fatalf("n=%d m=%d", inst.G.N(), inst.G.M())
	}
	if inst.OptWeight != 8 {
		t.Fatalf("OptWeight = %d, want 8", inst.OptWeight)
	}
	if err := inst.Opt.Validate(); err != nil {
		t.Fatal(err)
	}
	if inst.Opt.Size() != 2 {
		t.Fatalf("opt size = %d, want 2", inst.Opt.Size())
	}
}

func TestAugmentingChain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inst := AugmentingChain(5, 3, 4, rng)
	if inst.OptWeight != 5*6 {
		t.Fatalf("OptWeight = %d, want 30", inst.OptWeight)
	}
	if err := inst.Opt.Validate(); err != nil {
		t.Fatal(err)
	}
	// Each segment contributes 3 edges.
	if inst.G.M() != 15 {
		t.Fatalf("M = %d, want 15", inst.G.M())
	}
}

func TestThreeAugWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inst, m0 := ThreeAugWorkload(20, 0.5, 10, rng)
	if err := m0.Validate(); err != nil {
		t.Fatalf("m0: %v", err)
	}
	if err := inst.Opt.Validate(); err != nil {
		t.Fatalf("opt: %v", err)
	}
	if m0.Size() != 20 {
		t.Fatalf("m0 size = %d, want 20", m0.Size())
	}
	// Opt applies 10 augmentations, each a net +1 edge.
	if inst.Opt.Size() != 30 {
		t.Fatalf("opt size = %d, want 30", inst.Opt.Size())
	}
}

func TestGeometricWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := GeometricWeights(30, 100, 2, 10, rng)
	classes := make(map[Weight]bool)
	for _, e := range inst.G.Edges() {
		classes[e.W] = true
	}
	if len(classes) < 4 {
		t.Errorf("expected several weight classes, got %d", len(classes))
	}
}
