package unwaug

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/stream"
)

func TestRecoversPlantedPaths(t *testing.T) {
	// All planted paths vertex-disjoint; the stream contains exactly the
	// support edges, so the finder must recover a large fraction.
	rng := rand.New(rand.NewSource(1))
	for _, beta := range []float64{0.25, 0.5, 1.0} {
		inst, m0 := graph.ThreeAugWorkload(100, beta, 0, rng)
		f := New(m0, beta)
		s := stream.RandomOrder(inst.G, rng)
		for e, ok := s.Next(); ok; e, ok = s.Next() {
			if !m0.Has(e.U, e.V) {
				f.Feed(e)
			}
		}
		paths := f.Finalize()
		want := int(beta * beta / 32 * float64(m0.Size()))
		if len(paths) < want {
			t.Errorf("beta=%v: recovered %d paths, lemma requires >= %d", beta, len(paths), want)
		}
		// On this noiseless workload the support set contains every planted
		// path, so recovery should in fact be perfect.
		planted := int(beta * float64(100))
		if len(paths) != planted {
			t.Errorf("beta=%v: recovered %d, planted %d", beta, len(paths), planted)
		}
	}
}

func TestPathsAreVertexDisjointAndApply(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	inst, m0 := graph.ThreeAugWorkload(60, 0.7, 200, rng)
	f := New(m0, 0.7)
	s := stream.RandomOrder(inst.G, rng)
	for e, ok := s.Next(); ok; e, ok = s.Next() {
		if !m0.Has(e.U, e.V) {
			f.Feed(e)
		}
	}
	paths := f.Finalize()
	seen := make(map[int]bool)
	m := m0.Clone()
	for _, p := range paths {
		for _, v := range [4]int{p.A, p.U, p.V, p.B} {
			if seen[v] {
				t.Fatalf("vertex %d reused across paths", v)
			}
			seen[v] = true
		}
		if _, err := graph.Apply(m, p.Augmentation()); err != nil {
			t.Fatalf("path does not apply: %v", err)
		}
	}
	if m.Size() != m0.Size()+len(paths) {
		t.Errorf("size %d, want %d", m.Size(), m0.Size()+len(paths))
	}
}

func TestSpaceBound(t *testing.T) {
	// |S| <= 4|M| regardless of stream length (each matched vertex keeps at
	// most 2 support edges).
	rng := rand.New(rand.NewSource(3))
	inst, m0 := graph.ThreeAugWorkload(50, 1.0, 5000, rng)
	f := New(m0, 0.5)
	for _, e := range inst.G.Edges() {
		if !m0.Has(e.U, e.V) {
			f.Feed(e)
		}
	}
	if f.SupportSize() > 4*m0.Size() {
		t.Errorf("|S| = %d exceeds 4|M| = %d", f.SupportSize(), 4*m0.Size())
	}
}

func TestIgnoresNonCandidateEdges(t *testing.T) {
	m := graph.NewMatching(6)
	if err := m.Add(graph.Edge{U: 0, V: 1, W: 1}); err != nil {
		t.Fatal(err)
	}
	f := New(m, 0.5)
	f.Feed(graph.Edge{U: 0, V: 1, W: 1}) // matched-matched
	f.Feed(graph.Edge{U: 2, V: 3, W: 1}) // free-free
	if f.SupportSize() != 0 {
		t.Errorf("support = %d, want 0", f.SupportSize())
	}
	f.Feed(graph.Edge{U: 2, V: 0, W: 1}) // free-matched: kept
	if f.SupportSize() != 1 {
		t.Errorf("support = %d, want 1", f.SupportSize())
	}
}

func TestDegreeCaps(t *testing.T) {
	// Matched vertex keeps at most 2 support edges; a free vertex at most
	// lambda.
	m := graph.NewMatching(20)
	if err := m.Add(graph.Edge{U: 0, V: 1, W: 1}); err != nil {
		t.Fatal(err)
	}
	f := New(m, 1.0) // lambda = 8
	for free := 2; free < 12; free++ {
		f.Feed(graph.Edge{U: free, V: 0, W: 1})
	}
	if got := len(f.support[0]); got != 2 {
		t.Errorf("matched vertex kept %d support edges, want 2", got)
	}
	// A single free vertex hammering many matched vertices is capped at
	// lambda.
	m2 := graph.NewMatching(40)
	for i := 0; i < 19; i++ {
		if err := m2.Add(graph.Edge{U: 2 * i, V: 2*i + 1, W: 1}); err != nil {
			t.Fatal(err)
		}
	}
	f2 := New(m2, 1.0) // lambda = 8
	free := 39         // unmatched (19 edges cover 0..37)
	for i := 0; i < 19; i++ {
		f2.Feed(graph.Edge{U: free, V: 2 * i, W: 1})
	}
	if f2.degS[free] != 8 {
		t.Errorf("free vertex degree = %d, want lambda=8", f2.degS[free])
	}
}

func TestBadBetaDefaults(t *testing.T) {
	m := graph.NewMatching(2)
	f := New(m, -3)
	if f.lambda < 2 {
		t.Errorf("lambda = %d", f.lambda)
	}
	f = New(m, 2.5)
	if f.lambda != 8 {
		t.Errorf("lambda = %d, want 8 for clamped beta=1", f.lambda)
	}
}
