package bipartite

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/matchutil"
	"repro/internal/stream"
)

// randomBip generates a random bipartite instance with its side array.
func randomBip(t *testing.T, nl, nr, m int, rng *rand.Rand) *Bip {
	t.Helper()
	inst := graph.RandomBipartite(nl, nr, m, 10, rng)
	side := make([]bool, nl+nr)
	for v := nl; v < nl+nr; v++ {
		side[v] = true
	}
	b, err := NewBip(nl+nr, side, inst.G.Edges())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBipValidation(t *testing.T) {
	side := []bool{false, false}
	if _, err := NewBip(2, side, []graph.Edge{{U: 0, V: 1, W: 1}}); err == nil {
		t.Error("same-side edge accepted")
	}
	if _, err := NewBip(3, side, nil); err == nil {
		t.Error("short side accepted")
	}
}

func TestHopcroftKarpAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		b := randomBip(t, 8, 8, 24, rng)
		got := HopcroftKarp(b)
		if err := got.M.Validate(); err != nil {
			t.Fatal(err)
		}
		g, err := graph.FromEdges(b.N, b.Edges)
		if err != nil {
			t.Fatal(err)
		}
		want, err := matchutil.MaxCardinalityExact(g)
		if err != nil {
			t.Fatal(err)
		}
		if got.M.Size() != want.Size() {
			t.Fatalf("trial %d: HK %d != exact %d", trial, got.M.Size(), want.Size())
		}
	}
}

func TestHopcroftKarpPerfectMatching(t *testing.T) {
	// Complete bipartite K_{5,5} has a perfect matching.
	rng := rand.New(rand.NewSource(2))
	b := randomBip(t, 5, 5, 25, rng)
	if got := HopcroftKarp(b); got.M.Size() != 5 {
		t.Errorf("size = %d, want 5", got.M.Size())
	}
}

func TestApproxGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		b := randomBip(t, 30, 30, 200, rng)
		exact := HopcroftKarp(b)
		for _, delta := range []float64{0.5, 0.25, 0.1} {
			approx := Approx(b, delta)
			if float64(approx.M.Size()) < (1-delta)*float64(exact.M.Size()) {
				t.Fatalf("trial %d delta %v: approx %d < (1-δ)·%d",
					trial, delta, approx.M.Size(), exact.M.Size())
			}
			if approx.Phases > exact.Phases && exact.Phases > 0 {
				t.Fatalf("approx used more phases (%d) than exact (%d)", approx.Phases, exact.Phases)
			}
		}
	}
}

func TestApproxZeroDeltaIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := randomBip(t, 20, 20, 100, rng)
	if Approx(b, 0).M.Size() != HopcroftKarp(b).M.Size() {
		t.Error("delta=0 is not exact")
	}
}

func TestStreamingMatchesHKClosely(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		b := randomBip(t, 50, 50, 600, rng)
		exact := HopcroftKarp(b)
		s := stream.FromEdges(b.Edges)
		res := Streaming(b.N, b.Side, s, 0.2, StreamOptions{})
		if err := res.M.Validate(); err != nil {
			t.Fatal(err)
		}
		if float64(res.M.Size()) < 0.8*float64(exact.M.Size()) {
			t.Fatalf("trial %d: streaming %d below 0.8·%d", trial, res.M.Size(), exact.M.Size())
		}
		if res.Passes < 1 {
			t.Error("no passes recorded")
		}
	}
}

func TestStreamingPassBudgetIndependentOfN(t *testing.T) {
	// O_δ(1) shape: pass count must not grow with n.
	rng := rand.New(rand.NewSource(6))
	var passes []int
	for _, n := range []int{40, 80, 160} {
		b := randomBip(t, n, n, 6*n, rng)
		s := stream.FromEdges(b.Edges)
		res := Streaming(b.N, b.Side, s, 0.25, StreamOptions{})
		passes = append(passes, res.Passes)
	}
	// The budget is 1 + rounds·layers with rounds ≤ 4·ceil(1/δ); just
	// assert the hard cap and rough flatness.
	limit := 1 + 4*4*4
	for i, p := range passes {
		if p > limit {
			t.Errorf("n index %d: %d passes exceeds budget %d", i, p, limit)
		}
	}
}

func TestStreamingOnAugChain(t *testing.T) {
	// Bipartite path of length 3: greedy can pick the middle edge; the
	// augmenting rounds must fix it to the perfect matching.
	side := []bool{false, true, false, true}
	edges := []graph.Edge{
		{U: 1, V: 2, W: 1}, // middle arrives first -> greedy picks it
		{U: 0, V: 1, W: 1},
		{U: 2, V: 3, W: 1},
	}
	res := Streaming(4, side, stream.FromEdges(edges), 0.2, StreamOptions{})
	if res.M.Size() != 2 {
		t.Errorf("size = %d, want 2 after augmenting", res.M.Size())
	}
}

func TestMPCMatchesHKCloselyAndCountsRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := randomBip(t, 60, 60, 900, rng)
	exact := HopcroftKarp(b)
	res, err := MPC(b, 0.2, 4, 4*b.N, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.M.Validate(); err != nil {
		t.Fatal(err)
	}
	if float64(res.M.Size()) < 0.8*float64(exact.M.Size()) {
		t.Fatalf("MPC %d below 0.8·%d", res.M.Size(), exact.M.Size())
	}
	if res.Sim.Rounds() == 0 {
		t.Error("no rounds counted")
	}
	if res.MaximalRounds+res.AugmentRounds != res.Sim.Rounds() {
		t.Errorf("round split %d+%d != total %d",
			res.MaximalRounds, res.AugmentRounds, res.Sim.Rounds())
	}
}

func TestMPCMemoryEnforced(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b := randomBip(t, 40, 40, 600, rng)
	// Absurdly small memory must trip the accountant.
	if _, err := MPC(b, 0.2, 2, 5, rng); err == nil {
		t.Error("tiny memory accepted")
	}
}

func TestMPCPerfectOnDisjointEdges(t *testing.T) {
	// Trivial instance: n disjoint edges; maximal stage alone must find all.
	n := 20
	side := make([]bool, 2*n)
	edges := make([]graph.Edge, 0, n)
	for i := 0; i < n; i++ {
		side[2*i+1] = true
		edges = append(edges, graph.Edge{U: 2 * i, V: 2*i + 1, W: 1})
	}
	b, err := NewBip(2*n, side, edges)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	res, err := MPC(b, 0.5, 3, 10*n, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Size() != n {
		t.Errorf("size = %d, want %d", res.M.Size(), n)
	}
}

func TestKoenigCertifiesHopcroftKarp(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 25; trial++ {
		b := randomBip(t, 25, 25, 220, rng)
		res := HopcroftKarp(b)
		if !CertifyMaximum(b, res.M) {
			t.Fatalf("trial %d: König certificate failed for HK output", trial)
		}
	}
}

func TestKoenigRejectsNonMaximum(t *testing.T) {
	// A maximal-but-not-maximum matching must fail certification.
	side := []bool{false, true, false, true}
	edges := []graph.Edge{
		{U: 1, V: 2, W: 1},
		{U: 0, V: 1, W: 1},
		{U: 2, V: 3, W: 1},
	}
	b, err := NewBip(4, side, edges)
	if err != nil {
		t.Fatal(err)
	}
	m := graph.NewMatching(4)
	if err := m.Add(graph.Edge{U: 1, V: 2, W: 1}); err != nil {
		t.Fatal(err)
	}
	if CertifyMaximum(b, m) {
		t.Error("non-maximum matching certified")
	}
}

func TestVertexCoverCoversAllEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		b := randomBip(t, 15, 20, 120, rng)
		res := HopcroftKarp(b)
		cover := VertexCover(b, res.M)
		if !IsVertexCover(b, cover) {
			t.Fatalf("trial %d: König set is not a cover", trial)
		}
		if len(cover) != res.M.Size() {
			t.Fatalf("trial %d: |cover| %d != |M| %d", trial, len(cover), res.M.Size())
		}
	}
}

func TestStreamingPreservesEdgeWeights(t *testing.T) {
	// Regression: the Section 4 reduction consumes the solver's matching in
	// symmetric differences, so edges must carry their true weights (a unit
	// weight here once silently zeroed every reduction gain).
	side := []bool{false, true, false, true}
	edges := []graph.Edge{
		{U: 0, V: 1, W: 70},
		{U: 2, V: 3, W: 90},
	}
	res := Streaming(4, side, stream.FromEdges(edges), 0.2, StreamOptions{})
	if res.M.Weight() != 160 {
		t.Errorf("streaming matching weight = %d, want 160", res.M.Weight())
	}
}

func TestStreamingAugmentedEdgesKeepWeights(t *testing.T) {
	// Greedy picks the middle edge; the augmenting round replaces it with
	// the outer edges, which must keep their true weights.
	side := []bool{false, true, false, true}
	edges := []graph.Edge{
		{U: 1, V: 2, W: 10}, // arrives first
		{U: 0, V: 1, W: 30},
		{U: 2, V: 3, W: 50},
	}
	res := Streaming(4, side, stream.FromEdges(edges), 0.2, StreamOptions{})
	if res.M.Size() != 2 {
		t.Fatalf("size = %d, want 2", res.M.Size())
	}
	if res.M.Weight() != 80 {
		t.Errorf("weight = %d, want 80 (real weights through augmentation)", res.M.Weight())
	}
}

func TestMPCPreservesEdgeWeights(t *testing.T) {
	side := []bool{false, true, false, true}
	edges := []graph.Edge{
		{U: 0, V: 1, W: 70},
		{U: 2, V: 3, W: 90},
	}
	b, err := NewBip(4, side, edges)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MPC(b, 0.2, 2, 100, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Weight() != 160 {
		t.Errorf("MPC matching weight = %d, want 160", res.M.Weight())
	}
}

func TestMPCCommunicationAccounted(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	b := randomBip(t, 40, 40, 500, rng)
	res, err := MPC(b, 0.25, 4, 8*b.N, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim.TotalComm() == 0 {
		t.Error("no communication recorded")
	}
	if res.Sim.PeakRoundComm() > res.Sim.TotalComm() {
		t.Error("peak round comm exceeds total")
	}
}
