package layered

import (
	"math/rand"

	"repro/internal/graph"
)

// Parametrized is the Section 4.3.1 object G_P = (L, R, A, B): a uniformly
// random bipartition of the vertices into L (Side=false) and R (Side=true).
// A, the matched edges crossing the bipartition, and B, the crossing
// unmatched ones, are not materialised: BucketIndex.Reset filters them
// from the bipartition, the matching and the edge list the parametrization
// was drawn over, and an IncIndex maintains its own per-class buckets.
type Parametrized struct {
	N    int
	Side []bool
	M    *graph.Matching

	// edges aliases the caller's edge list; it is not copied.
	edges []graph.Edge
}

// Parametrize draws a uniform bipartition. Edges whose endpoint pair is
// matched in m are treated as matching edges regardless of their stored
// weight (the graph is simple, so the pair identifies the edge).
func Parametrize(n int, edges []graph.Edge, m *graph.Matching, rng *rand.Rand) *Parametrized {
	side := make([]bool, n)
	for v := range side {
		side[v] = rng.Intn(2) == 1
	}
	return ParametrizeWithSide(n, edges, m, side)
}

// ParametrizeWithSide is Parametrize with a fixed bipartition, used by tests
// and by Lemma 4.12-style constructions that need a specific assignment.
func ParametrizeWithSide(n int, edges []graph.Edge, m *graph.Matching, side []bool) *Parametrized {
	return &Parametrized{N: n, Side: side, M: m, edges: edges}
}
