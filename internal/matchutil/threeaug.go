package matchutil

import (
	"repro/internal/graph"
)

// ThreeAugPath is a length-3 augmenting path a–u–v–b with respect to a
// matching: (u,v) is matched, a and b are free, and a != b.
type ThreeAugPath struct {
	A, U, V, B int
	WA, WM, WB graph.Weight // weights of a–u, u–v, v–b
}

// Augmentation converts the path to a graph.Augmentation.
func (p ThreeAugPath) Augmentation() graph.Augmentation {
	return graph.Augmentation{
		Remove: []graph.Edge{{U: p.U, V: p.V, W: p.WM}},
		Add: []graph.Edge{
			{U: p.A, V: p.U, W: p.WA},
			{U: p.V, V: p.B, W: p.WB},
		},
	}
}

// FindThreeAugPaths greedily extracts a maximal set of vertex-disjoint
// 3-augmenting paths of m inside g. It is an offline reference: no solver
// or experiment calls it; this package's tests do. Cardinality semantics:
// any free–matched–matched–free path qualifies regardless of weights.
func FindThreeAugPaths(g *graph.Graph, m *graph.Matching) []ThreeAugPath {
	n := g.N()
	adj := g.Adjacency()
	used := make([]bool, n)
	var out []ThreeAugPath
	for u := 0; u < n; u++ {
		v := m.Mate(u)
		if v == graph.Unmatched || v < u || used[u] || used[v] {
			continue
		}
		a, wa := freeNeighbour(adj, m, used, u, -1)
		if a < 0 {
			continue
		}
		b, wb := freeNeighbour(adj, m, used, v, a)
		if b < 0 {
			// a might also be the only free neighbour of v; try the
			// symmetric orientation before giving up.
			a2, wa2 := freeNeighbour(adj, m, used, v, -1)
			if a2 < 0 {
				continue
			}
			b2, wb2 := freeNeighbour(adj, m, used, u, a2)
			if b2 < 0 {
				continue
			}
			out = append(out, ThreeAugPath{A: a2, U: v, V: u, B: b2, WA: wa2, WM: m.EdgeWeightAt(u), WB: wb2})
			used[a2], used[u], used[v], used[b2] = true, true, true, true
			continue
		}
		out = append(out, ThreeAugPath{A: a, U: u, V: v, B: b, WA: wa, WM: m.EdgeWeightAt(u), WB: wb})
		used[a], used[u], used[v], used[b] = true, true, true, true
	}
	return out
}

func freeNeighbour(adj [][]graph.IncidentEdge, m *graph.Matching, used []bool, v, exclude int) (int, graph.Weight) {
	for _, ie := range adj[v] {
		if ie.To != exclude && !used[ie.To] && !m.IsMatched(ie.To) {
			return ie.To, ie.W
		}
	}
	return -1, 0
}

// CountThreeAugmentable returns the number of matched edges of m that lie on
// at least one 3-augmenting path in g (ignoring vertex-disjointness). This
// is the quantity bounded by Lemma 3.2.
func CountThreeAugmentable(g *graph.Graph, m *graph.Matching) int {
	n := g.N()
	adj := g.Adjacency()
	// No vertex is used up here, and freeNeighbour only reads the set, so
	// one all-false slice serves every call.
	unused := make([]bool, n)
	count := 0
	for u := 0; u < n; u++ {
		v := m.Mate(u)
		if v == graph.Unmatched || v < u {
			continue
		}
		a, _ := freeNeighbour(adj, m, unused, u, -1)
		if a < 0 {
			continue
		}
		b, _ := freeNeighbour(adj, m, unused, v, a)
		if b >= 0 {
			count++
			continue
		}
		a2, _ := freeNeighbour(adj, m, unused, v, -1)
		if a2 < 0 {
			continue
		}
		if b2, _ := freeNeighbour(adj, m, unused, u, a2); b2 >= 0 {
			count++
		}
	}
	return count
}
