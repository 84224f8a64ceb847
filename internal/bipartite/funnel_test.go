package bipartite

import "repro/internal/graph"

// FunnelInstance builds the re-entrant adversarial instance of the
// iterator-DFS A/B (the CI micro gate's BenchmarkHKIterDFS pair and
// TestFunnelBip): m free sources all route their augmenting paths through
// ONE interior left vertex c whose adjacency starts with a p-edge dead
// block, so the cursor-free DFS rescans that block on every one of the m
// re-entries (Θ(m·p + m²) wasted scans) while the iterator form pays for
// each edge once. The shape is the distilled form of what the E13 profile
// showed (interior vertices shared by many alternating paths), not a
// random graph — on random instances re-entrance is rare and the two DFS
// forms tie.
//
// The instance is seeded (c→e, a_j→h_j pre-matched; run it through
// HopcroftKarpSeeded / hopcroftKarpRescan) so the only free rights
// are c's f-block. Source s_0's one edge leads to e, c's current match;
// each later s_i's one edge leads to f_{i-1}, which is free at phase start
// but — because s_{i-1} ran first in the same DFS sweep — is c's match by
// the time s_i scans it. Every source therefore enters c, c advances to
// the next free f, and the source takes over c's previous match: m
// re-entries of c in a single phase, each of which the rescan form pays
// for with a full walk of e + the h dead block + the consumed f-prefix.
// Any right a source could reach directly while it is still free would
// instead be grabbed without touching c (w == -1 wins immediately), which
// is why the chain hands sources only c's trail.
func FunnelInstance(m, p int) (*Bip, []Seed) {
	// Lefts: c, a_0..a_{p-1}, s_0..s_{m-1}; rights: e, h_0..h_{p-1},
	// f_0..f_{m-1}.
	nl := 1 + p + m
	c := 0
	a := func(j int) int { return 1 + j }     // j in [0,p)
	s := func(j int) int { return 1 + p + j } // j in [0,m)
	e := nl
	h := func(j int) int { return nl + 1 + j }     // j in [0,p)
	f := func(j int) int { return nl + 1 + p + j } // j in [0,m)
	n := nl + 1 + p + m
	side := make([]bool, n)
	for v := nl; v < n; v++ {
		side[v] = true
	}
	bip := &Bip{N: n, Side: side}
	add := func(u, v int) int32 {
		bip.Edges = append(bip.Edges, graph.Edge{U: u, V: v, W: 1})
		return int32(len(bip.Edges) - 1)
	}
	seeds := make([]Seed, 0, 1+p)
	seeds = append(seeds, Seed{L: int32(c), R: int32(e), EdgeIndex: add(c, e)})
	for j := 0; j < p; j++ {
		add(c, h(j)) // the dead block every rescan of c re-walks
	}
	for j := 0; j < m; j++ {
		add(c, f(j)) // c's trail: the only free rights in the instance
	}
	for j := 0; j < p; j++ {
		seeds = append(seeds, Seed{L: int32(a(j)), R: int32(h(j)), EdgeIndex: add(a(j), h(j))})
	}
	add(s(0), e)
	for j := 1; j < m; j++ {
		add(s(j), f(j-1))
	}
	return bip, seeds
}
