// Package unwaug implements Unw-3-Aug-Paths, the streaming algorithm of
// Lemma 3.1 (based on Kale–Tirodkar [KT17]): initialised with a matching M
// and a parameter β, it watches a stream of edges and maintains a bounded
// support set S; if the stream contains at least β·|M| vertex-disjoint
// 3-augmenting paths, finalisation returns at least (β²/32)·|M| of them
// using O(|M|) space.
package unwaug

import (
	"repro/internal/graph"
	"repro/internal/matchutil"
	"repro/internal/stream"
)

// Finder is one Unw-3-Aug-Paths instance. Construct with New, or revive a
// used one with Reset (the degree array and support table are arenas that
// survive reuse across runs).
type Finder struct {
	m      *graph.Matching
	lambda int
	// degS[v] = number of support edges incident to v. Unmatched vertices
	// are capped at lambda, matched vertices at 2 (the Appendix A.1 rule).
	degS []int
	// support[v] holds the support edges kept at matched vertex v (at most
	// 2 each), so |S| <= 4|M| and total space is O(|M|) + O(active free
	// vertices), as in the lemma.
	support map[int][]graph.Edge
	acct    *stream.Accountant
}

// New returns a finder for matching m with parameter beta in (0, 1].
// Following the proof of Lemma 3.1 it uses lambda = 8/beta.
func New(m *graph.Matching, beta float64) *Finder {
	f := &Finder{}
	f.Reset(m, beta)
	return f
}

// Lambda returns the support-degree cap of an unmatched vertex for
// parameter beta: λ = 8/β, following the proof of Lemma 3.1, and at least
// 2. A beta outside (0, 1] is read as 1.
func Lambda(beta float64) int {
	if beta <= 0 || beta > 1 {
		beta = 1
	}
	lambda := int(8 / beta)
	if lambda < 2 {
		lambda = 2
	}
	return lambda
}

// Reset reinitialises f around m and beta, keeping its arenas: a finder
// reused across runs does not re-allocate the O(n) degree array and the
// support table every run.
func (f *Finder) Reset(m *graph.Matching, beta float64) {
	f.m = m
	f.lambda = Lambda(beta)
	if cap(f.degS) < m.N() {
		f.degS = make([]int, m.N())
	} else {
		f.degS = f.degS[:m.N()]
		clear(f.degS)
	}
	if f.support == nil {
		f.support = make(map[int][]graph.Edge, m.Size()*2)
	} else {
		clear(f.support)
	}
	f.acct = nil
}

// SetAccountant registers a as the resource-accounting authority: every
// kept support edge is charged to it as one held word (the |S| <= 4|M|
// space of Lemma 3.1).
func (f *Finder) SetAccountant(a *stream.Accountant) { f.acct = a }

// Matching returns the initial matching the finder was built around.
func (f *Finder) Matching() *graph.Matching { return f.m }

// Feed offers one stream edge. Edges between two matched or two unmatched
// vertices are ignored; an unmatched–matched edge (u, v) joins the support
// set when deg_S(u) < lambda and deg_S(v) < 2.
func (f *Finder) Feed(e graph.Edge) {
	um, vm := f.m.IsMatched(e.U), f.m.IsMatched(e.V)
	if um == vm {
		return
	}
	free, matched := e.U, e.V
	if um {
		free, matched = e.V, e.U
	}
	if f.degS[free] >= f.lambda || f.degS[matched] >= 2 {
		return
	}
	f.degS[free]++
	f.degS[matched]++
	f.support[matched] = append(f.support[matched], e)
	if f.acct != nil {
		f.acct.Hold(1)
	}
}

// SupportSize returns |S|, the number of stored support edges.
func (f *Finder) SupportSize() int {
	total := 0
	for _, edges := range f.support {
		total += len(edges)
	}
	return total
}

// Finalize greedily extracts vertex-disjoint 3-augmenting paths a–u–v–b from
// S ∪ M: (u,v) in M, a–u and v–b in S, a ≠ b, all four vertices unused by
// previously selected paths.
func (f *Finder) Finalize() []matchutil.ThreeAugPath {
	used := make(map[int]bool, 4*f.m.Size())
	var out []matchutil.ThreeAugPath
	for u := 0; u < f.m.N(); u++ {
		v := f.m.Mate(u)
		if v == graph.Unmatched || v < u || used[u] || used[v] {
			continue
		}
		a, wa := f.pickFree(u, -1, used)
		b, wb := f.pickFree(v, a, used)
		if a < 0 || b < 0 {
			// Try the symmetric orientation: the only free neighbour of u
			// might be needed at v's side instead.
			a, wa = f.pickFree(v, -1, used)
			b, wb = f.pickFree(u, a, used)
			if a < 0 || b < 0 {
				continue
			}
			out = append(out, matchutil.ThreeAugPath{
				A: a, U: v, V: u, B: b,
				WA: wa, WM: f.m.EdgeWeightAt(u), WB: wb,
			})
			used[a], used[u], used[v], used[b] = true, true, true, true
			continue
		}
		out = append(out, matchutil.ThreeAugPath{
			A: a, U: u, V: v, B: b,
			WA: wa, WM: f.m.EdgeWeightAt(u), WB: wb,
		})
		used[a], used[u], used[v], used[b] = true, true, true, true
	}
	return out
}

// pickFree returns a free (unmatched, unused) support neighbour of matched
// vertex v other than exclude, with the support edge weight.
func (f *Finder) pickFree(v, exclude int, used map[int]bool) (int, graph.Weight) {
	for _, e := range f.support[v] {
		free := e.Other(v)
		if free != exclude && !used[free] && !f.m.IsMatched(free) {
			return free, e.W
		}
	}
	return -1, 0
}
