// Package randarrival implements the Section 3 algorithms of
// Gamlath–Kale–Mitrović–Svensson (PODC 2019) for single-pass streaming with
// random edge arrivals: the 0.506-approximation for unweighted matching
// (Theorem 3.4), Wgt-Aug-Paths (Algorithm 1), and the (1/2+c)-approximation
// Rand-Arr-Matching for weighted matching (Algorithm 2, Theorem 1.1).
package randarrival

import (
	"repro/internal/graph"
	"repro/internal/matchutil"
	"repro/internal/stream"
	"repro/internal/unwaug"
)

// UnweightedOptions configures UnweightedRandomArrival.
type UnweightedOptions struct {
	// PrefixFraction is p: the fraction of the stream used to build the
	// initial maximal matching M0. The paper uses a small constant
	// (p <= 0.0001 in the analysis); larger values work better at the
	// instance sizes experiments can afford. Default 0.1.
	PrefixFraction float64
	// Beta is the parameter handed to Unw-3-Aug-Paths. Default 0.3.
	Beta float64
}

func (o *UnweightedOptions) defaults() {
	if o.PrefixFraction <= 0 || o.PrefixFraction >= 1 {
		o.PrefixFraction = 0.1
	}
	if o.Beta <= 0 || o.Beta > 1 {
		o.Beta = 0.3
	}
}

// UnweightedResult reports the outcome of the Theorem 3.4 algorithm together
// with the per-branch diagnostics used by the experiment harness.
type UnweightedResult struct {
	M *graph.Matching
	// Branch names the winning branch: "stored" (max matching among
	// unmatched vertices), "greedy" (continued maximal matching), or
	// "augment" (M0 improved by 3-augmenting paths).
	Branch string
	// Sizes of the three candidate matchings.
	StoredSize, GreedySize, AugmentSize int
	// StoredEdges is |S1|, the space used by the first branch.
	StoredEdges int
}

// UnweightedRandomArrival runs the one-pass Section 3.1 algorithm on a
// random-order stream of an unweighted graph (edge weights are ignored and
// treated as 1): build a maximal matching M0 on the first p fraction, then
// in parallel (a) store edges among M0-free vertices and match them at the
// end, (b) keep growing M0 greedily, and (c) find 3-augmenting paths for M0
// with Unw-3-Aug-Paths; return the largest of the three.
//
// The stream is Reset at entry, as in RandArrMatching: a stream another
// consumer already advanced would otherwise silently shorten the run.
func UnweightedRandomArrival(n int, s stream.EdgeStream, opts UnweightedOptions) UnweightedResult {
	opts.defaults()
	s.Reset()
	total := s.Len()
	prefix := int(opts.PrefixFraction * float64(total))

	unit := func(e graph.Edge) graph.Edge { return graph.Edge{U: e.U, V: e.V, W: 1} }

	m0 := graph.NewMatching(n)
	i := 0
	for ; i < prefix; i++ {
		e, ok := s.Next()
		if !ok {
			break
		}
		e = unit(e)
		if !m0.IsMatched(e.U) && !m0.IsMatched(e.V) {
			mustAdd(m0, e)
		}
	}

	greedy := m0.Clone()
	finder := unwaug.New(m0, opts.Beta)
	var stored []graph.Edge

	for {
		e, ok := s.Next()
		if !ok {
			break
		}
		e = unit(e)
		if !m0.IsMatched(e.U) && !m0.IsMatched(e.V) {
			stored = append(stored, e)
		}
		if !greedy.IsMatched(e.U) && !greedy.IsMatched(e.V) {
			mustAdd(greedy, e)
		}
		finder.Feed(e)
	}

	// Branch (a): M0 plus a maximum matching among the stored edges. The
	// stored subgraph touches only M0-free vertices, so any matching in it
	// extends M0 directly; the exact maximum is computed offline with the
	// blossom algorithm, as the Case-1 analysis requires.
	storedM := m0.Clone()
	if len(stored) > 0 {
		sub, err := graph.FromEdges(n, stored)
		if err == nil {
			for _, e := range matchutil.MaxCardinality(sub).Edges() {
				if !storedM.IsMatched(e.U) && !storedM.IsMatched(e.V) {
					mustAdd(storedM, e)
				}
			}
		}
	}

	// Branch (c): apply the 3-augmentations to a copy of M0.
	aug := m0.Clone()
	for _, p := range finder.Finalize() {
		// Paths are vertex-disjoint and consistent with M0 by
		// construction; Apply validates anyway.
		_, _ = graph.Apply(aug, p.Augmentation())
	}

	res := UnweightedResult{
		StoredSize:  storedM.Size(),
		GreedySize:  greedy.Size(),
		AugmentSize: aug.Size(),
		StoredEdges: len(stored),
	}
	res.M, res.Branch = storedM, "stored"
	if greedy.Size() > res.M.Size() {
		res.M, res.Branch = greedy, "greedy"
	}
	if aug.Size() > res.M.Size() {
		res.M, res.Branch = aug, "augment"
	}
	return res
}

// GreedyRandomArrival is the 1/2-approximation baseline: a single greedy
// maximal matching over the stream (unit weights). The stream is Reset at
// entry, so the pass covers all of it.
func GreedyRandomArrival(n int, s stream.EdgeStream) *graph.Matching {
	s.Reset()
	m := graph.NewMatching(n)
	for e, ok := s.Next(); ok; e, ok = s.Next() {
		if !m.IsMatched(e.U) && !m.IsMatched(e.V) {
			mustAdd(m, graph.Edge{U: e.U, V: e.V, W: 1})
		}
	}
	return m
}

func mustAdd(m *graph.Matching, e graph.Edge) {
	if err := m.Add(e); err != nil {
		panic(err)
	}
}
