package bipartite

import (
	"math"

	"repro/internal/graph"
	"repro/internal/stream"
)

// streamingNaive is the pre-arena Streaming retained verbatim as the
// executable reference for Invariant 27 (map-backed tips, per-path vertex
// slices, hand-counted passes). The accountant charge sequence matches the
// flat form exactly so the two report identical peaks. It lives in test
// code: TestStreamingFlatNaiveBitIdentical and BenchmarkStreamingNaive are
// its only callers.
func streamingNaive(n int, side []bool, s stream.EdgeStream, delta float64, acct *stream.Accountant) StreamResult {
	if delta <= 0 || delta > 1 {
		delta = 0.1
	}
	ell := int(math.Ceil(1 / delta))
	maxLen := 2*ell - 1
	layers := (maxLen + 1) / 2
	maxRounds := 4 * ell

	charge := func(delta int) {
		if acct != nil {
			acct.Hold(delta)
		}
	}

	res := StreamResult{M: graph.NewMatching(n)}

	s.Reset()
	res.Passes++
	for e, ok := s.Next(); ok; e, ok = s.Next() {
		if !res.M.IsMatched(e.U) && !res.M.IsMatched(e.V) {
			mustAdd(res.M, e)
		}
	}
	res.PeakStored = res.M.Size()
	charge(res.M.Size())

	for round := 0; round < maxRounds; round++ {
		charged := 0
		completed := growAugmentingPaths(n, side, res.M, layers, func() {
			s.Reset()
			res.Passes++
		}, func(visit func(l, r int, w graph.Weight)) {
			for e, ok := s.Next(); ok; e, ok = s.Next() {
				l, r := orient(side, e)
				visit(l, r, e.W)
			}
		}, &res.PeakStored, charge, &charged)
		before := res.M.Size()
		applied := applyAugPaths(res.M, completed)
		charge(res.M.Size() - before)
		charge(-charged)
		if applied == 0 {
			break
		}
	}
	charge(-res.M.Size())
	return res
}

// augPath is a partial or complete alternating path: Vertices alternates
// left/right and Weights[i] is the weight of the edge Vertices[i] to
// Vertices[i+1].
type augPath struct {
	Vertices []int
	Weights  []graph.Weight
}

// growAugmentingPaths grows a maximal set of vertex-disjoint augmenting
// paths from the free left vertices, one unmatched-edge layer at a time.
// beginLayer is called before each layer (e.g. to start a stream pass);
// scanLayer must call visit(l, r) for every available edge. Returned paths
// are vertex sequences l0, r0, l1, r1, ..., rk ending at a free right
// vertex. This is the retained naive grower behind streamingNaive.
func growAugmentingPaths(
	n int,
	side []bool,
	m *graph.Matching,
	layers int,
	beginLayer func(),
	scanLayer func(visit func(l, r int, w graph.Weight)),
	peak *int,
	charge func(int),
	charged *int,
) []augPath {
	tip := make(map[int]int) // left tip vertex -> path index
	var paths []augPath
	used := make([]bool, n)
	for v := 0; v < n; v++ {
		if !side[v] && !m.IsMatched(v) {
			tip[v] = len(paths)
			paths = append(paths, augPath{Vertices: []int{v}})
			used[v] = true
		}
	}
	var completed []augPath

	for layer := 0; layer < layers && len(tip) > 0; layer++ {
		beginLayer()
		scanLayer(func(l, r int, w graph.Weight) {
			idx, active := tip[l]
			if !active || used[r] {
				return
			}
			used[r] = true
			delete(tip, l)
			paths[idx].Vertices = append(paths[idx].Vertices, r)
			paths[idx].Weights = append(paths[idx].Weights, w)
			mate := m.Mate(r)
			if mate == graph.Unmatched {
				completed = append(completed, paths[idx])
				return
			}
			used[mate] = true
			paths[idx].Vertices = append(paths[idx].Vertices, mate)
			paths[idx].Weights = append(paths[idx].Weights, m.EdgeWeightAt(r))
			tip[mate] = idx
		})
		if total := pathStorage(paths); total > *peak {
			*peak = total
		}
		total := pathStorage(paths)
		charge(total - *charged)
		*charged = total
	}
	return completed
}

func pathStorage(paths []augPath) int {
	total := 0
	for _, p := range paths {
		total += len(p.Vertices)
	}
	return total
}

// applyAugPaths applies completed augmenting paths and returns the number
// applied. Edge weights travel with the paths so the matching stays
// weight-faithful.
func applyAugPaths(m *graph.Matching, paths []augPath) int {
	applied := 0
	for _, p := range paths {
		var add, remove []graph.Edge
		for i := 0; i+1 < len(p.Vertices); i += 2 {
			add = append(add, graph.Edge{U: p.Vertices[i], V: p.Vertices[i+1], W: p.Weights[i]})
		}
		for i := 1; i+1 < len(p.Vertices); i += 2 {
			remove = append(remove, graph.Edge{U: p.Vertices[i], V: p.Vertices[i+1], W: m.EdgeWeightAt(p.Vertices[i])})
		}
		if _, err := graph.Apply(m, graph.Augmentation{Remove: remove, Add: add}); err == nil {
			applied++
		}
	}
	return applied
}
