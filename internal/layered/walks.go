package layered

import (
	"repro/internal/graph"
)

// This file is the allocation-free fast path from a solved layered graph to
// weighted augmentations: extract the augmenting paths of ML' Δ M' directly
// (instead of materialising every alternating component of the symmetric
// difference), and scan the Lemma 4.11 decomposition for the best-gain
// component before constructing only that one augmentation.

// AugmentingWalks invokes fn for every augmenting path of ML' Δ M' (M' the
// solver's matching over compact layered ids), projected to original
// vertices as a Walk — the Algorithm 4 line 8-9 step. A component of the
// symmetric difference is an augmenting path exactly when both of its end
// edges belong to M', i.e. both endpoints are free in ML' and matched in
// M'; the extraction walks only from such endpoints, so alternating cycles
// and half-augmenting paths are never materialised. The Walk's slices are
// reused between invocations: fn must not retain them.
func (l *Layered) AugmentingWalks(mPrime *graph.Matching, fn func(Walk)) {
	s := l.scratch
	if len(l.InteriorX) == 0 {
		// No interior matched edges: ML' is empty, so every M' edge is by
		// itself an augmenting path. Emitting each from its smaller
		// endpoint reproduces the generic extraction's walks in its order
		// (the ascending scan reaches the smaller endpoint first) without
		// building ML' or the visited set.
		for v := 0; v < l.NumV; v++ {
			u := mPrime.Mate(v)
			if u <= v { // unmatched (-1) or already emitted from u
				continue
			}
			s.walkMatched = append(s.walkMatched[:0], false)
			s.walkWeights = append(s.walkWeights[:0], mPrime.EdgeWeightAt(v))
			s.walkOrig = append(s.walkOrig[:0], l.Orig(v), l.Orig(u))
			fn(Walk{Vertices: s.walkOrig, Matched: s.walkMatched, Weights: s.walkWeights})
		}
		return
	}
	mlp := l.MatchingLPrime()
	if cap(s.visited) < l.NumV {
		s.visited = make([]bool, l.NumV)
	}
	visited := s.visited[:l.NumV]
	clear(visited)

	for v := 0; v < l.NumV; v++ {
		if visited[v] || mlp.IsMatched(v) || !mPrime.IsMatched(v) {
			continue
		}
		// v is one end of an augmenting-path candidate. Alternate
		// M'-edge, ML'-edge, ... skipping edges present in both matchings
		// (they cancel in the symmetric difference; at an endpoint the
		// first edge never cancels because v is free in ML').
		verts := s.walkVerts[:0]
		matched := s.walkMatched[:0]
		weights := s.walkWeights[:0]
		verts = append(verts, int32(v))
		visited[v] = true
		cur, inPrime := v, true
		for {
			var nxt int
			if inPrime {
				nxt = mPrime.Mate(cur)
				if nxt == mlp.Mate(cur) {
					nxt = graph.Unmatched
				}
			} else {
				nxt = mlp.Mate(cur)
				if nxt == mPrime.Mate(cur) {
					nxt = graph.Unmatched
				}
			}
			if nxt == graph.Unmatched {
				break
			}
			if inPrime {
				weights = append(weights, mPrime.EdgeWeightAt(cur))
			} else {
				weights = append(weights, mlp.EdgeWeightAt(cur))
			}
			matched = append(matched, !inPrime)
			verts = append(verts, int32(nxt))
			visited[nxt] = true
			cur, inPrime = nxt, !inPrime
		}
		s.walkVerts, s.walkMatched, s.walkWeights = verts, matched, weights
		// The walk ended because cur has no further diff edge. It is an
		// augmenting path for ML' exactly when its last edge came from M':
		// inPrime now names the edge type that was missing, so a true value
		// means the walk ended after an ML' edge and is not augmenting.
		if len(matched) == 0 || inPrime {
			continue
		}
		// Project to original vertices in place.
		if cap(s.walkOrig) < len(verts) {
			s.walkOrig = make([]int, 0, 2*len(verts))
		}
		orig := s.walkOrig[:0]
		for _, id := range verts {
			orig = append(orig, l.Orig(int(id)))
		}
		s.walkOrig = orig
		fn(Walk{Vertices: orig, Matched: matched, Weights: weights})
	}
}

// BestAugmentation is the scratch-arena variant of the package-level
// BestAugmentation: it decomposes the walk into the arena (Lemma 4.11),
// scans component gains without building augmentations, and constructs only
// the winning component's augmentation. The returned Augmentation owns its
// slices; everything else lives in the arena.
func (s *Scratch) BestAugmentation(m *graph.Matching, w Walk) (graph.Augmentation, graph.Weight, bool) {
	if w.Len() == 0 {
		return graph.Augmentation{}, 0, false
	}
	s.decompose(w)

	bestGain := graph.Weight(0)
	best := -1
	for c := 0; c+1 < len(s.compOff); c++ {
		gain, ok := s.componentGain(m, c)
		if ok && gain > 0 && (best < 0 || gain > bestGain) {
			best, bestGain = c, gain
		}
	}
	if best < 0 {
		return graph.Augmentation{}, 0, false
	}
	add := make([]graph.Edge, 0, s.compLen(best)/2+1)
	s.eachAdd(best, func(e graph.Edge) {
		add = append(add, e)
	})
	return graph.PathAugmentation(m, add), bestGain, true
}

// decompose runs the Lemma 4.11 stack decomposition of Decompose, flattening
// the resulting components into the arena: component c occupies positions
// [compOff[c], compOff[c+1]) of compV/compM/compW, with compCycle[c] marking
// cycles. Paths store len(V) = len(M)+1 entries of compV; cycles store
// len(V) = len(M) (the first vertex is not repeated).
func (s *Scratch) decompose(w Walk) {
	s.compV, s.compM, s.compW = s.compV[:0], s.compM[:0], s.compW[:0]
	s.compOff, s.compCycle = s.compOff[:0], s.compCycle[:0]
	s.compOff = append(s.compOff, 0)
	s.stackV = s.stackV[:0]
	s.stackM = s.stackM[:0]
	s.stackW = s.stackW[:0]

	push := func(v int) {
		s.stackV = append(s.stackV, v)
		s.stackM = append(s.stackM, false)
		s.stackW = append(s.stackW, 0)
	}
	push(w.Vertices[0])
	for i := 0; i < w.Len(); i++ {
		top := len(s.stackV) - 1
		s.stackM[top] = w.Matched[i]
		s.stackW[top] = w.Weights[i]
		next := w.Vertices[i+1]
		// Walks are short (bounded by the layer count), so a linear scan
		// for the repeated vertex beats maintaining a position map.
		j := -1
		for idx := top; idx >= 0; idx-- {
			if s.stackV[idx] == next {
				j = idx
				break
			}
		}
		if j >= 0 {
			// Pop the cycle stack[j..top] closed by the current edge.
			for idx := j; idx < len(s.stackV); idx++ {
				s.compV = append(s.compV, s.stackV[idx])
				s.compM = append(s.compM, s.stackM[idx])
				s.compW = append(s.compW, s.stackW[idx])
			}
			s.compOff = append(s.compOff, len(s.compV))
			s.compCycle = append(s.compCycle, true)
			s.stackV = s.stackV[:j+1]
			s.stackM[j] = false
			s.stackW[j] = 0
			continue
		}
		push(next)
	}
	if len(s.stackV) > 1 {
		s.compV = append(s.compV, s.stackV...)
		s.compM = append(s.compM, s.stackM[:len(s.stackM)-1]...)
		s.compW = append(s.compW, s.stackW[:len(s.stackW)-1]...)
		s.compOff = append(s.compOff, len(s.compV))
		s.compCycle = append(s.compCycle, false)
	}
}

// compLen returns the number of stored vertices of component c.
func (s *Scratch) compLen(c int) int { return s.compOff[c+1] - s.compOff[c] }

// eachAdd yields the unmatched (to-add) edges of component c, in order.
func (s *Scratch) eachAdd(c int, fn func(graph.Edge)) {
	off, end := s.compOff[c], s.compOff[c+1]
	nv := end - off
	edges := nv // cycle: one edge per vertex
	if !s.compCycle[c] {
		edges = nv - 1
	}
	for i := 0; i < edges; i++ {
		if s.compM[off+i] {
			continue
		}
		u := s.compV[off+i]
		v := s.compV[off+(i+1)%nv]
		fn(graph.Edge{U: u, V: v, W: s.compW[off+i]})
	}
}

// componentGain computes the gain of applying component c to m — exactly
// PathAugmentation(m, adds).Gain() — without building the augmentation: the
// removed set is every distinct matched edge of m incident to an add-edge
// endpoint, deduplicated by counting an edge at its smaller endpoint when
// both endpoints belong to the component's add edges. ok is false when the
// add edges are not vertex-disjoint (degenerate input guard, as in
// BestAugmentation).
func (s *Scratch) componentGain(m *graph.Matching, c int) (graph.Weight, bool) {
	var gain graph.Weight
	adds := 0
	disjoint := true
	isAddEndpoint := func(v int) bool {
		found := false
		s.eachAdd(c, func(e graph.Edge) {
			if e.U == v || e.V == v {
				found = true
			}
		})
		return found
	}
	var endpoints [2]int
	s.eachAdd(c, func(e graph.Edge) {
		adds++
		gain += e.W
		endpoints[0], endpoints[1] = e.U, e.V
		for _, v := range endpoints {
			u := m.Mate(v)
			if u == graph.Unmatched {
				continue
			}
			// Count the removed edge once: skip at the larger endpoint
			// when its mate is also an add endpoint.
			if v > u && isAddEndpoint(u) {
				continue
			}
			gain -= m.EdgeWeightAt(v)
		}
	})
	if adds == 0 {
		return 0, false
	}
	// Vertex-disjointness guard, quadratic over the (short) add list.
	s.eachAdd(c, func(e graph.Edge) {
		seen := 0
		s.eachAdd(c, func(f graph.Edge) {
			for _, v := range [2]int{e.U, e.V} {
				if f.U == v || f.V == v {
					seen++
				}
			}
		})
		// Each endpoint of e appears exactly once across all add edges
		// (its own); a higher count means sharing.
		if seen != 2 {
			disjoint = false
		}
	})
	if !disjoint {
		return 0, false
	}
	return gain, true
}
