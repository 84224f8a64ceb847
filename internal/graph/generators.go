package graph

import (
	"math/rand"
)

// Generators produce the workloads used by tests and the experiment harness.
// Families with a planted optimal matching expose the optimum weight so that
// approximation ratios can be measured exactly at scales where exact solvers
// are infeasible. All generators take an explicit *rand.Rand so that every
// experiment is reproducible from its seed.

// Instance couples a graph with a known-optimal matching weight. OptWeight
// is exact for planted families and a certified lower bound otherwise (see
// the individual generators).
type Instance struct {
	G *Graph
	// OptWeight is the weight of a maximum weight matching when OptExact,
	// and a lower bound on it otherwise.
	OptWeight Weight
	// OptExact records whether OptWeight is exactly optimal.
	OptExact bool
	// Opt is a maximum weight matching achieving OptWeight when OptExact
	// (nil otherwise).
	Opt *Matching
}

// randomSimple rejection-samples a random simple graph on n vertices with m
// distinct edges (clamped to the complete graph), drawing each accepted
// edge's weight from the callback — the shared body of the random families.
func randomSimple(n, m int, rng *rand.Rand, weight func() Weight) *Graph {
	g := New(n)
	if max := n * (n - 1) / 2; m > max {
		m = max
	}
	seen := make(map[Key]struct{}, m)
	for len(g.edges) < m {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		k := KeyOf(u, v)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		g.edges = append(g.edges, Edge{U: u, V: v, W: weight()})
	}
	return g
}

// RandomGraph returns a random simple graph on n vertices with (up to) m
// distinct edges and integer weights uniform in [1, maxW]. OPT is unknown;
// the instance reports OptExact=false with OptWeight 0.
func RandomGraph(n, m int, maxW Weight, rng *rand.Rand) Instance {
	return Instance{G: randomSimple(n, m, rng, func() Weight {
		return 1 + Weight(rng.Int63n(int64(maxW)))
	})}
}

// RandomEdgeSource returns a generator producing m random edges on n
// vertices with weights uniform in [1, maxW], one edge per call, holding
// O(1) state. Unlike RandomGraph it does not deduplicate (the stream is a
// multigraph sample), which is exactly what makes it usable for streams
// far larger than RAM: the out-of-core writers consume the generator
// directly and no in-RAM graph ever exists.
func RandomEdgeSource(n, m int, maxW Weight, rng *rand.Rand) func() (Edge, bool) {
	emitted := 0
	return func() (Edge, bool) {
		if emitted >= m || n < 2 {
			return Edge{}, false
		}
		emitted++
		u := rng.Intn(n)
		v := rng.Intn(n - 1)
		if v >= u {
			v++
		}
		return Edge{U: u, V: v, W: 1 + Weight(rng.Int63n(int64(maxW)))}, true
	}
}

// RandomBipartite returns a random bipartite graph with nl left vertices
// (ids [0, nl)) and nr right vertices (ids [nl, nl+nr)), m edges, and
// weights uniform in [1, maxW].
func RandomBipartite(nl, nr, m int, maxW Weight, rng *rand.Rand) Instance {
	g := New(nl + nr)
	seen := make(map[Key]struct{}, m)
	if m > nl*nr {
		m = nl * nr
	}
	for len(g.edges) < m {
		u := rng.Intn(nl)
		v := nl + rng.Intn(nr)
		k := KeyOf(u, v)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		g.edges = append(g.edges, Edge{U: u, V: v, W: 1 + Weight(rng.Int63n(int64(maxW)))})
	}
	return Instance{G: g}
}

// PlantedMatching returns a graph with a known optimal matching. It pairs up
// the (even) n vertices into n/2 planted edges of weight in
// [heavyLow, heavyHigh], then adds noise edges whose weights are capped so
// that no matching can beat the planted one: every noise edge weight is at
// most minHeavy/2 divided by 1, and since a matching contains at most n/2
// edges while the planted matching is perfect with every edge at least
// minHeavy, any matching that deviates on k vertices loses more than it can
// recover. Concretely we cap noise weights at heavyLow/4, which makes the
// planted perfect matching strictly optimal.
func PlantedMatching(n, noiseEdges int, heavyLow, heavyHigh Weight, rng *rand.Rand) Instance {
	if n%2 != 0 {
		n++
	}
	if heavyHigh < heavyLow {
		heavyHigh = heavyLow
	}
	g := New(n)
	perm := rng.Perm(n)
	opt := NewMatching(n)
	var optW Weight
	seen := make(map[Key]struct{}, n/2+noiseEdges)
	for i := 0; i < n; i += 2 {
		u, v := perm[i], perm[i+1]
		w := heavyLow + Weight(rng.Int63n(int64(heavyHigh-heavyLow+1)))
		e := Edge{U: u, V: v, W: w}
		g.edges = append(g.edges, e)
		seen[e.EdgeKey()] = struct{}{}
		// Construction guarantees disjointness, so Add cannot fail.
		if err := opt.Add(e); err != nil {
			panic(err)
		}
		optW += w
	}
	noiseCap := heavyLow / 4
	if noiseCap < 1 {
		noiseCap = 1
	}
	for added := 0; added < noiseEdges; {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		k := KeyOf(u, v)
		if _, dup := seen[k]; dup {
			added++ // avoid livelock on dense requests
			continue
		}
		seen[k] = struct{}{}
		g.edges = append(g.edges, Edge{U: u, V: v, W: 1 + Weight(rng.Int63n(int64(noiseCap)))})
		added++
	}
	return Instance{G: g, OptWeight: optW, OptExact: true, Opt: opt}
}

// BandedWeights returns a random simple graph whose weights are uniform in
// the single octave [low, 2·low) (high is clamped to 2·low−1). Every weight
// then falls within a factor two of every other, so the augmentation classes
// whose windows cover the band see many populated τ units at once: the good-
// pair enumeration yields its largest viable sets and every pair's layered
// graph draws from large buckets. This is the solver-bound E13 family —
// sized up, Hopcroft–Karp dominates round time instead of the bucketing.
// OPT is unknown (OptExact=false).
func BandedWeights(n, m int, low Weight, rng *rand.Rand) Instance {
	if low < 1 {
		low = 1
	}
	span := int64(low) // weights in [low, low+span) = [low, 2*low)
	return Instance{G: randomSimple(n, m, rng, func() Weight {
		return low + Weight(rng.Int63n(span))
	})}
}

// UniformWeights returns a random simple graph with every edge of weight w:
// weighted matching degenerates to maximum cardinality, each augmentation
// class collapses to a handful of good pairs, and every one of those pairs'
// layered graphs spans the full crossing subgraph — the whole round is one
// heavy class handed to the unweighted solver. This is the E14 family;
// consecutive pairs of a class share almost their entire layered graph.
// OPT is unknown (OptExact=false).
func UniformWeights(n, m int, w Weight, rng *rand.Rand) Instance {
	if w < 1 {
		w = 1
	}
	return Instance{G: randomSimple(n, m, rng, func() Weight { return w })}
}

// AugmentingChain builds the classic hard instance for greedy matching: a
// path v0-v1-...-v_{3k} where greedy picks the middle edges of each length-3
// segment first (they are slightly heavier), leaving the optimal outer edges
// unpicked. The optimal matching takes 2k outer edges, greedy takes k middle
// edges — every greedy edge lies on a 3-augmenting path. The instance
// returns the exact optimum.
//
// segments is k, the number of length-3 path segments; midWeight > outWeight
// makes greedy prefer the middle edge.
func AugmentingChain(segments int, outWeight, midWeight Weight, rng *rand.Rand) Instance {
	n := 4 * segments
	g := New(n)
	opt := NewMatching(n)
	var optW Weight
	for s := 0; s < segments; s++ {
		a, b, c, d := 4*s, 4*s+1, 4*s+2, 4*s+3
		g.MustAddEdge(a, b, outWeight)
		g.MustAddEdge(b, c, midWeight)
		g.MustAddEdge(c, d, outWeight)
		if 2*outWeight > midWeight {
			mustAdd(opt, Edge{U: a, V: b, W: outWeight})
			mustAdd(opt, Edge{U: c, V: d, W: outWeight})
			optW += 2 * outWeight
		} else {
			mustAdd(opt, Edge{U: b, V: c, W: midWeight})
			optW += midWeight
		}
	}
	_ = rng
	return Instance{G: g, OptWeight: optW, OptExact: true, Opt: opt}
}

// WeightedCycle builds a single even cycle alternating weights (a, b, a, b,
// ...), the paper's canonical augmenting-cycle example from Section 1.1.2
// (e.g. 3,4,3,4: the weight-3 edges form a perfect matching of weight 6 but
// the optimum is 8 and is reachable only through an augmenting cycle).
// halfLen is the number of edges of each weight; the cycle has 2*halfLen
// edges. The returned Opt takes the b edges when b > a.
func WeightedCycle(halfLen int, a, b Weight) Instance {
	n := 2 * halfLen
	g := New(n)
	opt := NewMatching(n)
	var optW Weight
	wa, wb := a, b
	if wb < wa {
		wa, wb = wb, wa
	}
	for i := 0; i < n; i++ {
		w := a
		if i%2 == 1 {
			w = b
		}
		g.MustAddEdge(i, (i+1)%n, w)
	}
	for i := 0; i < n; i++ {
		if (i%2 == 1) == (b >= a) {
			mustAdd(opt, Edge{U: i, V: (i + 1) % n, W: wb})
			optW += wb
		}
	}
	return Instance{G: g, OptWeight: optW, OptExact: true, Opt: opt}
}

// ThreeAugWorkload builds an unweighted-style instance for Lemma 3.1: a
// matching M of size k where a beta fraction of the matched edges each sit
// on a planted vertex-disjoint 3-augmenting path (two extra free vertices
// with one edge to each endpoint), plus distractor edges between matched
// endpoints. Weights are all 1. The returned Opt is the matching after
// applying every planted augmentation.
func ThreeAugWorkload(k int, beta float64, distractors int, rng *rand.Rand) (Instance, *Matching) {
	augCount := int(beta * float64(k))
	n := 2*k + 2*augCount
	g := New(n)
	m0 := NewMatching(n)
	for i := 0; i < k; i++ {
		g.MustAddEdge(2*i, 2*i+1, 1)
		mustAdd(m0, Edge{U: 2 * i, V: 2*i + 1, W: 1})
	}
	opt := m0.Clone()
	var optW Weight
	order := rng.Perm(k)
	for j := 0; j < augCount; j++ {
		i := order[j]
		a := 2*k + 2*j
		b := 2*k + 2*j + 1
		g.MustAddEdge(a, 2*i, 1)
		g.MustAddEdge(2*i+1, b, 1)
		// Apply the planted augmentation to opt: remove (2i, 2i+1), add both.
		if err := opt.Remove(2*i, 2*i+1); err != nil {
			panic(err)
		}
		mustAdd(opt, Edge{U: a, V: 2 * i, W: 1})
		mustAdd(opt, Edge{U: 2*i + 1, V: b, W: 1})
	}
	seen := make(map[Key]struct{})
	for _, e := range g.edges {
		seen[e.EdgeKey()] = struct{}{}
	}
	for d := 0; d < distractors; d++ {
		u := rng.Intn(2 * k)
		v := rng.Intn(2 * k)
		if u == v {
			continue
		}
		k2 := KeyOf(u, v)
		if _, dup := seen[k2]; dup {
			continue
		}
		seen[k2] = struct{}{}
		g.edges = append(g.edges, Edge{U: u, V: v, W: 1})
	}
	optW = opt.Weight()
	return Instance{G: g, OptWeight: optW, OptExact: true, Opt: opt}, m0
}

// GeometricWeights returns a graph where edge weights span many geometric
// weight classes (powers of base up to maxClass), stressing the
// weight-class machinery of Algorithm 1 and Algorithm 3.
func GeometricWeights(n, m int, base, maxClass int, rng *rand.Rand) Instance {
	g := New(n)
	seen := make(map[Key]struct{}, m)
	for len(g.edges) < m {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		k := KeyOf(u, v)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		w := Weight(1)
		for c := rng.Intn(maxClass); c > 0; c-- {
			w *= Weight(base)
		}
		g.edges = append(g.edges, Edge{U: u, V: v, W: w})
	}
	return Instance{G: g}
}

func mustAdd(m *Matching, e Edge) {
	if err := m.Add(e); err != nil {
		panic(err)
	}
}
