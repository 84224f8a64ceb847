package layered

import (
	"math/rand"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/graph"
)

// gapsFilled reports whether every Y gap of lay holds an edge, read from
// the layers of the Y edges themselves: the test-side twin of
// Layered.EveryGapHasY, which reads the build's per-gap watermarks.
func gapsFilled(lay *Layered) bool {
	seen := make([]bool, lay.K)
	for _, e := range lay.Y {
		seen[lay.LayerOf(e.U)] = true
	}
	for _, ok := range seen {
		if !ok {
			return false
		}
	}
	return true
}

// greedyMatching returns a maximal matching of edges taken in a random
// order: a matching of L′ that is neither empty nor maximum in general.
func greedyMatching(n int, edges []graph.Edge, rng *rand.Rand) *graph.Matching {
	m := graph.NewMatching(n)
	for _, i := range rng.Perm(len(edges)) {
		e := edges[i]
		if !m.IsMatched(e.U) && !m.IsMatched(e.V) {
			if err := m.Add(e); err != nil {
				panic(err)
			}
		}
	}
	return m
}

// emptyGapTally counts what one sweep of checkEmptyGapYieldsNoWalk saw.
type emptyGapTally struct {
	dead    int // pairs with an empty Y gap
	anyGap  int // dead pairs the any-gap rule kept: some gap has a Y edge
	walks   int // walks emitted by pairs with every gap filled
	matched int // L′ matchings tried on dead pairs with a non-empty L′
}

// checkEmptyGapYieldsNoWalk builds every good pair (up to a window per
// class) over a random graph, matching and bipartition, and holds each
// build with an empty Y gap to Invariant 28: AugmentingWalks emits nothing
// for a maximum matching of L′ (Hopcroft–Karp) nor for a random maximal one,
// so the pair contributes no candidate. It also holds EveryGapHasY to the
// Y edges' own layers on every build.
func checkEmptyGapYieldsNoWalk(t *testing.T, rng *rand.Rand, n, m int, gran float64, tally *emptyGapTally) {
	t.Helper()
	inst := graph.RandomGraph(n, m, graph.Weight(8+rng.Intn(120)), rng)
	edges := inst.G.Edges()
	if len(edges) == 0 {
		return
	}
	match := graph.NewMatching(n)
	for i := 0; i < n; i++ {
		mutateMatching(match, edges[rng.Intn(len(edges))], byte(rng.Intn(256)))
	}
	prm := Params{Granularity: gran}.WithDefaults()
	par := Parametrize(n, edges, match, rng)
	s := NewScratch()
	for _, w := range testClassWeights(edges, prm) {
		ix := NewBucketIndex(par, w, prm)
		aMask, bMask, ok := ix.Masks()
		if !ok {
			continue
		}
		for _, tau := range EnumerateGoodPairsMasked(prm, aMask, bMask, 60) {
			lay := BuildIndexed(ix, tau, s)
			filled := gapsFilled(lay)
			if lay.EveryGapHasY() != filled {
				t.Fatalf("tau %+v W=%v: EveryGapHasY=%v, Y edges fill every gap: %v",
					tau, w, lay.EveryGapHasY(), filled)
			}
			if !filled {
				tally.dead++
				if len(lay.Y) > 0 {
					tally.anyGap++
				}
			}
			lp := lay.LPrimeEdges()
			if len(lp) == 0 {
				continue
			}
			bip := &bipartite.Bip{N: lay.NumV, Side: lay.Sides(), Edges: lp}
			for _, mPrime := range []*graph.Matching{
				bipartite.HopcroftKarp(bip).M,
				greedyMatching(lay.NumV, lp, rng),
			} {
				walks, cands := 0, 0
				lay.AugmentingWalks(mPrime, func(walk Walk) {
					walks++
					if _, _, ok := s.BestAugmentation(match, walk); ok {
						cands++
					}
				})
				if filled {
					tally.walks += walks
					continue
				}
				tally.matched++
				if walks != 0 || cands != 0 {
					t.Fatalf("tau %+v W=%v: a pair with an empty Y gap (%d Y edges) emitted %d walks, %d candidates",
						tau, w, len(lay.Y), walks, cands)
				}
			}
		}
	}
}

// TestEmptyGapYieldsNoWalk is Invariant 28's property test: over random
// instances at three granularities, no pair with an empty Y gap yields an
// augmenting walk for any matching of L′, so every pair the any-gap probe
// kept but the every-gap probe drops contributes no candidate. The sweep
// must reach such pairs, and pairs that do emit walks, or it shows nothing.
func TestEmptyGapYieldsNoWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var tally emptyGapTally
	for trial := 0; trial < 24; trial++ {
		n := 8 + rng.Intn(24)
		gran := []float64{0.5, 0.25, 0.125}[trial%3]
		checkEmptyGapYieldsNoWalk(t, rng, n, 2*n+rng.Intn(3*n), gran, &tally)
	}
	if tally.anyGap == 0 || tally.matched == 0 || tally.walks == 0 {
		t.Fatalf("sweep reached too little: %+v", tally)
	}
	t.Logf("%+v", tally)
}

// FuzzEmptyGapYieldsNoWalk drives the Invariant 28 check over fuzzed
// instance sizes, densities, granularities and draws.
func FuzzEmptyGapYieldsNoWalk(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(3), uint8(2))
	f.Add(int64(2), uint8(20), uint8(1), uint8(1))
	f.Add(int64(3), uint8(4), uint8(5), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, density, granSel uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%30
		gran := []float64{0.5, 0.25, 0.125}[granSel%3]
		var tally emptyGapTally
		checkEmptyGapYieldsNoWalk(t, rng, n, n*(1+int(density)%5), gran, &tally)
	})
}
