package layered

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// coord is a layered vertex in builder-independent coordinates.
type coord struct {
	layer, orig int
}

// fastEdgeCoords maps a fast-build edge to builder-independent coordinates.
func fastEdgeCoords(l *Layered, e graph.Edge) (coord, coord, graph.Weight) {
	return coord{l.LayerOf(e.U), l.Orig(e.U)}, coord{l.LayerOf(e.V), l.Orig(e.V)}, e.W
}

// refEdgeCoords maps a reference-build edge to the same coordinates.
func refEdgeCoords(r *ReferenceLayered, e graph.Edge) (coord, coord, graph.Weight) {
	return coord{r.LayerOf(e.U), r.Orig(e.U)}, coord{r.LayerOf(e.V), r.Orig(e.V)}, e.W
}

// assertSameEdges compares an edge list of the fast builder with the
// reference builder's elementwise (both emit edges in the same layer-major,
// input-edge-order sequence).
func assertSameEdges(t *testing.T, what string, l *Layered, fast []graph.Edge, r *ReferenceLayered, ref []graph.Edge) {
	t.Helper()
	if len(fast) != len(ref) {
		t.Fatalf("%s: fast has %d edges, reference %d", what, len(fast), len(ref))
	}
	for i := range fast {
		fu, fv, fw := fastEdgeCoords(l, fast[i])
		ru, rv, rw := refEdgeCoords(r, ref[i])
		if fu != ru || fv != rv || fw != rw {
			t.Fatalf("%s edge %d: fast (%v,%v,w=%d) != reference (%v,%v,w=%d)",
				what, i, fu, fv, fw, ru, rv, rw)
		}
	}
}

// TestBuildMatchesReference is the equivalence property of the optimised
// pipeline: over random graphs, random bipartitions, and every enumerated
// good pair at several class weights, the bucketed compact-id Build must
// produce exactly the layered graph of the naive reference builder, up to
// the id relabeling (compared in (layer, original-vertex) coordinates).
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	prm := Params{}.WithDefaults()
	pairs := EnumerateGoodPairs(prm)

	for trial := 0; trial < 12; trial++ {
		n := 10 + rng.Intn(40)
		m := n * (2 + rng.Intn(4))
		maxW := graph.Weight(1 << (4 + rng.Intn(6)))
		inst := graph.PlantedMatching(n, m, maxW/2, maxW, rng)
		par := Parametrize(inst.G.N(), inst.G.Edges(), inst.Opt, rng)

		// Class weights around the instance scale, including an anchored
		// one that puts edge weights exactly on window boundaries.
		ws := []float64{float64(maxW), float64(maxW) * 1.7, float64(maxW) / 3,
			float64(maxW) / (prm.Granularity * 3)}
		scratch := NewScratch()
		for _, w := range ws {
			ix := scratch.Index(par, w, prm)
			for pi, tau := range pairs {
				if pi%7 != trial%7 { // subsample pairs per trial for speed
					continue
				}
				fast := BuildIndexed(ix, tau, scratch)
				ref := BuildReference(par, tau, w, prm)

				assertSameEdges(t, "X", fast, fast.X, ref, ref.X)
				assertSameEdges(t, "Y", fast, fast.Y, ref, ref.Y)
				assertSameEdges(t, "InteriorX", fast, fast.InteriorX, ref, ref.InteriorX)

				// Compact ids must cover exactly the endpoints of surviving
				// edges, each decoding to a live (layer, vertex) copy.
				live := make(map[coord]bool)
				for _, e := range ref.X {
					live[coord{ref.LayerOf(e.U), ref.Orig(e.U)}] = true
					live[coord{ref.LayerOf(e.V), ref.Orig(e.V)}] = true
				}
				for _, e := range ref.Y {
					live[coord{ref.LayerOf(e.U), ref.Orig(e.U)}] = true
					live[coord{ref.LayerOf(e.V), ref.Orig(e.V)}] = true
				}
				if fast.NumV != len(live) {
					t.Fatalf("NumV = %d, want %d live endpoints", fast.NumV, len(live))
				}
				for id := 0; id < fast.NumV; id++ {
					c := coord{fast.LayerOf(id), fast.Orig(id)}
					if !live[c] {
						t.Fatalf("compact id %d decodes to %v, which the reference removed", id, c)
					}
					if ref.Removed[ref.ID(c.layer, c.orig)] {
						t.Fatalf("compact id %d decodes to %v, marked Removed by reference", id, c)
					}
					if got := fast.ID(c.layer, c.orig); got != id {
						t.Fatalf("ID(%d,%d) = %d, want %d", c.layer, c.orig, got, id)
					}
				}
			}
		}
	}
}

// TestBuildScratchReuseIsStable re-runs the same build twice through one
// scratch arena with other builds in between, checking the arena leaks no
// state across (τ, W) pairs.
func TestBuildScratchReuseIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := graph.PlantedMatching(30, 120, 50, 100, rng)
	par := Parametrize(inst.G.N(), inst.G.Edges(), inst.Opt, rng)
	prm := Params{}.WithDefaults()
	pairs := EnumerateGoodPairs(prm)

	scratch := NewScratch()
	ix := scratch.Index(par, 100, prm)
	snapshot := func(l *Layered) ([]graph.Edge, []graph.Edge, int) {
		return append([]graph.Edge(nil), l.X...), append([]graph.Edge(nil), l.Y...), l.NumV
	}
	firstX, firstY, firstN := snapshot(BuildIndexed(ix, pairs[0], scratch))
	for _, tau := range pairs[1:40] {
		BuildIndexed(ix, tau, scratch)
	}
	againX, againY, againN := snapshot(BuildIndexed(ix, pairs[0], scratch))
	if firstN != againN || len(firstX) != len(againX) || len(firstY) != len(againY) {
		t.Fatalf("scratch reuse changed shape: (%d,%d,%d) vs (%d,%d,%d)",
			firstN, len(firstX), len(firstY), againN, len(againX), len(againY))
	}
	for i := range firstX {
		if firstX[i] != againX[i] {
			t.Fatalf("X[%d] differs after reuse: %v vs %v", i, firstX[i], againX[i])
		}
	}
	for i := range firstY {
		if firstY[i] != againY[i] {
			t.Fatalf("Y[%d] differs after reuse: %v vs %v", i, firstY[i], againY[i])
		}
	}
}

// TestScratchStampWrap runs from-scratch builds across the wrap of the
// arena's uint32 build stamp. A sweep of pairs over several class weights
// is built at stamps 1, 2, …; the stamp then jumps to 2³²−1 and the sweep
// is built again in reverse order, so the first build after the jump wraps
// the stamp back to 1 and every later one reuses a stamp that a different
// pair's build left in the id table. Those entries must not survive the
// wrap: the vertex filter reads a current entry as "this copy has an X
// edge". Every build must equal the same pair built on a fresh arena.
func TestScratchStampWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inst := graph.PlantedMatching(30, 150, 40, 80, rng)
	m := graph.NewMatching(inst.G.N())
	for i, e := range inst.Opt.Edges() {
		if i%2 == 0 { // leave half the planted edges free
			mustAddMatched(t, m, e)
		}
	}
	par := Parametrize(inst.G.N(), inst.G.Edges(), m, rng)
	prm := Params{Granularity: 0.25}.WithDefaults()
	type build struct {
		ix  *BucketIndex
		tau TauPair
	}
	var sweep []build
	for _, w := range []float64{80, 60, 45} {
		ix := NewBucketIndex(par, w, prm)
		aMask, bMask, _ := ix.Masks()
		for _, tau := range EnumerateGoodPairsMasked(prm, aMask, bMask, 0) {
			sweep = append(sweep, build{ix, tau})
		}
	}
	if len(sweep) < 10 {
		t.Fatalf("sweep has %d pairs, want at least 10", len(sweep))
	}
	s := NewScratch()
	check := func(label string, b build) {
		assertSameLayered(t, label, BuildIndexed(b.ix, b.tau, s), BuildIndexed(b.ix, b.tau, nil))
	}
	for _, b := range sweep {
		check("before the wrap", b)
	}
	s.stamp = math.MaxUint32
	for i := len(sweep) - 1; i >= 0; i-- {
		check("after the wrap", sweep[i])
		if i == len(sweep)-1 && s.stamp != 1 {
			t.Fatalf("stamp %d after the wrapping build, want 1", s.stamp)
		}
	}
}

func mustAddMatched(t *testing.T, m *graph.Matching, e graph.Edge) {
	t.Helper()
	if err := m.Add(e); err != nil {
		t.Fatal(err)
	}
}
