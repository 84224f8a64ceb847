package layered

import (
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
