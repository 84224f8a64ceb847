package graph_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/layered"
)

// TestRoundTripPreservesIncIndexState checks the text edge format carries
// everything the incremental viability index derives from a graph: an
// IncIndex built on the re-read graph must be indistinguishable — same
// buckets, counts, masks, and survival probe — from one built on the
// original, across matching deltas and bipartition redraws. This is the
// round-trip property the persistence paths (cmd/auggen | cmd/augrun)
// rely on when an amortised Solve runs on a deserialised instance.
func TestRoundTripPreservesIncIndexState(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	inst := graph.RandomGraph(24, 90, 200, rng)

	var buf bytes.Buffer
	if _, err := inst.G.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := graph.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	prm := layered.Params{}.WithDefaults()
	ws := []float64{400, 256, 100, 64, 33}
	ixA := layered.NewIncIndex(inst.G.N(), inst.G.Edges(), ws, prm)
	ixB := layered.NewIncIndex(g2.N(), g2.Edges(), ws, prm)
	maxU, _ := prm.Units()

	m := graph.NewMatching(inst.G.N())
	for round := 0; round < 4; round++ {
		// Advance the matching with a few graph edges, then draw one shared
		// bipartition for both indexes.
		for k := 0; k < 3; k++ {
			e := inst.G.Edges()[rng.Intn(inst.G.M())]
			if !m.IsMatched(e.U) && !m.IsMatched(e.V) {
				if err := m.Add(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		side := make([]bool, inst.G.N())
		for v := range side {
			side[v] = rng.Intn(2) == 1
		}
		ixA.BeginRound(layered.ParametrizeWithSide(inst.G.N(), inst.G.Edges(), m, side))
		ixB.BeginRound(layered.ParametrizeWithSide(g2.N(), g2.Edges(), m, side))

		for c := range ws {
			vA, vB := ixA.View(c), ixB.View(c)
			for u := 0; u <= maxU; u++ {
				a1, a2 := vA.A(u), vB.A(u)
				if len(a1) != len(a2) {
					t.Fatalf("round %d class %d: A(%d) sizes %d vs %d", round, c, u, len(a1), len(a2))
				}
				for i := range a1 {
					if a1[i] != a2[i] {
						t.Fatalf("round %d class %d: A(%d)[%d] %v vs %v", round, c, u, i, a1[i], a2[i])
					}
				}
				b1, b2 := vA.B(u), vB.B(u)
				if len(b1) != len(b2) {
					t.Fatalf("round %d class %d: B(%d) sizes %d vs %d", round, c, u, len(b1), len(b2))
				}
				for i := range b1 {
					if b1[i] != b2[i] {
						t.Fatalf("round %d class %d: B(%d)[%d] %v vs %v", round, c, u, i, b1[i], b2[i])
					}
				}
			}
			ma1, mb1, _ := vA.Masks()
			ma2, mb2, _ := vB.Masks()
			if ma1 != ma2 || mb1 != mb2 {
				t.Fatalf("round %d class %d: masks differ", round, c)
			}
			for _, tau := range layered.EnumerateGoodPairsMasked(prm, ma1, mb1, 25) {
				if vA.ProbeY(tau) != vB.ProbeY(tau) {
					t.Fatalf("round %d class %d: probe differs for %+v", round, c, tau)
				}
				kA := vA.PairKey(tau, nil)
				kB := vB.PairKey(tau, nil)
				if !bytes.Equal(kA, kB) {
					t.Fatalf("round %d class %d: pair keys differ for %+v", round, c, tau)
				}
			}
		}
	}
}
