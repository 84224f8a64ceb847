package layered

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func defaultParams() Params { return Params{}.WithDefaults() }

func TestEnumerateGoodPairsAllGood(t *testing.T) {
	p := defaultParams()
	pairs := EnumerateGoodPairs(p)
	if len(pairs) == 0 {
		t.Fatal("no good pairs enumerated")
	}
	for i, tp := range pairs {
		if !tp.IsGood(p) {
			t.Fatalf("pair %d fails IsGood: %+v", i, tp)
		}
	}
	t.Logf("enumerated %d good pairs at g=%v, maxLayers=%d", len(pairs), p.Granularity, p.MaxLayers)
}

func TestEnumerateGoodPairsCoversAllLengths(t *testing.T) {
	p := defaultParams()
	pairs := EnumerateGoodPairs(p)
	lengths := make(map[int]int)
	for _, tp := range pairs {
		lengths[tp.K()]++
	}
	if lengths[1] == 0 {
		t.Error("no k=1 pairs (single-edge augmentations)")
	}
	if lengths[2] == 0 {
		t.Error("no k=2 pairs (3-augmentations)")
	}
}

func TestEnumerateCountGrowsWithGranularity(t *testing.T) {
	// E9 shape: finer granularity => more pairs.
	coarse := len(EnumerateGoodPairs(Params{Granularity: 0.25}))
	fine := len(EnumerateGoodPairs(Params{Granularity: 0.125}))
	if fine <= coarse {
		t.Errorf("pairs: coarse=%d fine=%d; want growth", coarse, fine)
	}
}

func TestIsGoodRejections(t *testing.T) {
	p := defaultParams()
	tests := []struct {
		name string
		tp   TauPair
	}{
		{"length mismatch", TauPair{AUnits: []int{0, 2, 0}, BUnits: []int{4}}},
		{"too long", TauPair{AUnits: []int{0, 2, 2, 2, 2, 0}, BUnits: []int{4, 4, 4, 4, 4}}},
		{"B below 2g", TauPair{AUnits: []int{0, 0}, BUnits: []int{1}}},
		{"interior A below 2g", TauPair{AUnits: []int{0, 1, 0}, BUnits: []int{4, 4}}},
		{"sum cap exceeded", TauPair{AUnits: []int{0, 0}, BUnits: []int{12}}},
		{"no gain slack", TauPair{AUnits: []int{2, 2}, BUnits: []int{4}}},
		{"negative", TauPair{AUnits: []int{-1, 0}, BUnits: []int{4}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.tp.IsGood(p) {
				t.Errorf("pair accepted: %+v", tt.tp)
			}
		})
	}
	good := TauPair{AUnits: []int{0, 3, 0}, BUnits: []int{2, 2}}
	if !good.IsGood(p) {
		t.Errorf("valid pair rejected: %+v", good)
	}
}

// TestParametrize checks the buckets a parametrization yields: at a class
// weight every edge weight fits, the τA buckets together hold exactly the
// crossing matched edges in the matching's order and the τB buckets the
// crossing unmatched edges in the graph's order.
func TestParametrize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inst := graph.PlantedMatching(40, 100, 50, 100, rng)
	par := Parametrize(inst.G.N(), inst.G.Edges(), inst.Opt, rng)
	prm := defaultParams()
	maxU, _ := prm.Units()
	ix := NewBucketIndex(par, 100, prm)
	var wantA, wantB []graph.Edge
	for _, e := range inst.Opt.Edges() {
		if par.Side[e.U] != par.Side[e.V] {
			wantA = append(wantA, e)
		}
	}
	for _, e := range inst.G.Edges() {
		if par.Side[e.U] != par.Side[e.V] && !inst.Opt.Has(e.U, e.V) {
			wantB = append(wantB, e)
		}
	}
	if len(wantA) == 0 || len(wantB) == 0 {
		t.Fatalf("instance has %d crossing matched and %d crossing unmatched edges", len(wantA), len(wantB))
	}
	// Each bucket is a subsequence of its side's list, and the buckets
	// partition it by unit.
	for _, side := range []struct {
		name   string
		bucket func(int) []graph.Edge
		unit   func(graph.Weight) int
		want   []graph.Edge
	}{
		{"A", ix.A, func(w graph.Weight) int { return AUnitOf(w, 100, prm) }, wantA},
		{"B", ix.B, func(w graph.Weight) int { return BUnitOf(w, 100, prm) }, wantB},
	} {
		total := 0
		for u := 0; u <= maxU; u++ {
			var want []graph.Edge
			for _, e := range side.want {
				if side.unit(e.W) == u {
					want = append(want, e)
				}
			}
			if got := side.bucket(u); !edgeSlicesEqual(got, want) {
				t.Fatalf("%s(%d) = %v, want %v", side.name, u, got, want)
			}
			total += len(want)
		}
		if total != len(side.want) {
			t.Fatalf("%s buckets hold %d of %d edges", side.name, total, len(side.want))
		}
	}
}

// pathSetup builds the Figure-1-style instance: matching {c-d w=5}, side
// edges a-c (4) and d-f (4): the 3-augmentation has gain 3.
func pathSetup(t *testing.T) (*Parametrized, *graph.Matching) {
	t.Helper()
	g := graph.New(4) // a=0, c=1, d=2, f=3
	g.MustAddEdge(1, 2, 5)
	g.MustAddEdge(0, 1, 4)
	g.MustAddEdge(2, 3, 4)
	m := graph.NewMatching(4)
	if err := m.Add(graph.Edge{U: 1, V: 2, W: 5}); err != nil {
		t.Fatal(err)
	}
	// Bipartition: c in R, d in L so that a-c enters c from the left side
	// copy... orientation: Y edges run R(layer t) -> L(layer t+1). Place
	// a(L), c(R), d(L)... but c-d must cross: c in R, d in L; a in L (edge
	// a-c crosses), f in R (edge d-f crosses).
	side := []bool{false, true, false, true}
	return ParametrizeWithSide(4, g.Edges(), m, side), m
}

func TestBuildCapturesThreeAugmentation(t *testing.T) {
	par, _ := pathSetup(t)
	p := Params{Granularity: 0.125, MaxLayers: 5}.WithDefaults()
	// W = 8: matched 5 -> unit ceil(5/1)=5; unmatched 4 -> unit 4.
	// Pair: tauA = (0, 5/8, 0), tauB = (4/8, 4/8): sumB-sumA = 3/8 >= 1/8.
	tau := TauPair{AUnits: []int{0, 5, 0}, BUnits: []int{4, 4}}
	if !tau.IsGood(p) {
		t.Fatal("constructed pair not good")
	}
	lay := Build(par, tau, 8, p)
	if len(lay.Y) != 2 {
		t.Fatalf("Y edges = %d, want 2 (%v)", len(lay.Y), lay.Y)
	}
	// The middle layer keeps the matched copy of c-d.
	if len(lay.X) != 1 {
		t.Fatalf("X edges = %v, want the single middle copy", lay.X)
	}
	if lay.LayerOf(lay.X[0].U) != 1 {
		t.Fatalf("X edge in layer %d, want 1", lay.LayerOf(lay.X[0].U))
	}
	// Free endpoints a (L) in layer 2 and f (R) in layer 0 must survive
	// (each carries a Y edge, so it holds a compact id); intermediate
	// unmatched vertices must be removed.
	if !lay.Has(0, 3) {
		t.Error("free R vertex f removed from first layer")
	}
	if !lay.Has(2, 0) {
		t.Error("free L vertex a removed from last layer")
	}
	if lay.Has(1, 0) || lay.Has(1, 3) {
		t.Error("unmatched intermediate copies not removed")
	}
}

func TestBuildBipartiteness(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	inst := graph.PlantedMatching(30, 200, 60, 120, rng)
	par := Parametrize(inst.G.N(), inst.G.Edges(), inst.Opt, rng)
	p := defaultParams()
	for _, tau := range EnumerateGoodPairs(p)[:50] {
		lay := Build(par, tau, 100, p)
		side := lay.Sides()
		for _, e := range append(append([]graph.Edge{}, lay.X...), lay.Y...) {
			if side[e.U] == side[e.V] {
				t.Fatalf("layered edge does not cross bipartition: %v", e)
			}
		}
	}
}

func TestBuildYOrientation(t *testing.T) {
	// Every Y edge must run from an R vertex in layer t to an L vertex in
	// layer t+1.
	rng := rand.New(rand.NewSource(3))
	inst := graph.PlantedMatching(30, 200, 60, 120, rng)
	par := Parametrize(inst.G.N(), inst.G.Edges(), inst.Opt, rng)
	p := defaultParams()
	for _, tau := range EnumerateGoodPairs(p)[:80] {
		lay := Build(par, tau, 64, p)
		for _, e := range lay.Y {
			if !par.Side[lay.Orig(e.U)] {
				t.Fatalf("Y edge tail not in R: %v", e)
			}
			if par.Side[lay.Orig(e.V)] {
				t.Fatalf("Y edge head not in L: %v", e)
			}
			if lay.LayerOf(e.V) != lay.LayerOf(e.U)+1 {
				t.Fatalf("Y edge skips layers: %v", e)
			}
		}
	}
}

func TestDecomposeSimplePath(t *testing.T) {
	w := Walk{
		Vertices: []int{0, 1, 2, 3},
		Matched:  []bool{false, true, false},
		Weights:  []graph.Weight{4, 5, 4},
	}
	comps := Decompose(w)
	if len(comps) != 1 {
		t.Fatalf("components = %d, want 1", len(comps))
	}
	if comps[0].IsCycle {
		t.Error("path reported as cycle")
	}
	adds := comps[0].AddEdges()
	if len(adds) != 2 {
		t.Fatalf("adds = %v", adds)
	}
}

func TestDecomposePaperNonSimpleWalk(t *testing.T) {
	// The Section 4.3 example: bold path a-b-c-d-b-a is non-simple; the
	// decomposition must produce the cycle b-c-d-b and the path a-b... in
	// our stack formulation: walk a(0) b(1) c(2) d(3) b(1) a(0) closes two
	// cycles.
	w := Walk{
		Vertices: []int{0, 1, 2, 3, 1, 0},
		Matched:  []bool{true, false, true, false, true},
		Weights:  []graph.Weight{1, 2, 1, 2, 1},
	}
	comps := Decompose(w)
	var cycles, paths int
	for _, c := range comps {
		if c.IsCycle {
			cycles++
		} else {
			paths++
		}
	}
	if cycles == 0 {
		t.Errorf("no cycle extracted from non-simple walk: %+v", comps)
	}
	// Total edge count preserved.
	total := 0
	for _, c := range comps {
		total += len(c.Matched)
	}
	if total != 5 {
		t.Errorf("edges after decomposition = %d, want 5", total)
	}
}

func TestDecomposeCycleBlowUp(t *testing.T) {
	// The Section 1.1.2 blow-up: 4-cycle (e1,o1,e2,o2) traversed twice.
	// Vertices 0-1 (e1), 2-3 (e2); walk 0,1,2,3,0,1,2,3,0.
	w := Walk{
		Vertices: []int{0, 1, 2, 3, 0, 1, 2, 3, 0},
		Matched:  []bool{true, false, true, false, true, false, true, false},
		Weights:  []graph.Weight{3, 4, 3, 4, 3, 4, 3, 4},
	}
	comps := Decompose(w)
	for _, c := range comps {
		if !c.IsCycle {
			t.Fatalf("pure cycle walk produced a path: %+v", c)
		}
		if len(c.Matched)%2 != 0 {
			t.Fatalf("odd cycle extracted: %+v", c)
		}
	}
	if len(comps) != 2 {
		t.Errorf("components = %d, want 2 copies of the 4-cycle", len(comps))
	}
}

func TestBestAugmentationPicksPositive(t *testing.T) {
	m := graph.NewMatching(4)
	if err := m.Add(graph.Edge{U: 1, V: 2, W: 5}); err != nil {
		t.Fatal(err)
	}
	w := Walk{
		Vertices: []int{0, 1, 2, 3},
		Matched:  []bool{false, true, false},
		Weights:  []graph.Weight{4, 5, 4},
	}
	aug, gain, ok := BestAugmentation(m, w)
	if !ok {
		t.Fatal("no augmentation found")
	}
	if gain != 3 {
		t.Errorf("gain = %d, want 3", gain)
	}
	realised, err := graph.Apply(m, aug)
	if err != nil {
		t.Fatal(err)
	}
	if realised != 3 {
		t.Errorf("realised gain = %d", realised)
	}
}

func TestBestAugmentationRejectsLossy(t *testing.T) {
	m := graph.NewMatching(4)
	if err := m.Add(graph.Edge{U: 1, V: 2, W: 50}); err != nil {
		t.Fatal(err)
	}
	w := Walk{
		Vertices: []int{0, 1, 2, 3},
		Matched:  []bool{false, true, false},
		Weights:  []graph.Weight{4, 50, 4},
	}
	if _, _, ok := BestAugmentation(m, w); ok {
		t.Error("negative-gain walk produced an augmentation")
	}
}

// TestGranularityDefaultsAndCheck: WithDefaults treats NaN like any other
// unusable granularity (NaN used to survive it and reach NewIncIndex as a
// huge negative unit count), and CheckGranularity accepts exactly 0 and
// [1/4096, 1/2], the range the commands let through.
func TestGranularityDefaultsAndCheck(t *testing.T) {
	for _, g := range []float64{math.NaN(), 0, -1, 0.51, math.Inf(1), math.Inf(-1)} {
		p := Params{Granularity: g}.WithDefaults()
		if p.Granularity != 0.125 {
			t.Errorf("WithDefaults(%v).Granularity = %v, want 0.125", g, p.Granularity)
		}
		if !CanIndexIncrementally(Params{Granularity: g}) {
			t.Errorf("granularity %v defaults to 1/8 but cannot index incrementally", g)
		}
	}
	for _, g := range []float64{0, 0.5, 0.125, 1.0 / 62, 1.0 / 4096} {
		if err := CheckGranularity(g); err != nil {
			t.Errorf("CheckGranularity(%v) = %v, want nil", g, err)
		}
	}
	for _, g := range []float64{math.NaN(), -1, 0.51, 1e-9, math.Nextafter(1.0/4096, 0), math.Inf(1), math.Inf(-1)} {
		if err := CheckGranularity(g); err == nil {
			t.Errorf("CheckGranularity(%v) = nil, want a refusal", g)
		}
	}
}
