package layered

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// testClassWeights builds a descending class-weight list around the
// instance scale: the geometric sweep plus the anchored family, the same
// shape core.ClassWeights produces (not imported to keep the package
// dependency direction).
func testClassWeights(edges []graph.Edge, prm Params) []float64 {
	maxW, minW := 0.0, 0.0
	for _, e := range edges {
		w := float64(e.W)
		if w > maxW {
			maxW = w
		}
		if minW == 0 || w < minW {
			minW = w
		}
	}
	if maxW <= 0 {
		return nil
	}
	var ws []float64
	for w := maxW * float64(prm.MaxLayers+1); w >= minW/4; w /= 2 {
		ws = append(ws, w)
	}
	maxU, _ := prm.Units()
	for u := 2; u <= maxU; u++ {
		ws = append(ws, maxW/(prm.Granularity*float64(u)))
	}
	// Descending order is the one structural requirement of IncIndex (the
	// per-edge live classes must form contiguous bands).
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j] > ws[j-1]; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
	return ws
}

// assertViewMatchesBucket compares one class view of the incremental index
// against a freshly rebuilt BucketIndex: identical edge sequences for every
// unit the enumeration can query, identical masks up to the documented
// bMask bits 0 and 1, and grouped Y tables and probe rows that agree with a
// classification of the rebuild's τB buckets.
func assertViewMatchesBucket(t testing.TB, v *IncView, ref *BucketIndex, prm Params) {
	t.Helper()
	maxU, _ := prm.Units()
	assertYGroupsMatchBucket(t, v, ref, maxU)
	for u := 1; u <= maxU; u++ {
		if got, want := v.A(u), ref.A(u); !edgeSlicesEqual(got, want) {
			t.Fatalf("A(%d): incremental %v != rebuild %v", u, got, want)
		}
	}
	for u := 2; u <= maxU; u++ {
		if got, want := v.B(u), ref.B(u); !edgeSlicesEqual(got, want) {
			t.Fatalf("B(%d): incremental %v != rebuild %v", u, got, want)
		}
	}
	ia, ib, _ := v.Masks()
	ra, rb, _ := ref.Masks()
	if ia != ra {
		t.Fatalf("aMask: %b != %b", ia, ra)
	}
	if ib != rb&^0b11 {
		t.Fatalf("bMask: %b != %b (bits >= 2)", ib, rb&^0b11)
	}
}

// assertYGroupsMatchBucket classifies every edge of the rebuild's τB
// buckets by Definition 4.10's endpoint rule — R endpoint: the τA unit of
// its crossing matched edge, 0 when free; L endpoint: likewise, FreeLBit
// when free; an endpoint matched by a non-crossing edge kills the edge —
// and checks, for every unit and (row, col) cell, that YGroup is exactly
// the cell's edges oriented R→L in bucket order, and that the probe row
// LayerRow(u, row) has bit col set exactly when the cell is non-empty.
// The groups are read before the rows, so a partition revalidated across
// rounds is checked together with the rows it re-stamps.
func assertYGroupsMatchBucket(t testing.TB, v *IncView, ref *BucketIndex, maxU int) {
	t.Helper()
	par := ref.Parametrization()
	unit := map[int]int{}
	for u := 1; u <= maxU; u++ {
		for _, e := range ref.A(u) {
			unit[e.U], unit[e.V] = u, u
		}
	}
	classify := func(x, free int) (int, bool) {
		if u, ok := unit[x]; ok {
			return u, true
		}
		return free, !par.M.IsMatched(x)
	}
	for u := 2; u <= maxU; u++ {
		cells := map[[2]int][]graph.Edge{}
		for _, e := range ref.B(u) {
			r, l := e.U, e.V
			if !par.Side[r] {
				r, l = l, r
			}
			row, okR := classify(r, 0)
			col, okL := classify(l, freeLBit)
			if okR && okL {
				cell := [2]int{row, col}
				cells[cell] = append(cells[cell], graph.Edge{U: r, V: l, W: e.W})
			}
		}
		for row := 0; row <= maxU; row++ {
			for col := 0; col <= freeLBit; col++ {
				if got, want := v.YGroup(u, row, col), cells[[2]int{row, col}]; !edgeSlicesEqual(got, want) {
					t.Fatalf("YGroup(%d,%d,%d): %v, want %v", u, row, col, got, want)
				}
			}
		}
		for row := 0; row <= maxU; row++ {
			bits := v.LayerRow(u, row)
			for col := 0; col <= freeLBit; col++ {
				if got, want := bits&(1<<uint(col)) != 0, len(cells[[2]int{row, col}]) > 0; got != want {
					t.Fatalf("LayerRow(%d,%d) bit %d = %v, want %v", u, row, col, got, want)
				}
			}
		}
	}
}

func edgeSlicesEqual(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mutateMatching toggles the matched status of edge e: a matched pair is
// removed, a pair with both endpoints free is added — occasionally with a
// perturbed weight, exercising the convention that the matching's weight,
// not the graph's, feeds the τA windows.
func mutateMatching(m *graph.Matching, e graph.Edge, perturb byte) {
	if m.Has(e.U, e.V) {
		if err := m.Remove(e.U, e.V); err != nil {
			panic(err)
		}
		return
	}
	if m.IsMatched(e.U) || m.IsMatched(e.V) {
		return
	}
	if perturb%4 == 0 {
		e.W = graph.Weight(perturb) + 1
	}
	if err := m.Add(e); err != nil {
		panic(err)
	}
}

// TestIncIndexMatchesBucketIndex drives an IncIndex through simulated
// rounds — matching deltas, fresh bipartitions — and asserts every class
// view equals a from-scratch BucketIndex rebuild, and that BuildIndexed
// over the view reproduces the rebuild's layered graph exactly.
func TestIncIndexMatchesBucketIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		n := 8 + rng.Intn(24)
		inst := graph.RandomGraph(n, 3*n, graph.Weight(1<<(3+rng.Intn(5))), rng)
		edges := inst.G.Edges()
		prm := Params{Granularity: []float64{0.5, 0.25, 0.125, 0.0625}[trial%4]}.WithDefaults()
		ws := testClassWeights(edges, prm)
		inc := NewIncIndex(n, edges, ws, prm)
		m := graph.NewMatching(n)

		for round := 0; round < 5; round++ {
			for k := 0; k < 1+rng.Intn(4); k++ {
				mutateMatching(m, edges[rng.Intn(len(edges))], byte(rng.Intn(256)))
			}
			par := Parametrize(n, edges, m, rng)
			inc.BeginRound(par)
			for c, w := range ws {
				ref := NewBucketIndex(par, w, prm)
				v := inc.View(c)
				assertViewMatchesBucket(t, v, ref, prm)

				aMask, bMask, ok := ref.Masks()
				if !ok {
					continue
				}
				pairs := EnumerateGoodPairsMasked(prm, aMask, bMask, 40)
				for _, tau := range pairs {
					layRef := BuildIndexed(ref, tau, nil)
					if got, want := v.ProbeY(tau), len(layRef.Y) > 0; got != want {
						t.Fatalf("trial %d round %d class %d: ProbeY=%v, want %v (tau %+v)",
							trial, round, c, got, want, tau)
					}
					layInc := BuildIndexed(v, tau, nil)
					if layInc.NumV != layRef.NumV ||
						!edgeSlicesEqual(layInc.X, layRef.X) ||
						!edgeSlicesEqual(layInc.Y, layRef.Y) ||
						!edgeSlicesEqual(layInc.InteriorX, layRef.InteriorX) {
						t.Fatalf("trial %d round %d class %d tau %+v: layered graphs differ",
							trial, round, c, tau)
					}
				}
			}
		}
	}
}

// TestIncIndexStampWrap runs an index across the wrap of its uint32 round
// stamp: after one ordinary round (stamp 1) the stamp jumps to two below
// 2³², and the round after the jump reads only the even classes, so the
// odd ones still hold stamp-1 entries when the wrap restarts the stamp at 1
// — entries BeginRound must clear. Rounds that change the matching and
// redraw the sides alternate with rounds that change nothing, and the wrap
// round runs both ways, so grouped Y partitions are also revalidated right
// after the clear. Every view, grouped-Y cell and probe row must equal a
// fresh index's on the same parametrization.
func TestIncIndexStampWrap(t *testing.T) {
	const jump, wrap = 1, 2 // the stamp jumps before round 1 and wraps in round 2
	for _, changeAtWrap := range []bool{false, true} {
		rng := rand.New(rand.NewSource(41))
		n := 24
		edges := graph.RandomGraph(n, 4*n, 64, rng).G.Edges()
		prm := Params{Granularity: 0.25}.WithDefaults()
		maxU, _ := prm.Units()
		ws := testClassWeights(edges, prm)
		inc := NewIncIndex(n, edges, ws, prm)
		m := graph.NewMatching(n)
		side := make([]bool, n)
		reusedAtWrap := 0
		for round := 0; round < 6; round++ {
			if round == jump {
				inc.stamp = math.MaxUint32 - 1
			}
			change := round == jump || round%2 == 0
			if round == wrap {
				change = changeAtWrap
			}
			if change {
				for k := 0; k < 3; k++ {
					mutateMatching(m, edges[rng.Intn(len(edges))], byte(rng.Intn(256)))
				}
				for v := range side {
					side[v] = rng.Intn(2) == 1
				}
			}
			par := ParametrizeWithSide(n, edges, m, side)
			if err := inc.BeginRound(par); err != nil {
				t.Fatal(err)
			}
			if round == wrap && inc.stamp != 1 {
				t.Fatalf("round %d: stamp %d, want the wrap's restart at 1", round, inc.stamp)
			}
			fresh := NewIncIndex(n, edges, ws, prm)
			if err := fresh.BeginRound(par); err != nil {
				t.Fatal(err)
			}
			for c, w := range ws {
				if round == jump && c%2 == 1 {
					continue
				}
				for u := 2; u <= maxU; u++ {
					// The memoised yEffEpoch is a stamped table too, so it
					// is read every round.
					built := inc.ygEpoch[c][u]
					if stable := inc.yEffEpoch(c, u) <= built; stable && built > 0 && round == wrap {
						reusedAtWrap++ // the next YGroup call revalidates
					}
				}
				v, f := inc.View(c), fresh.View(c)
				assertYGroupsMatch(t, v, f, maxU)
				for u := 2; u <= maxU; u++ {
					for row := 0; row <= maxU; row++ {
						if got, want := v.LayerRow(u, row), f.LayerRow(u, row); got != want {
							t.Fatalf("wrap %v round %d class %d: LayerRow(%d,%d) %b, fresh %b",
								changeAtWrap, round, c, u, row, got, want)
						}
					}
				}
				assertViewMatchesBucket(t, v, NewBucketIndex(par, w, prm), prm)
			}
		}
		if reusedAtWrap == 0 {
			t.Fatalf("wrap %v: no grouped-Y partition was revalidated in the wrap round", changeAtWrap)
		}
	}
}

// TestIncIndexPairKeySharing checks the cache-key contract on a workload
// engineered to produce cross-class duplicates (a single repeated weight):
// equal PairKeys must mean equal layered graphs, and at least one pair of
// classes must actually share a key.
func TestIncIndexPairKeySharing(t *testing.T) {
	g := graph.New(8)
	for i := 0; i < 8; i += 2 {
		g.MustAddEdge(i, i+1, 64)
		g.MustAddEdge(i, (i+3)%8, 64)
	}
	edges := g.Edges()
	prm := Params{}.WithDefaults()
	// W=64 and W=60 put weight-64 edges in the same unmatched unit
	// (floor(64/8) = floor(64/7.5) = 8), so their single good pair shares
	// one layered graph; W=128 windows the edges at unit 4 and must not.
	ws := []float64{128, 64, 60}
	inc := NewIncIndex(8, edges, ws, prm)
	m := graph.NewMatching(8)
	rng := rand.New(rand.NewSource(3))
	par := Parametrize(8, edges, m, rng)
	inc.BeginRound(par)

	type keyed struct {
		c   int
		tau TauPair
	}
	byKey := map[string][]keyed{}
	for c := range ws {
		v := inc.View(c)
		aMask, bMask, _ := v.Masks()
		for _, tau := range EnumerateGoodPairsMasked(prm, aMask, bMask, 100) {
			key := string(v.PairKey(tau, nil))
			byKey[key] = append(byKey[key], keyed{c: c, tau: tau})
		}
	}
	shared := false
	for _, ks := range byKey {
		classes := map[int]bool{}
		for _, k := range ks {
			classes[k.c] = true
		}
		if len(classes) > 1 {
			shared = true
		}
		first := BuildIndexed(inc.View(ks[0].c), ks[0].tau, nil)
		for _, k := range ks[1:] {
			lay := BuildIndexed(inc.View(k.c), k.tau, nil)
			if lay.NumV != first.NumV ||
				!edgeSlicesEqual(lay.X, first.X) ||
				!edgeSlicesEqual(lay.Y, first.Y) {
				t.Fatalf("equal PairKey but different layered graphs (classes %d vs %d)",
					ks[0].c, k.c)
			}
		}
	}
	if !shared {
		t.Error("uniform-weight workload produced no cross-class key sharing")
	}
}

// FuzzIncrementalIndex mutates edge weights and matched status and
// cross-checks the three builders against each other: the incremental
// views against from-scratch BucketIndex rebuilds, and BuildIndexed over
// both against the dense-id reference builder of reference.go.
func FuzzIncrementalIndex(f *testing.F) {
	f.Add(int64(1), uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(2), uint8(1), []byte{0xff, 0x80, 0x10, 9, 9, 9})
	f.Add(int64(3), uint8(3), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, granSel uint8, script []byte) {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(14)
		inst := graph.RandomGraph(n, 2*n, 1<<6, rng)
		edges := inst.G.Edges()
		if len(edges) == 0 {
			t.Skip()
		}
		prm := Params{Granularity: []float64{0.5, 0.25, 0.125, 0.0625}[granSel%4]}.WithDefaults()
		ws := testClassWeights(edges, prm)
		inc := NewIncIndex(n, edges, ws, prm)
		m := graph.NewMatching(n)

		// The script drives rounds: each byte pair toggles one edge's
		// matched status (with occasional weight perturbation), a zero byte
		// ends the round.
		round := func(start int) int {
			i := start
			for ; i+1 < len(script) && script[i] != 0; i += 2 {
				mutateMatching(m, edges[int(script[i])%len(edges)], script[i+1])
			}
			return i + 1
		}
		pos := 0
		for r := 0; r < 4; r++ {
			pos = round(pos)
			side := make([]bool, n)
			for v := range side {
				side[v] = rng.Intn(2) == 1
			}
			par := ParametrizeWithSide(n, edges, m, side)
			inc.BeginRound(par)
			for c, w := range ws {
				if c%3 != r%3 { // subsample classes per round for speed
					continue
				}
				ref := NewBucketIndex(par, w, prm)
				v := inc.View(c)
				assertViewMatchesBucket(t, v, ref, prm)

				aMask, bMask, ok := ref.Masks()
				if !ok {
					continue
				}
				for _, tau := range EnumerateGoodPairsMasked(prm, aMask, bMask, 12) {
					layRef := BuildIndexed(ref, tau, nil)
					if got, want := v.ProbeY(tau), len(layRef.Y) > 0; got != want {
						t.Fatalf("ProbeY=%v, want %v (tau %+v, W=%v)", got, want, tau, w)
					}
					layInc := BuildIndexed(v, tau, nil)
					if layInc.NumV != layRef.NumV ||
						!edgeSlicesEqual(layInc.X, layRef.X) ||
						!edgeSlicesEqual(layInc.Y, layRef.Y) {
						t.Fatalf("incremental build differs (tau %+v, W=%v)", tau, w)
					}
					dense := BuildReference(par, tau, w, prm)
					assertSameEdges(t, "X", layRef, layRef.X, dense, dense.X)
					assertSameEdges(t, "Y", layRef, layRef.Y, dense, dense.Y)
					assertSameEdges(t, "InteriorX", layRef, layRef.InteriorX, dense, dense.InteriorX)
				}
			}
		}
	})
}
