package layered

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// assertSameLayered fails unless got and want are byte-identical layered
// graphs: same compact-id decode tables, same X/Y/InteriorX sequences.
func assertSameLayered(t testing.TB, label string, got, want *Layered) {
	t.Helper()
	if got.K != want.K || got.NumV != want.NumV {
		t.Fatalf("%s: shape differs: K %d/%d NumV %d/%d", label, got.K, want.K, got.NumV, want.NumV)
	}
	for id := 0; id < want.NumV; id++ {
		if got.Orig(id) != want.Orig(id) || got.LayerOf(id) != want.LayerOf(id) {
			t.Fatalf("%s: id %d decodes (%d,%d), want (%d,%d)", label, id,
				got.LayerOf(id), got.Orig(id), want.LayerOf(id), want.Orig(id))
		}
	}
	if !edgeSlicesEqual(got.X, want.X) {
		t.Fatalf("%s: X differs:\n got %v\nwant %v", label, got.X, want.X)
	}
	if !edgeSlicesEqual(got.Y, want.Y) {
		t.Fatalf("%s: Y differs:\n got %v\nwant %v", label, got.Y, want.Y)
	}
	if !edgeSlicesEqual(got.InteriorX, want.InteriorX) {
		t.Fatalf("%s: InteriorX differs:\n got %v\nwant %v", label, got.InteriorX, want.InteriorX)
	}
}

// deltaChainCheck drives one class's surviving pairs through a delta chain
// on one shared scratch (BuildIndexed for the first pair, BuildDelta after)
// and asserts every build equals a from-scratch BuildIndexed over the same
// index. Returns the total segments reused, so callers can assert the chain
// actually chained.
func deltaChainCheck(t testing.TB, ix *IncView, pairs []TauPair, s *Scratch, cutover int) int {
	t.Helper()
	reused, _, _ := deltaChainFrom(t, ix, pairs, s, cutover, nil, nil)
	return reused
}

// deltaChainFrom is deltaChainCheck with an explicit chain seed: prev (and
// its arena-independent snapshot prevSnap) may be the tail of an earlier
// round's chain on the same scratch, in which case the first build of this
// call exercises the cross-round link of BuildDelta. It returns the chain's
// new tail alongside the reuse total so callers can thread it into the next
// round.
func deltaChainFrom(t testing.TB, ix *IncView, pairs []TauPair, s *Scratch, cutover int,
	prev, prevSnap *Layered) (int, *Layered, *Layered) {
	t.Helper()
	reusedTotal := 0
	for pi, tau := range pairs {
		want := BuildIndexed(ix, tau, nil)
		var got *Layered
		if prev == nil {
			got = BuildIndexed(ix, tau, s)
			if got.Delta.Valid {
				t.Fatalf("pair %d: from-scratch build claims a delta baseline", pi)
			}
		} else {
			var reused int
			var err error
			got, reused, err = BuildDelta(ix, prev, tau, s, cutover)
			if err != nil {
				t.Fatalf("pair %d: BuildDelta: %v", pi, err)
			}
			reusedTotal += reused
			assertDeltaInfo(t, pi, got, prevSnap, prev.BuildSeq())
		}
		assertSameLayered(t, "delta chain", got, want)
		prev = got
		// Snapshot for the next iteration's DeltaInfo audit: the arena
		// reuses prev's storage, so the baseline must be copied out.
		prevSnap = snapshotLayered(got)
	}
	return reusedTotal, prev, prevSnap
}

// snapshotLayered copies the build's solver-visible content out of the
// arena into a Layered that lives in no arena.
func snapshotLayered(l *Layered) *Layered {
	cp := &Layered{K: l.K, NumV: l.NumV}
	cp.X = append([]graph.Edge(nil), l.X...)
	cp.Y = append([]graph.Edge(nil), l.Y...)
	cp.InteriorX = append([]graph.Edge(nil), l.InteriorX...)
	cp.vertOrig = append([]int32(nil), l.vertOrig...)
	cp.vertLayer = append([]int32(nil), l.vertLayer...)
	return cp
}

// assertDeltaInfo audits the changed-suffix descriptor a delta build
// surfaces for the solver-side repair: every "kept" count must name a
// byte-identical prefix of the baseline (edges and compact-id decode
// tables alike), and every kept L' edge must keep both endpoints under
// KeptIDs — the contracts bipartite.RepairHK patches its CSR on.
func assertDeltaInfo(t testing.TB, pi int, got, base *Layered, baseSeq uint64) {
	t.Helper()
	d := got.Delta
	if !d.Valid || d.BaseSeq != baseSeq {
		t.Fatalf("pair %d: DeltaInfo %+v does not name baseline seq %d", pi, d, baseSeq)
	}
	check := func(what string, gotE, baseE []graph.Edge, kept int) {
		if kept < 0 || kept > len(gotE) || kept > len(baseE) {
			t.Fatalf("pair %d: Kept%s %d out of range (got %d, base %d)",
				pi, what, kept, len(gotE), len(baseE))
		}
		for i := 0; i < kept; i++ {
			if gotE[i] != baseE[i] {
				t.Fatalf("pair %d: %s[%d] = %v differs from baseline %v under Kept%s=%d",
					pi, what, i, gotE[i], baseE[i], what, kept)
			}
		}
	}
	check("X", got.X, base.X, d.KeptX)
	check("InteriorX", got.InteriorX, base.InteriorX, d.KeptInteriorX)
	check("Y", got.Y, base.Y, d.KeptY)
	if d.KeptIDs < 0 || d.KeptIDs > got.NumV || d.KeptIDs > base.NumV {
		t.Fatalf("pair %d: KeptIDs %d out of range (got %d, base %d)", pi, d.KeptIDs, got.NumV, base.NumV)
	}
	for id := 0; id < d.KeptIDs; id++ {
		if got.vertOrig[id] != base.vertOrig[id] || got.vertLayer[id] != base.vertLayer[id] {
			t.Fatalf("pair %d: kept id %d decodes (%d,%d), baseline (%d,%d)", pi, id,
				got.vertLayer[id], got.vertOrig[id], base.vertLayer[id], base.vertOrig[id])
		}
	}
	lp := make([]graph.Edge, 0, len(got.InteriorX)+len(got.Y))
	lp = append(lp, got.InteriorX...)
	lp = append(lp, got.Y...)
	baseLP := make([]graph.Edge, 0, len(base.InteriorX)+len(base.Y))
	baseLP = append(baseLP, base.InteriorX...)
	baseLP = append(baseLP, base.Y...)
	check("LPrime", lp, baseLP, d.KeptLPrime)
	for i := 0; i < d.KeptLPrime; i++ {
		if lp[i].U >= d.KeptIDs || lp[i].V >= d.KeptIDs {
			t.Fatalf("pair %d: kept L' edge %d = %v has an endpoint at or past KeptIDs %d",
				pi, i, lp[i], d.KeptIDs)
		}
	}
}

// TestBuildDeltaMatchesBuildIndexed is the unit-level differential: over
// random instances, evolving matchings, and fresh bipartitions, every
// delta-chained build, at several cutover thresholds, must be
// byte-identical to a from-scratch BuildIndexed of the same pair.
func TestBuildDeltaMatchesBuildIndexed(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	reusedTotal := 0
	for trial := 0; trial < 8; trial++ {
		n := 10 + rng.Intn(22)
		inst := graph.RandomGraph(n, 4*n, graph.Weight(1<<(3+rng.Intn(5))), rng)
		edges := inst.G.Edges()
		prm := Params{Granularity: []float64{0.5, 0.25, 0.125, 0.0625}[trial%4]}.WithDefaults()
		ws := testClassWeights(edges, prm)
		inc := NewIncIndex(n, edges, ws, prm)
		m := graph.NewMatching(n)
		sInc := NewScratch()
		enum := NewPairScratch()
		cutover := []int{0, 1, 2, 5, 100}[trial%5]

		for round := 0; round < 4; round++ {
			for k := 0; k < 1+rng.Intn(4); k++ {
				mutateMatching(m, edges[rng.Intn(len(edges))], byte(rng.Intn(256)))
			}
			par := Parametrize(n, edges, m, rng)
			inc.BeginRound(par)
			for c := range ws {
				if c%3 != round%3 { // subsample classes per round for speed
					continue
				}
				v := inc.View(c)
				aMask, bMask, _ := v.Masks()
				pairs, _ := EnumerateSurvivingPairs(prm, aMask, bMask, 24, v, enum)
				if len(pairs) < 2 {
					continue
				}
				reusedTotal += deltaChainCheck(t, v, pairs, sInc, cutover)
			}
		}
	}
	if reusedTotal == 0 {
		t.Error("no delta build reused any layer segment across all trials")
	}
}

// TestBuildDeltaScratchHazards is the regression net for the arena reuse
// hazard: a baseline that is stale (a later build reused its scratch),
// copied out of its arena, foreign to the scratch, missing, or built from a
// different index state must be refused with the matching sentinel error —
// never silently diffed against overwritten storage — and the arena must
// remain usable.
// Past the grouped Y tables there is no view to refuse: no index is built.
func TestBuildDeltaScratchHazards(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := graph.PlantedMatching(24, 96, 50, 120, rng)
	edges := inst.G.Edges()
	prm := Params{}.WithDefaults()
	par := Parametrize(24, edges, inst.Opt, rng)
	ws := testClassWeights(edges, prm)
	inc := NewIncIndex(24, edges, ws, prm)
	if err := inc.BeginRound(par); err != nil {
		t.Fatal(err)
	}
	ix := inc.View(len(ws) / 2)
	pairs := EnumerateGoodPairs(prm)
	if len(pairs) < 3 {
		t.Fatal("need at least 3 good pairs")
	}
	s := NewScratch()

	lay0 := BuildIndexed(ix, pairs[0], s)
	lay1 := BuildIndexed(ix, pairs[1], s) // lay0's storage is now overwritten

	if _, _, err := BuildDelta(ix, lay0, pairs[2], s, 1); !errors.Is(err, ErrDeltaStale) {
		t.Fatalf("stale baseline: got %v, want ErrDeltaStale", err)
	}
	if _, _, err := BuildDelta(ix, nil, pairs[2], s, 1); !errors.Is(err, ErrDeltaNoBase) {
		t.Fatalf("nil baseline: got %v, want ErrDeltaNoBase", err)
	}
	if _, _, err := BuildDelta(ix, lay1, pairs[2], NewScratch(), 1); !errors.Is(err, ErrDeltaScratch) {
		t.Fatalf("foreign scratch: got %v, want ErrDeltaScratch", err)
	}
	ix2 := inc.View(len(ws)/2 + 1) // another class weight
	if _, _, err := BuildDelta(ix2, lay1, pairs[2], s, 1); !errors.Is(err, ErrDeltaMismatch) {
		t.Fatalf("index mismatch: got %v, want ErrDeltaMismatch", err)
	}
	copied := snapshotLayered(BuildIndexed(ix, pairs[1], s))
	if _, _, err := BuildDelta(ix, copied, pairs[2], s, 1); !errors.Is(err, ErrDeltaScratch) {
		t.Fatalf("copied baseline: got %v, want ErrDeltaScratch", err)
	}

	// A refused delta leaves the arena intact: the next builds (indexed and
	// delta-chained) still produce the from-scratch result.
	live := BuildIndexed(ix, pairs[0], s)
	assertSameLayered(t, "post-error rebuild", live, BuildIndexed(ix, pairs[0], nil))
	next, _, err := BuildDelta(ix, live, pairs[1], s, 1)
	if err != nil {
		t.Fatalf("post-error delta: %v", err)
	}
	assertSameLayered(t, "post-error delta", next, BuildIndexed(ix, pairs[1], nil))

	// The grouped Y tables end at maxU < FreeLBit (granularity 1/62), and
	// so does the index: CanIndexIncrementally draws the line exactly
	// there, and at granularity 1/63 NewIncIndex refuses to build a view
	// BuildDelta could not serve.
	for units := 2; units <= 300; units++ {
		p := Params{Granularity: 1 / float64(units)}.WithDefaults()
		maxU, _ := p.Units()
		if got, want := CanIndexIncrementally(p), maxU < FreeLBit; got != want {
			t.Fatalf("granularity 1/%d (maxU %d): CanIndexIncrementally = %v, want %v", units, maxU, got, want)
		}
	}
	fine := Params{Granularity: 1.0 / 63}.WithDefaults()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewIncIndex built an index at granularity 1/63")
			}
		}()
		NewIncIndex(24, edges, testClassWeights(edges, fine), fine)
	}()
}

// naiveClassDirty recomputes the dirty-class predicate from a from-scratch
// BucketIndex: dirty iff any crossing matched edge lands in a τA window
// (units 1..maxU) or any crossing unmatched edge in a τB window the
// enumeration can name (units 2..maxU).
func naiveClassDirty(ref *BucketIndex, prm Params) bool {
	maxU, _ := prm.Units()
	for u := 1; u <= maxU; u++ {
		if ref.ACount(u) > 0 {
			return true
		}
	}
	for u := 2; u <= maxU; u++ {
		if ref.BCount(u) > 0 {
			return true
		}
	}
	return false
}

// TestDirtyClassGate is the gate's property test: under randomized
// matchings and bipartitions, the round's dirty set must equal the naive
// per-class recomputation exactly, clean classes must enumerate zero good
// pairs under their naive BucketIndex masks (so skipping them cannot change
// any result).
func TestDirtyClassGate(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sawClean := false
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(20)
		inst := graph.RandomGraph(n, 2*n, graph.Weight(1<<(3+rng.Intn(6))), rng)
		edges := inst.G.Edges()
		prm := Params{Granularity: []float64{0.5, 0.25, 0.125}[trial%3]}.WithDefaults()
		ws := testClassWeights(edges, prm)
		inc := NewIncIndex(n, edges, ws, prm)
		m := graph.NewMatching(n)
		for round := 0; round < 4; round++ {
			for k := 0; k < 1+rng.Intn(5); k++ {
				mutateMatching(m, edges[rng.Intn(len(edges))], byte(rng.Intn(256)))
			}
			par := Parametrize(n, edges, m, rng)
			inc.BeginRound(par)
			for c, w := range ws {
				ref := NewBucketIndex(par, w, prm)
				want := naiveClassDirty(ref, prm)
				if got := inc.RoundDirty(c); got != want {
					t.Fatalf("trial %d round %d class %d (W=%v): RoundDirty=%v, naive=%v",
						trial, round, c, w, got, want)
				}
				if want {
					continue
				}
				sawClean = true
				aMask, bMask, ok := ref.Masks()
				if !ok {
					t.Fatal("masks unavailable at test granularity")
				}
				if pairs := EnumerateGoodPairsMasked(prm, aMask, bMask, 0); len(pairs) != 0 {
					t.Fatalf("trial %d round %d class %d: clean class enumerated %d pairs",
						trial, round, c, len(pairs))
				}
			}
		}
	}
	if !sawClean {
		t.Error("no clean class across all trials; gate never exercised")
	}
}

// FuzzBuildDelta mutates the matched windows (matching toggles with weight
// perturbation), the τ-masks (fresh bipartitions per round), and the delta
// cutover threshold, and holds every delta-chained build byte-identical to
// the from-scratch BuildIndexed of the same pair. The chains are carried
// ACROSS rounds (per-class scratch and tail, as core does under cross-round
// chaining), so a revisited class's first build exercises the
// crossing-status diff at the round link.
func FuzzBuildDelta(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(1), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(2), uint8(1), uint8(0), []byte{0xff, 0x80, 0x10, 9, 9, 9})
	f.Add(int64(3), uint8(3), uint8(40), []byte{})
	// Cross-round seeds: empty first rounds keep the matching stable into
	// the revisit (pure crossing-status diffs at the link), and dense
	// mutation scripts flip matched windows right at it.
	f.Add(int64(7), uint8(0), uint8(2), []byte{0, 0, 0, 1, 0x41})
	f.Add(int64(11), uint8(2), uint8(1), []byte{5, 0x80, 2, 0x21, 0, 7, 0x10, 0, 3, 0xfe})
	f.Fuzz(func(t *testing.T, seed int64, granSel, cutSel uint8, script []byte) {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(14)
		inst := graph.RandomGraph(n, 3*n, 1<<6, rng)
		edges := inst.G.Edges()
		if len(edges) == 0 {
			t.Skip()
		}
		prm := Params{Granularity: []float64{0.5, 0.25, 0.125, 0.0625}[granSel%4]}.WithDefaults()
		cutover := int(cutSel%12) - 1 // -1..10: below, at, and past any real reuse
		ws := testClassWeights(edges, prm)
		inc := NewIncIndex(n, edges, ws, prm)
		m := graph.NewMatching(n)
		sIncs := make([]*Scratch, len(ws))
		tails := make([]*Layered, len(ws))
		tailSnaps := make([]*Layered, len(ws))
		enum := NewPairScratch()

		round := func(start int) int {
			i := start
			for ; i+1 < len(script) && script[i] != 0; i += 2 {
				mutateMatching(m, edges[int(script[i])%len(edges)], script[i+1])
			}
			return i + 1
		}
		pos := 0
		for r := 0; r < 4; r++ { // 4 rounds so r=3 revisits r=0's classes
			pos = round(pos)
			par := Parametrize(n, edges, m, rng)
			if err := inc.BeginRound(par); err != nil {
				t.Fatal(err)
			}
			for c := range ws {
				if c%3 != r%3 { // subsample classes per round for speed
					continue
				}
				v := inc.View(c)
				aMask, bMask, _ := v.Masks()
				pairs, _ := EnumerateSurvivingPairs(prm, aMask, bMask, 16, v, enum)
				if len(pairs) < 2 {
					continue
				}
				if sIncs[c] == nil {
					sIncs[c] = NewScratch()
				}
				_, tail, snap := deltaChainFrom(t, v, pairs, sIncs[c], cutover,
					tails[c], tailSnaps[c])
				tails[c], tailSnaps[c] = tail, snap
			}
		}
	})
}
