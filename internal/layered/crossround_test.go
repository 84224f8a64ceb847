package layered

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/graph"
)

// crossRoundSides draws a round's bipartition for the cross-round tests:
// mode 0 redraws every side uniformly (the production redraw — stability is
// incidental), mode 1 keeps the previous sides verbatim (maximal stability:
// the whole chain should carry over), and mode 2 flips a small random subset
// (partial stability — the interesting regime for the per-unit change
// clocks).
func crossRoundSides(prev []bool, mode int, rng *rand.Rand) []bool {
	side := make([]bool, len(prev))
	copy(side, prev)
	switch mode {
	case 0:
		for v := range side {
			side[v] = rng.Intn(2) == 1
		}
	case 2:
		for k := 0; k < 1+rng.Intn(3); k++ {
			v := rng.Intn(len(side))
			side[v] = !side[v]
		}
	}
	return side
}

// TestBuildDeltaCrossRound is the tentpole's differential: one scratch and
// chain tail per class survive a sequence of BeginRound redraws, so the
// first build of every class-round runs BuildDelta against the PREVIOUS
// round's last build — and every build in the chain, linked or round-local,
// must stay byte-identical to a from-scratch BuildIndexed of the same pair,
// with the DeltaInfo audit holding across the link. Aggregated over the
// trials the links must both happen and actually reuse segments (the
// keep-the-sides trials guarantee the latter deterministically).
func TestBuildDeltaCrossRound(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	crossLinks, crossReused := 0, 0
	for trial := 0; trial < 6; trial++ {
		n := 10 + rng.Intn(20)
		inst := graph.RandomGraph(n, 4*n, graph.Weight(1<<(3+rng.Intn(5))), rng)
		edges := inst.G.Edges()
		prm := Params{Granularity: []float64{0.5, 0.25, 0.125}[trial%3]}.WithDefaults()
		ws := testClassWeights(edges, prm)
		inc := NewIncIndex(n, edges, ws, prm)
		m := graph.NewMatching(n)
		enum := NewPairScratch()
		cutover := []int{0, 1, 2}[trial%3]
		sideMode := trial % 3

		// Per-class chain state surviving the round loop, exactly as core's
		// amortClassCtx carries it.
		scratches := make([]*Scratch, len(ws))
		tails := make([]*Layered, len(ws))
		tailSnaps := make([]*Layered, len(ws))

		side := make([]bool, n)
		for v := range side {
			side[v] = rng.Intn(2) == 1
		}
		for round := 0; round < 5; round++ {
			if round > 0 {
				side = crossRoundSides(side, sideMode, rng)
				if sideMode != 1 {
					for k := 0; k < rng.Intn(3); k++ {
						mutateMatching(m, edges[rng.Intn(len(edges))], byte(rng.Intn(256)))
					}
				}
			}
			par := ParametrizeWithSide(n, edges, m, side)
			if err := inc.BeginRound(par); err != nil {
				t.Fatal(err)
			}
			for c := range ws {
				v := inc.View(c)
				aMask, bMask, ok := v.Masks()
				if !ok {
					t.Fatal("masks unavailable at test granularity")
				}
				orc, ok := v.Oracle()
				if !ok {
					t.Fatal("oracle unavailable at test granularity")
				}
				pairs, _ := EnumerateSurvivingPairs(prm, aMask, bMask, 12, orc, enum)
				if len(pairs) == 0 {
					continue
				}
				if scratches[c] == nil {
					scratches[c] = NewScratch()
				}
				link := tails[c] != nil
				reused, tail, snap := deltaChainFrom(t, v, pairs, scratches[c], cutover,
					tails[c], tailSnaps[c])
				if link {
					crossLinks++
					crossReused += reused
				}
				tails[c], tailSnaps[c] = tail, snap
			}
		}
	}
	if crossLinks == 0 {
		t.Fatal("no chain ever crossed a round boundary; test is vacuous")
	}
	if crossReused == 0 {
		t.Error("no cross-round link reused any segment (keep-the-sides trials should)")
	}
}

// TestBuildDeltaCrossRoundGuards pins the link's refusal conditions: a
// baseline that carries no round epoch (built over a plain BucketIndex,
// which keeps no change clock), and a baseline whose round epoch is ahead
// of the index's (a chain tail smuggled in from a longer-lived index), must
// both be refused with ErrDeltaMismatch rather than diffed across the redraw.
func TestBuildDeltaCrossRoundGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 20
	inst := graph.PlantedMatching(n, 4*n, 50, 120, rng)
	edges := inst.G.Edges()
	prm := Params{}.WithDefaults()
	ws := testClassWeights(edges, prm)
	pairs := EnumerateGoodPairs(prm)
	if len(pairs) < 2 {
		t.Fatal("need at least 2 good pairs")
	}
	side := make([]bool, n)
	for v := range side {
		side[v] = rng.Intn(2) == 1
	}
	par1 := ParametrizeWithSide(n, edges, inst.Opt, side)
	side2 := crossRoundSides(side, 1, rng) // same sides, distinct Parametrized
	par2 := ParametrizeWithSide(n, edges, inst.Opt, side2)

	// BucketIndex baseline: same class weight and params, but it carries
	// no epoch, so nothing proves any bucket stable across the redraw.
	c := len(ws) / 2
	incA := NewIncIndex(n, edges, ws, prm)
	if err := incA.BeginRound(par1); err != nil {
		t.Fatal(err)
	}
	if err := incA.BeginRound(par2); err != nil {
		t.Fatal(err)
	}
	s := NewScratch()
	s.EnableDeltaBaseline()
	tail := BuildIndexed(NewBucketIndex(par1, ws[c], prm), pairs[0], s)
	if _, _, err := BuildDelta(incA.View(c), tail, pairs[1], s, 1); !errors.Is(err, ErrDeltaMismatch) {
		t.Fatalf("epoch-less cross-round baseline: got %v, want ErrDeltaMismatch", err)
	}

	// Epoch regression: a tail built at epoch 2 of one IncIndex offered to a
	// fresh IncIndex sitting at epoch 1. The arena would accept the diff; the
	// epoch check must not.
	sA := NewScratch()
	sA.EnableDeltaBaseline()
	tailA := BuildIndexed(incA.View(c), pairs[0], sA)
	incB := NewIncIndex(n, edges, ws, prm)
	if err := incB.BeginRound(par1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := BuildDelta(incB.View(c), tailA, pairs[1], sA, 1); !errors.Is(err, ErrDeltaMismatch) {
		t.Fatalf("epoch-regressed baseline: got %v, want ErrDeltaMismatch", err)
	}
	// The refusals left the arena usable: the legitimate cross-round link on
	// incA still builds and matches from-scratch.
	if err := incA.BeginRound(par2); err != nil {
		t.Fatal(err)
	}
	got, _, err := BuildDelta(incA.View(c), tailA, pairs[1], sA, 1)
	if err != nil {
		t.Fatalf("legitimate cross-round link after refusals: %v", err)
	}
	assertSameLayered(t, "post-guard link", got, BuildIndexed(incA.View(c), pairs[1], nil))
}

// TestChainLinkFault drives the PR 7 hazard site: an injected fault at the
// cross-round chain link severs it (ErrDeltaStale) without touching the
// arena, and the caller's fallback — a from-scratch BuildIndexed restarting
// the chain round-locally — is byte-identical. The seed is searched so that
// the injector fires ChainLink's first call but not DeltaStale's (which sits
// earlier in BuildDelta and would mask the site entirely at saturation).
func TestChainLinkFault(t *testing.T) {
	seed := int64(-1)
	for s := int64(0); s < 1000; s++ {
		probe := faultinject.New(s, 0.5)
		dsFires := probeFire(probe, faultinject.DeltaStale)
		clFires := probeFire(probe, faultinject.ChainLink)
		if !dsFires && clFires {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no seed fires ChainLink#1 without DeltaStale#1 at rate 0.5")
	}

	rng := rand.New(rand.NewSource(3))
	n := 18
	inst := graph.PlantedMatching(n, 4*n, 50, 120, rng)
	edges := inst.G.Edges()
	prm := Params{}.WithDefaults()
	ws := testClassWeights(edges, prm)
	pairs := EnumerateGoodPairs(prm)
	c := len(ws) / 2
	side := make([]bool, n)
	for v := range side {
		side[v] = rng.Intn(2) == 1
	}
	inc := NewIncIndex(n, edges, ws, prm)
	if err := inc.BeginRound(ParametrizeWithSide(n, edges, inst.Opt, side)); err != nil {
		t.Fatal(err)
	}
	s := NewScratch()
	s.EnableDeltaBaseline()
	tail := BuildIndexed(inc.View(c), pairs[0], s)
	par2 := ParametrizeWithSide(n, edges, inst.Opt, crossRoundSides(side, 1, rng))
	if err := inc.BeginRound(par2); err != nil {
		t.Fatal(err)
	}

	in := faultinject.New(seed, 0.5)
	faultinject.Activate(in)
	_, _, err := BuildDelta(inc.View(c), tail, pairs[1], s, 1)
	faultinject.Deactivate()
	if !errors.Is(err, ErrDeltaStale) {
		t.Fatalf("severed chain link: got %v, want ErrDeltaStale", err)
	}
	if in.Fired(faultinject.ChainLink) != 1 {
		t.Fatalf("ChainLink fired %d times, want 1", in.Fired(faultinject.ChainLink))
	}
	// Ladder response: restart the chain round-locally, bit-identically.
	restart := BuildIndexed(inc.View(c), pairs[1], s)
	assertSameLayered(t, "post-fault restart", restart, BuildIndexed(inc.View(c), pairs[1], nil))
	next, _, err := BuildDelta(inc.View(c), restart, pairs[2], s, 1)
	if err != nil {
		t.Fatalf("post-fault round-local delta: %v", err)
	}
	assertSameLayered(t, "post-fault delta", next, BuildIndexed(inc.View(c), pairs[2], nil))
}

// probeFire consults one site on a throwaway injector, for the seed search.
func probeFire(in *faultinject.Injector, s faultinject.Site) bool {
	fired := in.Fired(s)
	faultinject.Activate(in)
	faultinject.Fire(s)
	faultinject.Deactivate()
	return in.Fired(s) > fired
}

// TestBeginRoundBusy pins the misuse sentinel: a BeginRound entered while
// another holds the ownership stamp returns ErrBeginRoundBusy without
// touching the round state, and the index recovers fully once the stamp is
// released (core's reset rung absorbs the sentinel; see
// TestBeginRoundBusyAbsorbed there).
func TestBeginRoundBusy(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 12
	inst := graph.RandomGraph(n, 3*n, 1<<5, rng)
	edges := inst.G.Edges()
	prm := Params{}.WithDefaults()
	ws := testClassWeights(edges, prm)
	inc := NewIncIndex(n, edges, ws, prm)
	par := Parametrize(n, edges, graph.NewMatching(n), rng)

	inc.busy.Store(1) // a concurrent BeginRound holds the stamp
	if err := inc.BeginRound(par); !errors.Is(err, ErrBeginRoundBusy) {
		t.Fatalf("re-entered BeginRound: got %v, want ErrBeginRoundBusy", err)
	}
	inc.busy.Store(0)

	if err := inc.BeginRound(par); err != nil {
		t.Fatalf("BeginRound after release: %v", err)
	}
	// The round is fully usable: the refused call left no half-synced state.
	for c := range ws {
		assertViewMatchesBucket(t, inc.View(c), NewBucketIndex(par, ws[c], prm), prm)
	}
}
