package solvertest

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/layered"
)

// TestAmortizedMatchesNaive is the headline differential: the amortised
// pipeline (incremental index + survival probe + cross-class cache) must
// return the bit-identical matching of the naive per-(round, class) rebuild
// after every round, on every generator family, at several seeds.
func TestAmortizedMatchesNaive(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, w := range Workloads(rand.New(rand.NewSource(seed))) {
			sN, sA := AssertBitIdentical(t, w,
				core.Options{},
				core.Options{Amortize: true},
				seed+10, 6)
			// The probe rejects exactly the pairs the naive loop builds and
			// then skips for an empty Y, and every cache hit replaces one
			// solver call, so the call accounting must reconcile.
			if sN.LayeredBuilt != sA.LayeredBuilt {
				t.Errorf("%s seed %d: LayeredBuilt %d (naive) vs %d (amortised)",
					w.Name, seed, sN.LayeredBuilt, sA.LayeredBuilt)
			}
			if sN.SolverCalls != sA.SolverCalls+sA.CacheHits {
				t.Errorf("%s seed %d: SolverCalls %d (naive) vs %d+%d hits (amortised)",
					w.Name, seed, sN.SolverCalls, sA.SolverCalls, sA.CacheHits)
			}
			if sN.ProbeSkips != 0 || sN.CacheHits != 0 {
				t.Errorf("%s seed %d: naive stats carry amortised counters: %+v", w.Name, seed, sN)
			}
			// Delta builds, repairs and cross-round links are phase-neutral
			// (Invariants 21 and 24), so without cache hits, which replace
			// whole solves, the amortised run pays the naive run's phases.
			if sA.CacheHits == 0 && sA.SolverPhases != sN.SolverPhases {
				t.Errorf("%s seed %d: SolverPhases %d (naive) vs %d (amortised, no cache hits)",
					w.Name, seed, sN.SolverPhases, sA.SolverPhases)
			}
		}
	}
}

// TestAmortizedMatchesNaiveParallel repeats the differential with the class
// sweep on a worker pool: amortisation and parallelism must compose without
// disturbing the deterministic merge.
func TestAmortizedMatchesNaiveParallel(t *testing.T) {
	for _, w := range Workloads(rand.New(rand.NewSource(4))) {
		AssertBitIdentical(t, w,
			core.Options{Workers: 3},
			core.Options{Amortize: true, Workers: 3},
			14, 5)
	}
}

// TestRebuildMatchesMaintained pits the two halves of the incremental
// index against each other: a Runner held across rounds applies only
// matching deltas to its index, while a fresh Runner per round rebuilds the
// same index from scratch (the package-level core.Round path). The
// maintained state must be indistinguishable from the rebuild.
func TestRebuildMatchesMaintained(t *testing.T) {
	for _, w := range Workloads(rand.New(rand.NewSource(5))) {
		opts := core.Options{Amortize: true}
		seed := int64(15)

		held := core.NewRunner(w.G, optsWithRng(opts, seed))
		mHeld := w.cloneInitial()
		mFresh := w.cloneInitial()
		freshOpts := optsWithRng(opts, seed) // shared Rng across fresh Runners
		var sHeld, sFresh core.Stats
		for round := 0; round < 6; round++ {
			if _, err := held.Round(mHeld, &sHeld); err != nil {
				t.Fatalf("%s round %d (maintained): %v", w.Name, round, err)
			}
			if _, err := core.Round(w.G, mFresh, freshOpts, &sFresh); err != nil {
				t.Fatalf("%s round %d (rebuild): %v", w.Name, round, err)
			}
			if err := equalMatchings(mHeld, mFresh); err != nil {
				t.Fatalf("%s round %d: %v", w.Name, round, err)
			}
		}
	}
}

// TestCacheTransparent isolates the cross-class cache: installing an
// explicit exact Solver disables the cache (and nothing else the solver
// touches differs from the scratch-backed default), so equal matchings here
// mean cached candidate replay is indistinguishable from re-solving.
func TestCacheTransparent(t *testing.T) {
	for _, w := range Workloads(rand.New(rand.NewSource(6))) {
		sOn, sOff := AssertBitIdentical(t, w,
			core.Options{Amortize: true},
			core.Options{Amortize: true, Solver: core.ExactSolver()},
			16, 6)
		if sOff.CacheHits != 0 {
			t.Errorf("%s: explicit solver still hit the cache %d times", w.Name, sOff.CacheHits)
		}
		_ = sOn
	}
}

// TestPrunedEnumerationMatchesProbe is the enumeration-level differential
// over every E1–E14 generator family: on matchings evolved by real reduction
// rounds, the probe-guided enumeration must return, class by class, exactly
// the pairs of the naive generate-then-probe twin (NaiveSurvivingPairs) —
// same pairs, same order, reconciling rejected counts — at several limits
// including the unlimited window.
func TestPrunedEnumerationMatchesProbe(t *testing.T) {
	prm := layered.Params{}.WithDefaults()
	for _, w := range Workloads(rand.New(rand.NewSource(21))) {
		weights := core.ClassWeights(w.G, 2, prm)
		if len(weights) == 0 {
			continue
		}
		inc := layered.NewIncIndex(w.G.N(), w.G.Edges(), weights, prm)
		m := w.cloneInitial()
		runner := core.NewRunner(w.G, optsWithRng(core.Options{}, 22))
		parRng := rand.New(rand.NewSource(23))
		var stats core.Stats
		for round := 0; round < 3; round++ {
			if _, err := runner.Round(m, &stats); err != nil {
				t.Fatalf("%s round %d: %v", w.Name, round, err)
			}
			par := layered.Parametrize(w.G.N(), w.G.Edges(), m, parRng)
			inc.BeginRound(par)
			for c := 0; c < inc.Classes(); c++ {
				view := inc.View(c)
				orc, ok := view.Oracle()
				if !ok {
					t.Fatalf("%s: oracle unavailable at default granularity", w.Name)
				}
				aMask, bMask, ok := view.Masks()
				if !ok {
					t.Fatalf("%s: masks unavailable at default granularity", w.Name)
				}
				for _, limit := range []int{0, 1, 13, 800} {
					naive, rejected := NaiveSurvivingPairs(prm, aMask, bMask, limit, view)
					pruned, prunedCount := layered.EnumerateSurvivingPairs(prm, aMask, bMask, limit, orc, nil)
					if len(pruned) != len(naive) || prunedCount != rejected {
						t.Fatalf("%s class %d limit %d: %d pairs (%d pruned) vs naive %d (%d rejected)",
							w.Name, c, limit, len(pruned), prunedCount, len(naive), rejected)
					}
					for i := range pruned {
						if !equalTauPairs(pruned[i], naive[i]) {
							t.Fatalf("%s class %d limit %d pair %d: %+v vs %+v",
								w.Name, c, limit, i, pruned[i], naive[i])
						}
					}
				}
			}
		}
	}
}

// TestBuildDeltaMatchesBuildIndexed is the differential suite over the
// differential layered-graph builder, sweeping every E1–E15 generator
// family: on matchings evolved by real reduction rounds, every surviving
// (τA, τB) pair of every class is built twice — delta-chained through one
// scratch arena (BuildIndexed for the first pair, BuildDelta patching the
// previous build after) and from scratch — and the X/Y/NumV snapshots must
// be byte-identical, id for id and edge for edge (Invariant 19). The
// end-to-end halves of the invariant (bit-identical matchings with
// Options.Amortize on/off while the amortised path delta-chains) are
// TestAmortizedMatchesNaive and TestDeltaDisabledBitIdentical.
func TestBuildDeltaMatchesBuildIndexed(t *testing.T) {
	prm := layered.Params{}.WithDefaults()
	chained, reused := 0, 0
	for _, w := range Workloads(rand.New(rand.NewSource(31))) {
		weights := core.ClassWeights(w.G, 2, prm)
		if len(weights) == 0 {
			continue
		}
		inc := layered.NewIncIndex(w.G.N(), w.G.Edges(), weights, prm)
		m := w.cloneInitial()
		runner := core.NewRunner(w.G, optsWithRng(core.Options{}, 32))
		parRng := rand.New(rand.NewSource(33))
		scratch := layered.NewScratch()
		scratch.EnableDeltaBaseline()
		enum := layered.NewPairScratch()
		var stats core.Stats
		for round := 0; round < 3; round++ {
			if _, err := runner.Round(m, &stats); err != nil {
				t.Fatalf("%s round %d: %v", w.Name, round, err)
			}
			par := layered.Parametrize(w.G.N(), w.G.Edges(), m, parRng)
			inc.BeginRound(par)
			for c := 0; c < inc.Classes(); c++ {
				view := inc.View(c)
				aMask, bMask, ok := view.Masks()
				if !ok {
					t.Fatalf("%s: masks unavailable at default granularity", w.Name)
				}
				orc, ok := view.Oracle()
				if !ok {
					t.Fatalf("%s: oracle unavailable at default granularity", w.Name)
				}
				pairs, _ := layered.EnumerateSurvivingPairs(prm, aMask, bMask, 800, orc, enum)
				var prev *layered.Layered
				for pi, tau := range pairs {
					want := layered.BuildIndexed(view, tau, nil)
					var got *layered.Layered
					if prev == nil {
						got = layered.BuildIndexed(view, tau, scratch)
					} else {
						var segs int
						var err error
						got, segs, err = layered.BuildDelta(view, prev, tau, scratch, 1)
						if err != nil {
							t.Fatalf("%s round %d class %d pair %d: BuildDelta: %v",
								w.Name, round, c, pi, err)
						}
						chained++
						reused += segs
					}
					prev = got
					if err := equalLayered(got, want); err != nil {
						t.Fatalf("%s round %d class %d pair %d (tau %+v): %v",
							w.Name, round, c, pi, tau, err)
					}
				}
			}
		}
	}
	if chained == 0 || reused == 0 {
		t.Fatalf("delta chain never exercised: %d chained builds, %d segments reused", chained, reused)
	}
}

// equalLayered reports the first difference between two layered graphs,
// comparing the full snapshot: compact-id decode tables and the X, Y, and
// InteriorX edge sequences.
func equalLayered(got, want *layered.Layered) error {
	if got.K != want.K || got.NumV != want.NumV {
		return errMismatch("shape", [2]int{got.K, got.NumV}, [2]int{want.K, want.NumV})
	}
	for id := 0; id < want.NumV; id++ {
		if got.Orig(id) != want.Orig(id) || got.LayerOf(id) != want.LayerOf(id) {
			return errMismatch("id decode",
				[2]int{got.LayerOf(id), got.Orig(id)}, [2]int{want.LayerOf(id), want.Orig(id)})
		}
	}
	for _, s := range []struct {
		name      string
		got, want []graph.Edge
	}{{"X", got.X, want.X}, {"Y", got.Y, want.Y}, {"InteriorX", got.InteriorX, want.InteriorX}} {
		if len(s.got) != len(s.want) {
			return errMismatch(s.name+" size", len(s.got), len(s.want))
		}
		for i := range s.got {
			if s.got[i] != s.want[i] {
				return errMismatch(s.name+" edge", s.got[i], s.want[i])
			}
		}
	}
	return nil
}

// TestDeltaDisabledBitIdentical isolates the differential builder inside
// the amortised pipeline: DeltaCutover = −1 rebuilds every surviving pair
// from scratch while everything else (index, probe, cache) stays on, so
// equal matchings here mean the delta chain itself — not the surrounding
// pipeline — is output-transparent. The enabled run must actually chain.
func TestDeltaDisabledBitIdentical(t *testing.T) {
	deltaBuilds := 0
	for _, w := range Workloads(rand.New(rand.NewSource(34))) {
		sOff, sOn := AssertBitIdentical(t, w,
			core.Options{Amortize: true, DeltaCutover: -1},
			core.Options{Amortize: true},
			35, 5)
		if sOff.DeltaBuilds != 0 {
			t.Errorf("%s: DeltaCutover=-1 still delta-built %d graphs", w.Name, sOff.DeltaBuilds)
		}
		deltaBuilds += sOn.DeltaBuilds
		// The gate skips the same clean classes either way.
		if sOff.ClassesSkippedDirty != sOn.ClassesSkippedDirty {
			t.Errorf("%s: ClassesSkippedDirty %d (delta off) vs %d (delta on)",
				w.Name, sOff.ClassesSkippedDirty, sOn.ClassesSkippedDirty)
		}
	}
	if deltaBuilds == 0 {
		t.Fatal("no workload exercised the delta chain")
	}
}

// TestCrossRoundBitIdentical is the PR 7 differential over the whole
// generator matrix: chaining delta baselines across the bipartition redraw
// (the default) must be bit-identical — matching bytes, gain, and the full
// phase/call counts — to the round-local chain (CrossRoundCutover = −1) on
// every family, while actually crossing a round boundary somewhere in the
// matrix. The baseline's cross counters must stay zero, pinning the knob's
// off semantics (Invariant 24).
func TestCrossRoundBitIdentical(t *testing.T) {
	crossBuilds := 0
	for _, w := range Workloads(rand.New(rand.NewSource(61))) {
		sOn, sOff := AssertBitIdentical(t, w,
			core.Options{Amortize: true},
			core.Options{Amortize: true, CrossRoundCutover: -1},
			62, 6)
		if sOn.SolverPhases != sOff.SolverPhases || sOn.SolverCalls != sOff.SolverCalls {
			t.Errorf("%s: solver effort diverged: phases %d/%d calls %d/%d",
				w.Name, sOn.SolverPhases, sOff.SolverPhases, sOn.SolverCalls, sOff.SolverCalls)
		}
		if sOff.CrossRoundDeltaBuilds != 0 || sOff.CrossRoundRepairs != 0 {
			t.Errorf("%s: CrossRoundCutover=-1 still linked across rounds: %+v", w.Name, sOff)
		}
		crossBuilds += sOn.CrossRoundDeltaBuilds
	}
	if crossBuilds == 0 {
		t.Fatal("no workload's chain survived the bipartition redraw")
	}
}

// TestClassesSkippedDirtyExact pins the dirty-gate counter: for every round
// the amortised Runner executes, a twin Rng replays the identical
// bipartition and recomputes, class by class from from-scratch BucketIndex
// rebuilds, which classes have no crossing edge in any τ window — the
// skipped count must match exactly (Invariant 20's accounting half).
func TestClassesSkippedDirtyExact(t *testing.T) {
	prm := layered.Params{}.WithDefaults()
	maxU, _ := prm.Units()
	skipped := 0
	for _, w := range Workloads(rand.New(rand.NewSource(36))) {
		weights := core.ClassWeights(w.G, 2, prm)
		runner := core.NewRunner(w.G, optsWithRng(core.Options{Amortize: true}, 37))
		twin := rand.New(rand.NewSource(37))
		m := w.cloneInitial()
		var stats core.Stats
		for round := 0; round < 4; round++ {
			// The twin draws the round's bipartition from an identically
			// seeded Rng before the Runner consumes its own copy.
			par := layered.Parametrize(w.G.N(), w.G.Edges(), m, twin)
			expect := 0
			for _, cw := range weights {
				ref := layered.NewBucketIndex(par, cw, prm)
				dirty := false
				for u := 1; u <= maxU && !dirty; u++ {
					dirty = ref.ACount(u) > 0 || (u >= 2 && ref.BCount(u) > 0)
				}
				if !dirty {
					expect++
				}
			}
			before := stats.ClassesSkippedDirty
			if _, err := runner.Round(m, &stats); err != nil {
				t.Fatalf("%s round %d: %v", w.Name, round, err)
			}
			if got := stats.ClassesSkippedDirty - before; got != expect {
				t.Fatalf("%s round %d: ClassesSkippedDirty=%d, naive recount %d",
					w.Name, round, got, expect)
			}
			skipped += stats.ClassesSkippedDirty - before
		}
	}
	if skipped == 0 {
		t.Log("no clean classes on any workload this seed; gate counted zero skips exactly")
	}
}

func equalTauPairs(a, b layered.TauPair) bool {
	if len(a.AUnits) != len(b.AUnits) || len(a.BUnits) != len(b.BUnits) {
		return false
	}
	for i := range a.AUnits {
		if a.AUnits[i] != b.AUnits[i] {
			return false
		}
	}
	for i := range a.BUnits {
		if a.BUnits[i] != b.BUnits[i] {
			return false
		}
	}
	return true
}

// TestAmortizeFineGranularityFallback pins the fallback past the
// incremental index's compact unit storage: at granularity 1/300 the
// amortised configuration must silently use the naive path (no amortised
// counters) and still return the naive matchings — not wrap τ units.
func TestAmortizeFineGranularityFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inst := graph.PlantedMatching(8, 12, 100, 200, rng)
	w := Workload{Name: "fine-granularity", G: inst.G}
	fine := layered.Params{Granularity: 1.0 / 300}
	_, sA := AssertBitIdentical(t, w,
		core.Options{Layered: fine, MaxPairsPerClass: 10},
		core.Options{Layered: fine, MaxPairsPerClass: 10, Amortize: true},
		19, 2)
	if sA.ProbeSkips != 0 || sA.CacheHits != 0 {
		t.Errorf("fine granularity still ran the amortised pipeline: %+v", sA)
	}
}

func optsWithRng(opts core.Options, seed int64) core.Options {
	opts.Rng = rand.New(rand.NewSource(seed))
	return opts
}

// TestRepairMatchesFromScratch is the acceptance differential of the
// incremental Hopcroft–Karp repair (Invariant 21, repair-equals-fresh): on
// every generator family, at every RepairCutover setting, the repaired runs
// must match the repair-disabled run round-by-round in the full matching,
// and at the end of the budget in every phase-visible counter — phases,
// solver calls, and applied augmentations — because a repaired solve is
// bit-for-bit the cold solve of the same instance.
func TestRepairMatchesFromScratch(t *testing.T) {
	for _, w := range Workloads(rand.New(rand.NewSource(6))) {
		for _, cutover := range []int{0, 1, 4} {
			off := core.Options{Amortize: true, RepairCutover: -1}
			on := core.Options{Amortize: true, RepairCutover: cutover}
			sOff, sOn := AssertBitIdentical(t, w, off, on, 21, 5)
			if sOff.RepairSolves != 0 {
				t.Errorf("%s: disabled run repaired %d times", w.Name, sOff.RepairSolves)
			}
			if sOn.SolverPhases != sOff.SolverPhases {
				t.Errorf("%s cutover %d: phases %d (repair) vs %d (scratch)",
					w.Name, cutover, sOn.SolverPhases, sOff.SolverPhases)
			}
			if sOn.SolverCalls != sOff.SolverCalls {
				t.Errorf("%s cutover %d: solver calls %d vs %d",
					w.Name, cutover, sOn.SolverCalls, sOff.SolverCalls)
			}
			if sOn.AppliedAugmentations != sOff.AppliedAugmentations {
				t.Errorf("%s cutover %d: applied %d vs %d",
					w.Name, cutover, sOn.AppliedAugmentations, sOff.AppliedAugmentations)
			}
		}
	}
}

// TestRepairMatchesNaive closes the triangle: a repair-enabled amortised
// run against the naive per-round rebuild — the repair must be invisible
// through the whole pipeline, not just against its own scratch twin.
func TestRepairMatchesNaive(t *testing.T) {
	for _, w := range Workloads(rand.New(rand.NewSource(7))) {
		AssertBitIdentical(t, w,
			core.Options{},
			core.Options{Amortize: true, RepairCutover: 0},
			33, 5)
	}
}
