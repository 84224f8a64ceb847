package solvertest

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/layered"
)

// TestAmortizedMatchesNaive is the headline differential: the amortised
// pipeline (incremental index + survival probe + cross-class cache + delta
// chain + Hopcroft–Karp repair + round link) must return the bit-identical
// matching of the naive per-(round, class) rebuild after every round, on
// every generator family, at several seeds. It is also the pipeline-level
// reference of Invariants 19, 21 and 24: the matrix must actually
// delta-build, cross a round boundary and repair, and at least one run
// that repairs must have no cache hit, so that its phase count is held to
// the naive one.
func TestAmortizedMatchesNaive(t *testing.T) {
	var deltaBuilds, crossBuilds, repairs, phaseCheckedRepairs int
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
			deltaBuilds += sA.DeltaBuilds
			crossBuilds += sA.CrossRoundDeltaBuilds
			repairs += sA.RepairSolves
			if sA.CacheHits == 0 {
				phaseCheckedRepairs += sA.RepairSolves
			}
		}
	}
	if deltaBuilds == 0 || crossBuilds == 0 || repairs == 0 {
		t.Fatalf("matrix left a layer unexercised: %d delta builds, %d cross-round builds, %d repairs",
			deltaBuilds, crossBuilds, repairs)
	}
	if phaseCheckedRepairs == 0 {
		t.Fatal("no run without cache hits repaired: the phase check never covered the repair path")
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

// TestCacheTransparent isolates the cross-class cache: installing the exact
// solver through a factory disables the cache (and the repair, which is
// bit-identical to a cold solve by Invariant 21), so equal matchings here
// mean cached candidate replay is indistinguishable from re-solving.
func TestCacheTransparent(t *testing.T) {
	for _, w := range Workloads(rand.New(rand.NewSource(6))) {
		sOn, sOff := AssertBitIdentical(t, w,
			core.Options{Amortize: true},
			core.Options{Amortize: true, PhasedSolverFactory: core.ExactPhasedSolver},
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
// end-to-end half of the invariant (bit-identical matchings with
// Options.Amortize on/off while the amortised path delta-chains) is
// TestAmortizedMatchesNaive.
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

// granularityRow is one granularity at which assertGranularityBoundary
// runs a workload naive and amortised.
type granularityRow struct {
	units, maxPairs, rounds int
	seed                    int64
}

// assertGranularityBoundary pins where the amortised pipeline runs: whole
// at granularity 1/62 and coarser, not at all past it. At 1/62 the class
// views' bit tables exist (maxU < FreeLBit), so an amortised run prunes
// pairs inside the enumeration and delta-chains its builds, with no
// fallback rung taken. Finer, no index is built and the amortised
// configuration runs the naive path, so its whole Stats equals the naive
// run's. At every granularity the matching equals the naive path's every
// round.
func assertGranularityBoundary(t *testing.T, w Workload, rows ...granularityRow) {
	t.Helper()
	for _, c := range rows {
		units := c.units
		t.Run(fmt.Sprintf("granularity_1_%d", units), func(t *testing.T) {
			prm := layered.Params{Granularity: 1 / float64(units)}
			sN, sA := AssertBitIdentical(t, w,
				core.Options{Layered: prm, MaxPairsPerClass: c.maxPairs},
				core.Options{Layered: prm, MaxPairsPerClass: c.maxPairs, Amortize: true},
				c.seed, c.rounds)
			if units > 62 {
				if sA != sN {
					t.Errorf("amortised stats differ from the naive run's:\n%+v\nvs\n%+v", sA, sN)
				}
				return
			}
			if sA.DeltaBuilds == 0 || sA.EnumPruned == 0 {
				t.Errorf("amortised run did not chain: %d delta builds, %d pruned pairs", sA.DeltaBuilds, sA.EnumPruned)
			}
			for _, f := range sA.Fields() {
				if strings.HasPrefix(f.Name, "fallback-") && f.Value != 0 {
					t.Errorf("%s = %d, want 0", f.Name, f.Value)
				}
			}
		})
	}
}

// TestAmortizeChainBoundary runs assertGranularityBoundary on either side
// of the class views' bit tables: 1/62 delta-chains, 1/63 and 1/64 run
// the naive path whole.
func TestAmortizeChainBoundary(t *testing.T) {
	band := Workload{Name: "banded", G: graph.BandedWeights(16, 64, 100, rand.New(rand.NewSource(5))).G}
	assertGranularityBoundary(t, band,
		granularityRow{62, 30, 3, 21}, granularityRow{63, 30, 3, 21}, granularityRow{64, 30, 3, 21})
}

// TestAmortizeFineGranularityFallback runs assertGranularityBoundary far
// past the bit tables, where an amortised configuration must run the
// naive path whole rather than wrap τ units. Past 64 units the naive
// enumeration filters pairs unit by unit, which on the band costs
// minutes, so these rows run a smaller planted instance.
func TestAmortizeFineGranularityFallback(t *testing.T) {
	planted := Workload{Name: "planted", G: graph.PlantedMatching(8, 12, 100, 200, rand.New(rand.NewSource(9))).G}
	assertGranularityBoundary(t, planted,
		granularityRow{255, 10, 2, 19}, granularityRow{300, 10, 2, 19})
}

func optsWithRng(opts core.Options, seed int64) core.Options {
	opts.Rng = rand.New(rand.NewSource(seed))
	return opts
}

// TestRepairMatchesNaive repeats the amortised-vs-naive differential on a
// fresh draw of every family: the repair, which every amortised run with
// the default solver takes, must be invisible through the whole pipeline.
func TestRepairMatchesNaive(t *testing.T) {
	for _, w := range Workloads(rand.New(rand.NewSource(7))) {
		AssertBitIdentical(t, w,
			core.Options{},
			core.Options{Amortize: true},
			33, 5)
	}
}

// NaiveSurvivingPairs is the generate-then-probe differential twin of
// layered.EnumerateSurvivingPairs: the memoised masked enumeration followed
// by a per-pair ProbeY filter — exactly the pair pipeline the amortised path
// ran before pruning moved into the generation recursion. It returns the
// surviving pairs and the count of window pairs the probe rejected; the
// pruned enumeration must reproduce both, pair-for-pair and in order, on
// every workload family.
func NaiveSurvivingPairs(prm layered.Params, aMask, bMask uint64, limit int, view *layered.IncView) (pairs []layered.TauPair, rejected int) {
	for _, tau := range layered.EnumerateGoodPairsMasked(prm, aMask, bMask, limit) {
		if view.ProbeY(tau) {
			pairs = append(pairs, tau)
		} else {
			rejected++
		}
	}
	return pairs, rejected
}
