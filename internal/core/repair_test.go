package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/graph"
)

// repairTestSolve runs a fixed-budget amortised Solve on the banded shape
// with the given repair cutover.
func repairTestSolve(t *testing.T, g *graph.Graph, cutover, workers int) Result {
	t.Helper()
	res, err := Solve(g, nil, Options{
		Amortize:      true,
		RepairCutover: cutover,
		Workers:       workers,
		Rng:           rand.New(rand.NewSource(17)),
		MaxRounds:     4,
		Patience:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRepairSolveBitIdentical is the core-level repair differential: at
// every cutover setting the final matching, the phase counts, and the
// applied augmentations equal the repair-disabled run's (Invariant 21).
// The family-wide sweep lives in internal/solvertest.
func TestRepairSolveBitIdentical(t *testing.T) {
	inst := graph.BandedWeights(48, 8*48, 100, rand.New(rand.NewSource(4)))
	ref := repairTestSolve(t, inst.G, -1, 1)
	if ref.Stats.RepairSolves != 0 {
		t.Fatalf("disabled run recorded %d repair solves", ref.Stats.RepairSolves)
	}
	for _, cutover := range []int{0, 1, 4} {
		got := repairTestSolve(t, inst.G, cutover, 1)
		sameMatching(t, "repair vs scratch", ref.M, got.M)
		if got.Stats.SolverPhases != ref.Stats.SolverPhases {
			t.Fatalf("cutover %d: phases %d, want %d", cutover, got.Stats.SolverPhases, ref.Stats.SolverPhases)
		}
		if got.Stats.AppliedAugmentations != ref.Stats.AppliedAugmentations {
			t.Fatalf("cutover %d: applied %d, want %d", cutover, got.Stats.AppliedAugmentations, ref.Stats.AppliedAugmentations)
		}
	}
	if got := repairTestSolve(t, inst.G, 0, 1); got.Stats.RepairSolves == 0 {
		t.Fatal("default cutover never repaired on the banded shape")
	}
}

// TestRepairParallelWorkers pins worker-count invariance of the repair
// path — chains are worker-local, results must not be — and, run under
// -race in CI, is the concurrency net for the per-worker retained arenas
// at Workers=4. The cross-class cache's hit placement is scheduling-
// dependent under a worker pool (values are pure, so results are not), so
// the assertion covers the matching and the scheduling-independent
// counters, with SolverCalls+CacheHits invariant as a sum.
func TestRepairParallelWorkers(t *testing.T) {
	inst := graph.BandedWeights(48, 8*48, 100, rand.New(rand.NewSource(4)))
	ref := repairTestSolve(t, inst.G, 0, 1)
	for _, workers := range []int{2, 4} {
		got := repairTestSolve(t, inst.G, 0, workers)
		sameMatching(t, "parallel repair", ref.M, got.M)
		if got.Stats.Gain != ref.Stats.Gain ||
			got.Stats.AppliedAugmentations != ref.Stats.AppliedAugmentations ||
			got.Stats.Rounds != ref.Stats.Rounds ||
			got.Stats.LayeredBuilt != ref.Stats.LayeredBuilt ||
			got.Stats.EnumPruned != ref.Stats.EnumPruned ||
			got.Stats.ClassesSkippedDirty != ref.Stats.ClassesSkippedDirty {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, got.Stats, ref.Stats)
		}
		if s, r := got.Stats.SolverCalls+got.Stats.CacheHits, ref.Stats.SolverCalls+ref.Stats.CacheHits; s != r {
			t.Fatalf("workers=%d: solves+hits %d, want %d", workers, s, r)
		}
		if got.Stats.RepairSolves == 0 {
			t.Fatalf("workers=%d: repair never engaged", workers)
		}
	}
}

// TestPhasedSolverFactoryCountsPhases pins the phase ledger of installed
// solvers: under a PhasedSolverFactory, Stats.SolverPhases is exactly the
// sum its solvers report, sequentially and across worker counts.
func TestPhasedSolverFactoryCountsPhases(t *testing.T) {
	inst := graph.PlantedMatching(60, 300, 100, 200, rand.New(rand.NewSource(8)))
	run := func(opts Options) Stats {
		t.Helper()
		opts.Rng = rand.New(rand.NewSource(23))
		opts.MaxRounds, opts.Patience = 4, 4
		res, err := Solve(inst.G, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	// Ground truth: a sequential run whose solvers also accumulate their
	// phase counts into a test-side counter — Stats.SolverPhases must be
	// exactly that sum, not a silent zero. (Factory runs draw per-class
	// Rng seeds, so their rounds are not comparable to the default
	// config's; parity is asserted within the factory world.)
	truth := 0
	counting := func(*rand.Rand) PhasedSolver {
		ps := ExactPhasedSolver()
		return func(b *bipartite.Bip) (*graph.Matching, int, error) {
			m, phases, err := ps(b)
			truth += phases // sequential sweep: no synchronisation needed
			return m, phases, err
		}
	}
	seq := run(Options{PhasedSolverFactory: counting})
	if seq.SolverPhases == 0 {
		t.Fatal("factory-path phases still 0 — the counting never happened")
	}
	if seq.SolverPhases != truth {
		t.Fatalf("factory phases %d, solvers observed %d", seq.SolverPhases, truth)
	}
	par := run(Options{PhasedSolverFactory: func(*rand.Rand) PhasedSolver { return ExactPhasedSolver() }, Workers: 4})
	if par != seq {
		t.Fatalf("parallel factory stats %+v, sequential %+v", par, seq)
	}
}

// TestCacheGateTransparent pins the satellite-2 contract: gating the
// cross-class cache by hit rate — at any budget, including the immediate
// gate — never changes the result, only how often the cache is consulted.
func TestCacheGateTransparent(t *testing.T) {
	inst := graph.PlantedMatching(60, 300, 100, 200, rand.New(rand.NewSource(12)))
	run := func(gate int) (Result, Stats) {
		t.Helper()
		res, err := Solve(inst.G, nil, Options{
			Amortize:  true,
			CacheGate: gate,
			Rng:       rand.New(rand.NewSource(31)),
			MaxRounds: 5,
			Patience:  5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, res.Stats
	}
	ref, refStats := run(-1) // gate disabled: every lookup keys and digests
	for _, gate := range []int{0, 1, 4} {
		got, gotStats := run(gate)
		sameMatching(t, "gated cache", ref.M, got.M)
		if gotStats.Gain != refStats.Gain {
			t.Fatalf("gate %d: gain %d, want %d", gate, gotStats.Gain, refStats.Gain)
		}
		if gotStats.CacheHits > refStats.CacheHits {
			t.Fatalf("gate %d: more hits (%d) than ungated (%d)?", gate, gotStats.CacheHits, refStats.CacheHits)
		}
	}
	if _, one := run(1); one.CacheHits >= refStats.CacheHits && refStats.CacheHits > 0 {
		// An immediate gate shuts hitless classes after one lookup; with
		// any real hit traffic the gated run must consult the cache less.
		t.Fatalf("gate 1 did not reduce cache traffic: %d vs %d", one.CacheHits, refStats.CacheHits)
	}
}

// TestStatsAccumulateComplete guards the merge half of the counter sweep:
// folding a Stats whose every field is nonzero must reproduce each field —
// a hand-maintained merge list that forgot a future counter would fail
// here (the printing half is pinned in cmd/augrun and internal/bench).
func TestStatsAccumulateComplete(t *testing.T) {
	var src Stats
	sv := reflect.ValueOf(&src).Elem()
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetInt(int64(i + 1))
	}
	var dst Stats
	dst.accumulate(src)
	dst.accumulate(src)
	dv := reflect.ValueOf(dst)
	for i := 0; i < dv.NumField(); i++ {
		if got, want := dv.Field(i).Int(), int64(2*(i+1)); got != want {
			t.Errorf("field %s: accumulated %d, want %d", dv.Type().Field(i).Name, got, want)
		}
	}
}
