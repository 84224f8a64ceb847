package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/matchutil"
)

func TestSolveStreamingQualityAndPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inst := graph.PlantedMatching(50, 250, 100, 200, rng)
	res, err := SolveStreaming(inst.G, nil, StreamingOptions{
		Core:  Options{Rng: rng, MaxRounds: 25, Patience: 4},
		Delta: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.M.Validate(); err != nil {
		t.Fatal(err)
	}
	if ratio := matchutil.Ratio(res.M, inst.OptWeight); ratio < 0.85 {
		t.Errorf("streaming ratio = %.4f", ratio)
	}
	if res.TotalPasses == 0 || res.MaxRoundPasses == 0 {
		t.Error("pass accounting missing")
	}
	if res.SubroutinePasses > res.MaxRoundPasses {
		t.Error("subroutine passes exceed round passes")
	}
}

func TestSolveStreamingPassesIndependentOfN(t *testing.T) {
	// Theorem 1.2(2) shape: the per-round pass cost is O_ε(U_S), a
	// constant in n. Compare two sizes.
	var maxRound []int
	for i, n := range []int{40, 120} {
		rng := rand.New(rand.NewSource(int64(10 + i)))
		inst := graph.PlantedMatching(n, 4*n, 100, 200, rng)
		res, err := SolveStreaming(inst.G, nil, StreamingOptions{
			Core:  Options{Rng: rng, MaxRounds: 10, Patience: 3},
			Delta: 0.25,
		})
		if err != nil {
			t.Fatal(err)
		}
		maxRound = append(maxRound, res.MaxRoundPasses)
	}
	if maxRound[1] > 3*maxRound[0]+5 {
		t.Errorf("per-round passes grew with n: %v", maxRound)
	}
}

func TestSolveMPCQualityAndRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	inst := graph.PlantedMatching(50, 250, 100, 200, rng)
	res, err := SolveMPC(inst.G, nil, MPCOptions{
		Core:  Options{Rng: rng, MaxRounds: 25, Patience: 4},
		Delta: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.M.Validate(); err != nil {
		t.Fatal(err)
	}
	if ratio := matchutil.Ratio(res.M, inst.OptWeight); ratio < 0.85 {
		t.Errorf("MPC ratio = %.4f", ratio)
	}
	if res.TotalRounds == 0 || res.SubroutineRounds == 0 {
		t.Error("round accounting missing")
	}
	if res.PeakLoad == 0 {
		t.Error("no memory loads recorded")
	}
}

func TestDriversMatchOfflineQuality(t *testing.T) {
	// The model drivers use approximate subroutines; their output should
	// land near the offline exact-subroutine reduction on the same
	// instance.
	rng := rand.New(rand.NewSource(4))
	inst := graph.PlantedMatching(40, 160, 100, 150, rng)

	off, err := Solve(inst.G, nil, Options{Rng: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	st, err := SolveStreaming(inst.G, nil, StreamingOptions{
		Core: Options{Rng: rand.New(rand.NewSource(5))},
	})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := SolveMPC(inst.G, nil, MPCOptions{
		Core: Options{Rng: rand.New(rand.NewSource(5))},
	})
	if err != nil {
		t.Fatal(err)
	}
	offR := matchutil.Ratio(off.M, inst.OptWeight)
	stR := matchutil.Ratio(st.M, inst.OptWeight)
	mpR := matchutil.Ratio(mp.M, inst.OptWeight)
	if stR < offR-0.1 {
		t.Errorf("streaming ratio %.4f far below offline %.4f", stR, offR)
	}
	if mpR < offR-0.1 {
		t.Errorf("MPC ratio %.4f far below offline %.4f", mpR, offR)
	}
}

// TestModelDriversIgnoreWorkers: the model drivers install one stateful
// solver (pass or round ledger, shared Rng) and run the class sweep
// sequentially themselves, so Core.Workers changes nothing — and under
// -race a driver that let the pool share its solver would be reported.
func TestModelDriversIgnoreWorkers(t *testing.T) {
	inst := graph.PlantedMatching(40, 160, 100, 150, rand.New(rand.NewSource(6)))
	opts := func(workers int) Options {
		return Options{Rng: rand.New(rand.NewSource(7)), MaxRounds: 6, Patience: 3, Workers: workers}
	}
	st1, err := SolveStreaming(inst.G, nil, StreamingOptions{Core: opts(1)})
	if err != nil {
		t.Fatal(err)
	}
	st8, err := SolveStreaming(inst.G, nil, StreamingOptions{Core: opts(8)})
	if err != nil {
		t.Fatal(err)
	}
	if st1.M.Weight() != st8.M.Weight() || st1.TotalPasses != st8.TotalPasses ||
		st1.MaxRoundPasses != st8.MaxRoundPasses || st1.Stats != st8.Stats {
		t.Fatalf("streaming at Workers 8 (weight %d, %d passes) differs from Workers 1 (weight %d, %d passes)",
			st8.M.Weight(), st8.TotalPasses, st1.M.Weight(), st1.TotalPasses)
	}
	mp1, err := SolveMPC(inst.G, nil, MPCOptions{Core: opts(1)})
	if err != nil {
		t.Fatal(err)
	}
	mp8, err := SolveMPC(inst.G, nil, MPCOptions{Core: opts(8)})
	if err != nil {
		t.Fatal(err)
	}
	if mp1.M.Weight() != mp8.M.Weight() || mp1.TotalRounds != mp8.TotalRounds ||
		mp1.MaxRoundRounds != mp8.MaxRoundRounds || mp1.Stats != mp8.Stats {
		t.Fatalf("MPC at Workers 8 (weight %d, %d rounds) differs from Workers 1 (weight %d, %d rounds)",
			mp8.M.Weight(), mp8.TotalRounds, mp1.M.Weight(), mp1.TotalRounds)
	}
}

// TestModelDriversAmortizedMatchNaive is the model drivers' differential:
// SolveStreaming and SolveMPC with Core.Amortize on and off must return the
// same matching and the same SolverCalls (the installed model solver turns
// the cross-class cache off, so no hit replaces a call), and the same pass
// and round ledgers: the amortised pipeline hands the model solvers exactly
// the naive path's instances, in the naive path's order.
func TestModelDriversAmortizedMatchNaive(t *testing.T) {
	deltaBuilds := 0
	for _, seed := range []int64{1, 2, 3} {
		inst := graph.PlantedMatching(40, 160, 100, 200, rand.New(rand.NewSource(seed)))
		opts := func(amortize bool) Options {
			return Options{Rng: rand.New(rand.NewSource(seed + 10)), MaxRounds: 8, Patience: 3, Amortize: amortize}
		}
		stN, err := SolveStreaming(inst.G, nil, StreamingOptions{Core: opts(false)})
		if err != nil {
			t.Fatal(err)
		}
		stA, err := SolveStreaming(inst.G, nil, StreamingOptions{Core: opts(true)})
		if err != nil {
			t.Fatal(err)
		}
		sameMatching(t, "streaming", stN.M, stA.M)
		if stN.Stats.SolverCalls != stA.Stats.SolverCalls || stA.Stats.CacheHits != 0 {
			t.Errorf("seed %d streaming: SolverCalls %d (naive) vs %d (amortised, %d cache hits)",
				seed, stN.Stats.SolverCalls, stA.Stats.SolverCalls, stA.Stats.CacheHits)
		}
		passN := [4]int{stN.TotalPasses, stN.MaxRoundPasses, stN.SubroutinePasses, stN.PeakStored}
		passA := [4]int{stA.TotalPasses, stA.MaxRoundPasses, stA.SubroutinePasses, stA.PeakStored}
		if passN != passA {
			t.Errorf("seed %d streaming: passes/max/subroutine/peak %v (naive) vs %v (amortised)", seed, passN, passA)
		}

		mpN, err := SolveMPC(inst.G, nil, MPCOptions{Core: opts(false)})
		if err != nil {
			t.Fatal(err)
		}
		mpA, err := SolveMPC(inst.G, nil, MPCOptions{Core: opts(true)})
		if err != nil {
			t.Fatal(err)
		}
		sameMatching(t, "mpc", mpN.M, mpA.M)
		if mpN.Stats.SolverCalls != mpA.Stats.SolverCalls || mpA.Stats.CacheHits != 0 {
			t.Errorf("seed %d mpc: SolverCalls %d (naive) vs %d (amortised, %d cache hits)",
				seed, mpN.Stats.SolverCalls, mpA.Stats.SolverCalls, mpA.Stats.CacheHits)
		}
		roundsN := [4]int{mpN.TotalRounds, mpN.MaxRoundRounds, mpN.SubroutineRounds, mpN.PeakLoad}
		roundsA := [4]int{mpA.TotalRounds, mpA.MaxRoundRounds, mpA.SubroutineRounds, mpA.PeakLoad}
		if roundsN != roundsA {
			t.Errorf("seed %d mpc: rounds/max/U_M/peak load %v (naive) vs %v (amortised)", seed, roundsN, roundsA)
		}
		deltaBuilds += stA.Stats.DeltaBuilds + mpA.Stats.DeltaBuilds
	}
	if deltaBuilds == 0 {
		t.Fatal("the amortised runs never delta-built: the differential compared two naive paths")
	}
}
