package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/layered"
)

// TestCrossRoundChaining is the core-level differential for the round link
// (Invariant 24): an amortised Solve, whose class chains cross every
// bipartition redraw (CrossRoundDeltaBuilds > 0), must return the
// bit-identical matching and gain of the naive path, with every naive
// solve accounted for by a solve or a cache hit, and — when no cache hit
// replaced a whole solve — the identical phase count.
func TestCrossRoundChaining(t *testing.T) {
	g := fallbackTestInstance()
	got, err := Solve(g, nil, Options{Amortize: true, MaxRounds: 8, Rng: rand.New(rand.NewSource(21))})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Solve(g, nil, Options{MaxRounds: 8, Rng: rand.New(rand.NewSource(21))})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesNaive(t, "cross-round run", got, want)
	if got.Stats.CrossRoundDeltaBuilds == 0 {
		t.Error("no chain crossed a round boundary")
	}
	// Healthy chains never touch the ladder, cross-round links included.
	if got.Stats.FallbackBuilds != 0 || got.Stats.FallbackSolves != 0 {
		t.Errorf("healthy cross-round run hit fallback rungs: %+v", got.Stats)
	}
}

// assertMatchesNaive holds an amortised Solve to the naive one over the
// same Rng stream: the identical matching, gain and round count; every
// naive solve served by a solve or a cache hit; and, when no cache hit
// replaced a whole solve, the identical phase count — delta builds,
// repairs and round links are phase-neutral (Invariants 21 and 24).
func assertMatchesNaive(t *testing.T, what string, got, naive Result) {
	t.Helper()
	if !equalMatchings(got.M, naive.M) {
		t.Fatalf("%s diverged from the naive path: weight %d vs %d", what, got.M.Weight(), naive.M.Weight())
	}
	g, n := got.Stats, naive.Stats
	if g.Gain != n.Gain || g.Rounds != n.Rounds || g.AppliedAugmentations != n.AppliedAugmentations {
		t.Fatalf("%s result counters diverged:\n got %+v\nnaive %+v", what, g, n)
	}
	if g.SolverCalls+g.CacheHits != n.SolverCalls {
		t.Fatalf("%s: %d solves + %d cache hits, naive %d solves", what, g.SolverCalls, g.CacheHits, n.SolverCalls)
	}
	if g.CacheHits == 0 && g.SolverPhases != n.SolverPhases {
		t.Fatalf("%s: %d phases with no cache hit, naive %d", what, g.SolverPhases, n.SolverPhases)
	}
}

// repeatSource is a rand.Source whose stream repeats with a fixed period,
// so every Parametrize of a Runner draws the IDENTICAL bipartition each
// round (the default solver consumes no randomness between rounds). The
// stable redraw is the best case for the cross-round chain — and the only
// deterministic way to pin CrossRoundRepairs > 0, since a uniform redraw
// rarely leaves a whole τ window's buckets untouched.
type repeatSource struct {
	vals []int64
	i    int
}

func (s *repeatSource) Int63() int64 {
	v := s.vals[s.i%len(s.vals)]
	s.i++
	return v
}
func (s *repeatSource) Seed(int64) {}

// TestCrossRoundRepairChains pins the repair side of the round link: under
// a side-stable redraw the first build of a class-round deltas over the
// previous round's last build with a non-empty kept prefix, and the repair
// chain extends across the boundary with it (CrossRoundRepairs > 0) — with
// results still bit-identical to the naive path. The band has 240 vertices:
// at 60, too few pairs fill every Y gap for a repair to cross a boundary.
func TestCrossRoundRepairChains(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.BandedWeights(240, 8*240, 100, rng).G
	src := rand.New(rand.NewSource(13))
	vals := make([]int64, g.N())
	for i := range vals {
		vals[i] = src.Int63()
	}
	on := Options{Amortize: true, MaxRounds: 6, Rng: rand.New(&repeatSource{vals: vals})}
	got, err := Solve(g, nil, on)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.CrossRoundDeltaBuilds == 0 {
		t.Fatalf("stable redraw produced no cross-round builds: %+v", got.Stats)
	}
	if got.Stats.CrossRoundRepairs == 0 {
		t.Fatalf("stable redraw produced no cross-round repairs: %+v", got.Stats)
	}
	want, err := Solve(g, nil, Options{MaxRounds: 6, Rng: rand.New(&repeatSource{vals: vals})})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesNaive(t, "cross-round repair run", got, want)
}

// TestBeginRoundBusyAbsorbed: the index's BeginRound misuse sentinel
// (layered.ErrBeginRoundBusy) surfaces through beginRound as an error, and
// the reset rung absorbs it exactly like a setup panic — rebuild once on a
// transient fault, disable amortisation on a persistent one, bit-identical
// matching either way.
func TestBeginRoundBusyAbsorbed(t *testing.T) {
	g := fallbackTestInstance()
	clean := Options{Amortize: true, MaxRounds: 6, Rng: rand.New(rand.NewSource(4))}
	want, err := Solve(g, nil, clean)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	t.Run("transient", func(t *testing.T) {
		calls := 0
		testBeginRoundErr = func() error {
			calls++
			if calls == 1 {
				return layered.ErrBeginRoundBusy
			}
			return nil
		}
		defer func() { testBeginRoundErr = nil }()
		opts := Options{Amortize: true, MaxRounds: 6, Rng: rand.New(rand.NewSource(4))}
		got, err := Solve(g, nil, opts)
		if err != nil {
			t.Fatalf("transient busy sentinel must recover, got: %v", err)
		}
		if got.Stats.FallbackResets != 1 {
			t.Errorf("FallbackResets = %d, want 1", got.Stats.FallbackResets)
		}
		if !equalMatchings(got.M, want.M) {
			t.Errorf("reset run diverged: weight %d vs %d", got.M.Weight(), want.M.Weight())
		}
	})

	t.Run("persistent", func(t *testing.T) {
		testBeginRoundErr = func() error { return layered.ErrBeginRoundBusy }
		defer func() { testBeginRoundErr = nil }()
		opts := Options{Amortize: true, MaxRounds: 6, Rng: rand.New(rand.NewSource(4))}
		got, err := Solve(g, nil, opts)
		if err != nil {
			t.Fatalf("persistent busy sentinel must disable amortisation, got: %v", err)
		}
		if got.Stats.FallbackResets != 2 {
			t.Errorf("FallbackResets = %d, want 2 (rebuild once, then disable)", got.Stats.FallbackResets)
		}
		if !equalMatchings(got.M, want.M) {
			t.Errorf("de-amortised run diverged: weight %d vs %d", got.M.Weight(), want.M.Weight())
		}
	})
}
