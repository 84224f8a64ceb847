package core

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/layered"
)

func fallbackTestInstance() *graph.Graph {
	rng := rand.New(rand.NewSource(555))
	return graph.RandomGraph(50, 180, 64, rng).G
}

// panickyFactory returns a PhasedSolverFactory whose produced solvers panic
// while *arm is nonzero (decrementing it per panic), and solve exactly like
// the default solver otherwise. The panic is side-effect-free, so a ladder
// re-run of the class reproduces the clean run's result bit-for-bit.
func panickyFactory(arm *atomic.Int64) func() PhasedSolver {
	return func() PhasedSolver {
		return func(b *bipartite.Bip) (*graph.Matching, int, error) {
			if arm.Load() > 0 && arm.Add(-1) >= 0 {
				panic("installed solver blew up")
			}
			res := bipartite.HopcroftKarp(b)
			return res.M, res.Phases, nil
		}
	}
}

// TestWorkerPanicRecoveredAtWorkers4 is the satellite-1 regression: before
// the ladder, a panic inside a pool goroutine at Workers > 1 killed the
// whole process (goroutine panics cannot be recovered by the caller). Now
// the pool recovers it, the class re-runs cold, and — the panic being
// transient — the run finishes error-free and bit-identical to the clean
// run, with the recovery visible in FallbackClasses.
func TestWorkerPanicRecoveredAtWorkers4(t *testing.T) {
	g := fallbackTestInstance()
	var noArm atomic.Int64
	clean := Options{Workers: 4, MaxRounds: 6, PhasedSolverFactory: panickyFactory(&noArm),
		Rng: rand.New(rand.NewSource(9))}
	want, err := Solve(g, nil, clean)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	var arm atomic.Int64
	arm.Store(1) // exactly the first solver call panics
	faulty := Options{Workers: 4, MaxRounds: 6, PhasedSolverFactory: panickyFactory(&arm),
		Rng: rand.New(rand.NewSource(9))}
	got, err := Solve(g, nil, faulty)
	if err != nil {
		t.Fatalf("faulty run must recover, got error: %v", err)
	}
	if arm.Load() > 0 {
		t.Fatal("panic never armed — test exercised nothing")
	}
	if got.Stats.FallbackClasses < 1 {
		t.Errorf("FallbackClasses = %d, want >= 1", got.Stats.FallbackClasses)
	}
	if !equalMatchings(got.M, want.M) {
		t.Errorf("recovered run diverged: weight %d vs %d", got.M.Weight(), want.M.Weight())
	}
}

// TestPersistentPanicSurfacesAsError: a solver that panics deterministically
// panics in the cold re-run too — that is a solver bug, not a state fault,
// and must surface to the Solve caller as an error (never as a crash).
func TestPersistentPanicSurfacesAsError(t *testing.T) {
	g := fallbackTestInstance()
	var arm atomic.Int64
	arm.Store(1 << 40)
	opts := Options{Workers: 4, MaxRounds: 3, PhasedSolverFactory: panickyFactory(&arm),
		Rng: rand.New(rand.NewSource(2))}
	done := make(chan struct{})
	var solveErr error
	go func() {
		// A separate goroutine: if the pool failed to recover, the panic
		// would kill the process and the failure mode is unmistakable.
		defer close(done)
		_, solveErr = Solve(g, nil, opts)
	}()
	<-done
	if solveErr == nil {
		t.Fatal("persistently panicking solver returned no error")
	}
	var pe *PanicError
	if !errors.As(solveErr, &pe) {
		t.Fatalf("err = %v, want *PanicError", solveErr)
	}
	if pe.Class < 0 || len(pe.Stack) == 0 {
		t.Errorf("PanicError missing context: class %d, %d stack bytes", pe.Class, len(pe.Stack))
	}
}

// TestSolveReturnsSolverError: a plain error from an installed solver is no
// state fault, so the ladder does not absorb it — no class re-runs cold, the
// solver sees each failing instance once — and Solve returns it unchanged.
// This is how an MPC subroutine over its per-machine memory surfaces (the
// simulator's check itself is bipartite.TestMPCMemoryEnforced).
func TestSolveReturnsSolverError(t *testing.T) {
	g := fallbackTestInstance()
	errRefused := errors.New("solver refused the instance")
	for _, amortize := range []bool{false, true} {
		calls := 0
		res, err := Solve(g, nil, Options{Amortize: amortize, MaxRounds: 3, Rng: rand.New(rand.NewSource(3)),
			PhasedSolverFactory: func() PhasedSolver {
				return func(*bipartite.Bip) (*graph.Matching, int, error) {
					calls++
					return nil, 0, errRefused
				}
			}})
		if !errors.Is(err, errRefused) {
			t.Fatalf("amortize=%v: err = %v, want the solver's error", amortize, err)
		}
		st := res.Stats
		if calls == 0 || calls != st.SolverCalls || st.FallbackClasses != 0 || st.Rounds != 0 {
			t.Errorf("amortize=%v: %d solver calls, SolverCalls %d, FallbackClasses %d, Rounds %d; want one call per counted solve, no fallback, no finished round",
				amortize, calls, st.SolverCalls, st.FallbackClasses, st.Rounds)
		}
	}
}

// TestBeginRoundPanicResets covers the reset rung: a transient panic in the
// amortised round setup rebuilds the context (bit-identically, by the
// rebuild-twin equivalence); a persistent one disables amortisation. Both
// finish error-free with the clean run's matching.
func TestBeginRoundPanicResets(t *testing.T) {
	g := fallbackTestInstance()
	clean := Options{Amortize: true, MaxRounds: 6, Rng: rand.New(rand.NewSource(4))}
	want, err := Solve(g, nil, clean)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	t.Run("transient", func(t *testing.T) {
		calls := 0
		testBeginRoundPanic = func() {
			calls++
			if calls == 1 {
				panic("amortised setup fault")
			}
		}
		defer func() { testBeginRoundPanic = nil }()
		opts := Options{Amortize: true, MaxRounds: 6, Rng: rand.New(rand.NewSource(4))}
		got, err := Solve(g, nil, opts)
		if err != nil {
			t.Fatalf("transient setup fault must recover, got: %v", err)
		}
		if got.Stats.FallbackResets != 1 {
			t.Errorf("FallbackResets = %d, want 1", got.Stats.FallbackResets)
		}
		if !equalMatchings(got.M, want.M) {
			t.Errorf("reset run diverged: weight %d vs %d", got.M.Weight(), want.M.Weight())
		}
	})

	t.Run("persistent", func(t *testing.T) {
		testBeginRoundPanic = func() { panic("amortised setup permanently broken") }
		defer func() { testBeginRoundPanic = nil }()
		opts := Options{Amortize: true, MaxRounds: 6, Rng: rand.New(rand.NewSource(4))}
		got, err := Solve(g, nil, opts)
		if err != nil {
			t.Fatalf("persistent setup fault must disable amortisation, got: %v", err)
		}
		if got.Stats.FallbackResets != 2 {
			t.Errorf("FallbackResets = %d, want 2 (rebuild once, then disable)", got.Stats.FallbackResets)
		}
		if !equalMatchings(got.M, want.M) {
			t.Errorf("de-amortised run diverged: weight %d vs %d", got.M.Weight(), want.M.Weight())
		}
	})
}

// TestSentinelsNeverEscapeSolve is the satellite-2 audit pin: every
// ErrDelta*/ErrRepair* producing site inside the solve pipeline converts
// the sentinel into an inline fallback. Saturated injection fires every
// reachable hazard site on every call; if any call site still propagated
// its sentinel, Solve would return it here.
func TestSentinelsNeverEscapeSolve(t *testing.T) {
	g := fallbackTestInstance()
	for _, rate := range []float64{0.5, 1.0} {
		faultinject.Activate(faultinject.New(31, rate))
		res, err := Solve(g, nil, Options{Amortize: true, MaxRounds: 4,
			Rng: rand.New(rand.NewSource(6))})
		faultinject.Deactivate()
		if err != nil {
			t.Fatalf("rate %g: Solve returned %v", rate, err)
		}
		for _, s := range stateFaultSentinels {
			if errors.Is(err, s) {
				t.Errorf("rate %g: sentinel %v escaped to the Solve caller", rate, s)
			}
		}
		total := res.Stats.FallbackBuilds + res.Stats.FallbackSolves +
			res.Stats.FallbackCacheDrops + res.Stats.FallbackClasses +
			res.Stats.FallbackSweeps + res.Stats.FallbackResets
		if total == 0 {
			t.Errorf("rate %g: saturated injection produced no fallbacks: %+v", rate, res.Stats)
		}
	}
}

// TestRecoverableFaultTaxonomy pins the ladder's error classification: all
// seven corruption sentinels and recovered panics are absorbable; anything
// else (a solver's contract error) is not.
func TestRecoverableFaultTaxonomy(t *testing.T) {
	for _, s := range []error{
		layered.ErrDeltaNoBase, layered.ErrDeltaScratch,
		layered.ErrDeltaStale, layered.ErrDeltaMismatch,
		bipartite.ErrRepairNoBase, bipartite.ErrRepairStale, bipartite.ErrRepairInfo,
	} {
		if !recoverableFault(s) {
			t.Errorf("sentinel %v not classified recoverable", s)
		}
	}
	if !recoverableFault(&PanicError{Class: 3, Value: "boom"}) {
		t.Error("PanicError not classified recoverable")
	}
	if recoverableFault(errors.New("solver contract violation")) {
		t.Error("foreign error classified recoverable")
	}
	if recoverableFault(nil) {
		t.Error("nil classified recoverable")
	}
}
