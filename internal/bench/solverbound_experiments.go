package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// The E13/E14 experiments probe the solver-bound regime of the reduction:
// instance families whose layered graphs are dense enough that the
// unweighted Hopcroft–Karp subroutine — not the bucketing or enumeration —
// dominates round time. Even here the layered graphs' bounded depth keeps
// cold Hopcroft–Karp at about one phase per call (see the ROADMAP
// solver-bound ledger).

// solverBoundRun executes one fixed-budget Solve and reports the wall time
// alongside the pipeline counters.
type solverBoundRun struct {
	label   string
	elapsed time.Duration
	stats   core.Stats
	weight  graph.Weight
}

func runSolverBound(g *graph.Graph, opts core.Options, label string, seed int64, rounds int) (solverBoundRun, error) {
	if opts.Rng == nil {
		opts.Rng = rand.New(rand.NewSource(seed))
	}
	opts.MaxRounds = rounds
	opts.Patience = rounds
	start := time.Now()
	res, err := core.Solve(g, nil, opts)
	if err != nil {
		return solverBoundRun{}, err
	}
	return solverBoundRun{
		label:   label,
		elapsed: time.Since(start),
		stats:   res.Stats,
		weight:  res.M.Weight(),
	}, nil
}

func solverBoundTable(id, title, claim string, runs []solverBoundRun) Table {
	t := Table{
		ID:     id,
		Title:  title,
		Claim:  claim,
		Header: []string{"config", "ms/round", "solver calls", "HK phases", "pairs", "enum pruned", "cache hits", "final weight"},
	}
	for _, r := range runs {
		perRound := 0.0
		if r.stats.Rounds > 0 {
			perRound = float64(r.elapsed.Milliseconds()) / float64(r.stats.Rounds)
		}
		t.Rows = append(t.Rows, []string{
			r.label,
			fmt.Sprintf("%.2f", perRound),
			fi(r.stats.SolverCalls),
			fi(r.stats.SolverPhases),
			fi(r.stats.LayeredBuilt),
			fi(r.stats.EnumPruned),
			fi(r.stats.CacheHits),
			fi64(int64(r.weight)),
		})
	}
	return t
}

// E13SolverBound probes the dense-band solver-bound family: one weight
// octave, so the covering classes see many populated τ units at once and the
// good-pair enumeration yields large viable sets over large buckets. Run
// with a raised MaxPairsPerClass so the pair limit does not clip the dense
// classes.
func E13SolverBound(cfg Config) []Table {
	cfg = cfg.WithDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n, rounds := 240, 3
	if cfg.Quick {
		n, rounds = 60, 2
	}
	inst := graph.BandedWeights(n, 8*n, 100, rng)
	opts := core.Options{Amortize: true, MaxPairsPerClass: 2000}
	seed := cfg.Seed + int64(rng.Intn(1<<20))
	var runs []solverBoundRun
	if r, err := runSolverBound(inst.G, opts, "cold", seed, rounds); err == nil {
		runs = append(runs, r)
	}
	return []Table{solverBoundTable(
		"E13",
		"solver-bound tier — dense one-octave band",
		"L' graphs dense enough that Hopcroft-Karp dominates round time",
		runs,
	)}
}

// E14UniformClass probes the uniform-heavy-class family: every edge the same
// weight, so each covering class collapses to a handful of good pairs whose
// layered graphs each span the full crossing subgraph — the round is
// effectively repeated maximum-cardinality solves.
func E14UniformClass(cfg Config) []Table {
	cfg = cfg.WithDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n, rounds := 1000, 8
	if cfg.Quick {
		n, rounds = 80, 2
	}
	inst := graph.UniformWeights(n, 6*n, 128, rng)
	base := core.Options{Amortize: true}
	seed := cfg.Seed + int64(rng.Intn(1<<20)) // shared: all configs draw identical bipartitions
	var runs []solverBoundRun
	for _, c := range []struct {
		label string
		gate  int
	}{
		{"cold", 0},
		// The hit-rate gate's before/after: uniform tiers never hit the
		// cross-class cache, so cold rounds used to digest large buckets
		// for nothing — the no-gate row is that pre-gate behaviour.
		{"cold nogate", -1},
	} {
		opts := base
		opts.CacheGate = c.gate
		r, err := runSolverBound(inst.G, opts, c.label, seed, rounds)
		if err != nil {
			continue
		}
		runs = append(runs, r)
	}
	return []Table{solverBoundTable(
		"E14",
		"solver-bound tier — uniform heavy class",
		"uniform weights collapse each class to few pairs over the full crossing subgraph",
		runs,
	)}
}
