package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/graph"
)

// E19SolverMicroarch measures the PR 9 solver microarchitecture pass with
// the cursor-free DFS kept alive as the in-tree reference (HopcroftKarpRescan*),
// so every number is a same-run A/B — the only comparison benchguard gates
// (docs/OPERATIONS.md, "Benchmark gate policy").
//
// Two tiers:
//
//   - micro: the DFS strategies head-to-head on the funnel gadget
//     (bipartite.FunnelInstance — m re-entries of one interior vertex per
//     phase, the shape where rescans are Θ(m·p + m²)) and on a flat random
//     instance, where re-entrance is rare and the deferred cursor write
//     must keep the iterator at parity. The funnel ratio is the CI gate
//     (≥ 1.15× same-run); the random ratio is the honesty row — the
//     iterator's win is workload-shaped, not universal, and the table says
//     so.
//   - pipeline: the whole reduction on the E13 band with the DFS strategy
//     the only difference, both sides installed as PhasedSolverFactory (a
//     factory draws nothing from the Rng, so the bipartitions — and
//     therefore the instances solved — are identical; the same setup
//     Invariant 26's differential uses). Weight and phase columns prove
//     the runs did not diverge; the ratio isolates what the cursor is worth
//     end-to-end, diluted by everything that is not DFS.
//
// The pass's other two candidates (the flat open-addressed grouped-Y span
// table and the word-parallel probe rows fed from it) replaced their map
// predecessor outright — there is no live reference to A/B against, so
// their effect is carried by the cross-tree E13/E14/E18 windows in
// BENCH_pr9.json and the ROADMAP perf ledger, not by this table.
func E19SolverMicroarch(cfg Config) []Table {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	funnelM, funnelP, randN, randDeg, reps := 512, 512, 2048, 8, 40
	nBand, rounds := 240, 3
	if cfg.Quick {
		funnelM, funnelP, randN, reps = 128, 128, 512, 10
		nBand, rounds = 60, 2
	}

	micro := Table{
		ID:     "E19",
		Title:  "iterator-per-phase DFS vs cursor-free rescan (micro)",
		Claim:  "the cursor removes re-entrant rescans: large win on funnel shapes, parity on flat ones",
		Header: []string{"instance", "config", "us/solve", "speedup", "phases"},
	}
	type dfsForm struct {
		label string
		solve func(b *bipartite.Bip, s *bipartite.Scratch, seeds []bipartite.Seed) bipartite.Result
	}
	forms := []dfsForm{
		{"iterator", func(b *bipartite.Bip, s *bipartite.Scratch, seeds []bipartite.Seed) bipartite.Result {
			if seeds != nil {
				return bipartite.HopcroftKarpSeeded(b, s, seeds)
			}
			return bipartite.HopcroftKarpScratch(b, s)
		}},
		{"rescan", func(b *bipartite.Bip, s *bipartite.Scratch, seeds []bipartite.Seed) bipartite.Result {
			if seeds != nil {
				return bipartite.HopcroftKarpRescanSeeded(b, s, seeds)
			}
			return bipartite.HopcroftKarpRescanScratch(b, s)
		}},
	}
	funnel, funnelSeeds := bipartite.FunnelInstance(funnelM, funnelP)
	flat := randomFlatBip(randN, randDeg, cfg.Seed)
	for _, inst := range []struct {
		label string
		b     *bipartite.Bip
		seeds []bipartite.Seed
	}{
		{fmt.Sprintf("funnel m=%d p=%d", funnelM, funnelP), funnel, funnelSeeds},
		{fmt.Sprintf("random n=%d deg=%d", randN, randDeg), flat, nil},
	} {
		var times [2]float64
		var phases [2]int
		for k, form := range forms {
			s := bipartite.NewScratch()
			res := form.solve(inst.b, s, inst.seeds) // warm the arena
			start := time.Now()
			for r := 0; r < reps; r++ {
				res = form.solve(inst.b, s, inst.seeds)
			}
			times[k] = float64(time.Since(start).Microseconds()) / float64(reps)
			phases[k] = res.Phases
		}
		for k, form := range forms {
			speedup := "1.00x (ref)"
			if k == 0 && times[0] > 0 {
				speedup = fmt.Sprintf("%.2fx", times[1]/times[0])
			}
			micro.Rows = append(micro.Rows, []string{
				inst.label, form.label,
				fmt.Sprintf("%.1f", times[k]), speedup, fi(phases[k]),
			})
		}
	}

	pipeline := Table{
		ID:     "E19",
		Title:  "iterator-per-phase DFS vs rescan through the full reduction (E13 band)",
		Claim:  "identical bipartitions, identical outputs; the ratio isolates the DFS share of round time",
		Header: []string{"config", "ms/round", "speedup", "solver calls", "HK phases", "final weight"},
	}
	g := graph.BandedWeights(nBand, 8*nBand, 100, rng).G
	seed := cfg.Seed + int64(rng.Intn(1<<20))
	factories := []struct {
		label   string
		factory func() core.PhasedSolver
	}{
		{"iterator", core.ExactPhasedSolver},
		{"rescan", func() core.PhasedSolver {
			hk := bipartite.NewScratch()
			return func(b *bipartite.Bip) (*graph.Matching, int, error) {
				res := bipartite.HopcroftKarpRescanScratch(b, hk)
				return res.M, res.Phases, nil
			}
		}},
	}
	var perRound [2]float64
	for k, f := range factories {
		opts := core.Options{Amortize: true, MaxPairsPerClass: 2000, PhasedSolverFactory: f.factory}
		r, err := runSolverBound(g, opts, f.label, seed, rounds)
		if err != nil {
			continue
		}
		if r.stats.Rounds > 0 {
			perRound[k] = float64(r.elapsed.Microseconds()) / 1000 / float64(r.stats.Rounds)
		}
		speedup := "1.00x (ref)"
		if k == 1 && perRound[0] > 0 {
			// Rows render in order; patch the iterator row's ratio now that
			// both sides are measured.
			pipeline.Rows[0][2] = fmt.Sprintf("%.2fx", perRound[1]/perRound[0])
		}
		pipeline.Rows = append(pipeline.Rows, []string{
			f.label,
			fmt.Sprintf("%.2f", perRound[k]),
			speedup,
			fi(r.stats.SolverCalls),
			fi(r.stats.SolverPhases),
			fi64(int64(r.weight)),
		})
	}
	return []Table{micro, pipeline}
}

// randomFlatBip is a plain random near-square bipartite instance (no
// adversarial structure) for the micro tier's parity row.
func randomFlatBip(n, degree int, seed int64) *bipartite.Bip {
	rng := rand.New(rand.NewSource(seed))
	side := make([]bool, 2*n)
	for i := n; i < 2*n; i++ {
		side[i] = true
	}
	b := &bipartite.Bip{N: 2 * n, Side: side}
	seen := make(map[[2]int]bool, n*degree)
	for len(b.Edges) < n*degree {
		u := rng.Intn(n)
		v := n + rng.Intn(n)
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		b.Edges = append(b.Edges, graph.Edge{U: u, V: v, W: 1})
	}
	return b
}
