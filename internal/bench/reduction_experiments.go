package bench

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/layered"
	"repro/internal/matchutil"
)

// E4MultipassWeighted probes Theorem 1.2(2): the reduction reaches a
// (1−ε)-style ratio in the multi-pass streaming model with a per-round pass
// budget independent of n, and the ratio improves as the granularity
// (effective ε) shrinks.
func E4MultipassWeighted(cfg Config) []Table {
	cfg = cfg.WithDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	sizes := []int{60, 120, 240}
	if cfg.Quick {
		sizes = []int{50}
	}
	main := Table{
		ID:     "E4",
		Title:  "Theorem 1.2(2) — multi-pass streaming (1-ε) weighted matching",
		Claim:  "ratio -> 1, passes O_ε(1) independent of n, memory ~ n polylog n",
		Header: []string{"n", "ratio", "total passes", "max passes/round", "subroutine passes", "peak words"},
	}
	for _, n := range sizes {
		var rSum float64
		var passSum, maxRound, subPasses, peak int
		for trial := 0; trial < cfg.Trials; trial++ {
			inst := graph.PlantedMatching(n, 5*n, 100, 200, rng)
			res, err := core.SolveStreaming(inst.G, nil, core.StreamingOptions{
				Core: core.Options{Rng: rng, MaxRounds: 20, Patience: 4, Amortize: true},
			})
			if err != nil {
				continue
			}
			rSum += matchutil.Ratio(res.M, inst.OptWeight)
			passSum += res.TotalPasses
			if res.MaxRoundPasses > maxRound {
				maxRound = res.MaxRoundPasses
			}
			if res.SubroutinePasses > subPasses {
				subPasses = res.SubroutinePasses
			}
			if res.PeakStored > peak {
				peak = res.PeakStored
			}
		}
		main.Rows = append(main.Rows, []string{
			fi(n), f3(rSum / float64(cfg.Trials)), fi(passSum / cfg.Trials),
			fi(maxRound), fi(subPasses), fi(peak),
		})
	}

	abl := Table{
		ID:     "E4b",
		Title:  "ε-ablation — granularity vs offline reduction quality",
		Claim:  "finer granularity (smaller effective ε) => better ratio",
		Header: []string{"granularity", "avg ratio", "worst ratio", "solver calls"},
	}
	grans := []float64{0.25, 0.125, 0.0625}
	trials := cfg.Trials
	if cfg.Quick {
		grans = []float64{0.25, 0.125}
		trials = 2
	}
	for _, g := range grans {
		rng2 := rand.New(rand.NewSource(cfg.Seed))
		var sum float64
		worst := 1.0
		calls := 0
		for trial := 0; trial < trials; trial++ {
			inst := graph.RandomGraph(14, 40, 64, rng2)
			opt, err := matchutil.MaxWeightExact(inst.G)
			if err != nil {
				continue
			}
			res, err := core.Solve(inst.G, nil, core.Options{
				Rng:      rng2,
				Layered:  layered.Params{Granularity: g},
				Amortize: true,
			})
			if err != nil {
				continue
			}
			r := matchutil.Ratio(res.M, opt.Weight())
			sum += r
			if r < worst {
				worst = r
			}
			calls += res.Stats.SolverCalls
		}
		abl.Rows = append(abl.Rows, []string{
			f3(g), f3(sum / float64(trials)), f3(worst), fi(calls / trials),
		})
	}
	return []Table{main, abl}
}

// E5MPCWeighted probes Theorem 1.2(1): the reduction in the MPC model with
// O(m/n) machines and near-linear per-machine memory; rounds are counted by
// the simulator.
func E5MPCWeighted(cfg Config) []Table {
	cfg = cfg.WithDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	sizes := []int{60, 120, 240}
	if cfg.Quick {
		sizes = []int{50}
	}
	t := Table{
		ID:     "E5",
		Title:  "Theorem 1.2(1) — MPC (1-ε) weighted matching",
		Claim:  "O_ε(U_M) rounds, near-linear memory per machine",
		Header: []string{"n", "ratio", "total rounds", "max rounds/round", "U_M (subroutine)", "peak load"},
	}
	for _, n := range sizes {
		var rSum float64
		var roundSum, maxRound, um, peak int
		for trial := 0; trial < cfg.Trials; trial++ {
			inst := graph.PlantedMatching(n, 5*n, 100, 200, rng)
			res, err := core.SolveMPC(inst.G, nil, core.MPCOptions{
				Core: core.Options{Rng: rng, MaxRounds: 20, Patience: 4, Amortize: true},
			})
			if err != nil {
				continue
			}
			rSum += matchutil.Ratio(res.M, inst.OptWeight)
			roundSum += res.TotalRounds
			if res.MaxRoundRounds > maxRound {
				maxRound = res.MaxRoundRounds
			}
			if res.SubroutineRounds > um {
				um = res.SubroutineRounds
			}
			if res.PeakLoad > peak {
				peak = res.PeakLoad
			}
		}
		t.Rows = append(t.Rows, []string{
			fi(n), f3(rSum / float64(cfg.Trials)), fi(roundSum / cfg.Trials),
			fi(maxRound), fi(um), fi(peak),
		})
	}
	return []Table{t}
}

// E8LayeredCapture probes Figure 3/4, Lemma 4.12 and the Section 1.1.2
// cycle blow-up: the 4-cycle (24,32,24,32) whose perfect matching can only
// be improved through an augmenting cycle is captured by the layered graphs
// with the predicted frequency, and the full driver solves alternating
// cycles of growing length.
func E8LayeredCapture(cfg Config) []Table {
	cfg = cfg.WithDefaults()
	cap4 := Table{
		ID:     "E8",
		Title:  "Lemma 4.12 / Sec 1.1.2 — augmenting-cycle capture",
		Claim:  "4-cycle captured per bipartition draw with constant probability (alternating sides: 1/8)",
		Header: []string{"draws", "captures", "empirical prob"},
	}
	g := graph.New(4)
	g.MustAddEdge(0, 1, 24)
	g.MustAddEdge(1, 2, 32)
	g.MustAddEdge(2, 3, 24)
	g.MustAddEdge(3, 0, 32)
	m := graph.NewMatching(4)
	mustAdd(m, graph.Edge{U: 0, V: 1, W: 24})
	mustAdd(m, graph.Edge{U: 2, V: 3, W: 24})
	draws := 200
	if cfg.Quick {
		draws = 40
	}
	opts := core.Options{Rng: rand.New(rand.NewSource(cfg.Seed))}
	var stats core.Stats
	captures := 0
	for i := 0; i < draws; i++ {
		augs, err := core.FindClassAugmentations(g, m, 64, opts, &stats)
		if err != nil {
			continue
		}
		for _, a := range augs {
			if a.Gain() == 16 {
				captures++
				break
			}
		}
	}
	cap4.Rows = append(cap4.Rows, []string{
		fi(draws), fi(captures), f3(float64(captures) / float64(draws)),
	})

	cyc := Table{
		ID:     "E8b",
		Title:  "end-to-end augmenting cycles — WeightedCycle family",
		Claim:  "perfect-but-suboptimal matchings improved to optimum via cycles",
		Header: []string{"cycle edges", "start weight", "final weight", "optimum"},
	}
	lens := []int{2, 4}
	cycleRounds := 900 // the 8-cycle's bipartition probability is 1/128
	if cfg.Quick {
		cycleRounds = 250
	}
	for _, half := range lens {
		inst := graph.WeightedCycle(half, 24, 32)
		start := graph.NewMatching(inst.G.N())
		for i := 0; i < inst.G.N(); i += 2 {
			mustAdd(start, graph.Edge{U: i, V: (i + 1) % inst.G.N(), W: 24})
		}
		res, err := core.Solve(inst.G, start, core.Options{
			Rng:       rand.New(rand.NewSource(cfg.Seed)),
			MaxRounds: cycleRounds,
			Patience:  cycleRounds,
			Amortize:  true,
			Layered:   layered.Params{MaxLayers: 2*half + 1, SumCap: float64(half) + 1},
		})
		if err != nil {
			continue
		}
		cyc.Rows = append(cyc.Rows, []string{
			fi(2 * half), fi64(int64(start.Weight())), fi64(int64(res.M.Weight())),
			fi64(int64(inst.OptWeight)),
		})
	}
	return []Table{cap4, cyc}
}

// E10Overhead probes the central complexity claim of Theorem 4.1: the
// weighted reduction costs only a constant factor over the unweighted
// subroutine, independent of n — measured as total MPC rounds divided by
// the subroutine's own round count.
func E10Overhead(cfg Config) []Table {
	cfg = cfg.WithDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	sizes := []int{50, 100, 200}
	if cfg.Quick {
		sizes = []int{40, 80}
	}
	t := Table{
		ID:     "E10",
		Title:  "Theorem 4.1 — reduction overhead over the unweighted subroutine",
		Claim:  "total rounds / U_M is a constant in n (O_ε(1) factor)",
		Header: []string{"n", "total rounds", "U_M", "overhead factor"},
	}
	for _, n := range sizes {
		var total, um int
		for trial := 0; trial < cfg.Trials; trial++ {
			inst := graph.PlantedMatching(n, 5*n, 100, 200, rng)
			res, err := core.SolveMPC(inst.G, nil, core.MPCOptions{
				Core: core.Options{Rng: rng, MaxRounds: 15, Patience: 3, Amortize: true},
			})
			if err != nil {
				continue
			}
			total += res.TotalRounds
			if res.SubroutineRounds > um {
				um = res.SubroutineRounds
			}
		}
		avgTotal := float64(total) / float64(cfg.Trials)
		factor := 0.0
		if um > 0 {
			factor = avgTotal / float64(um)
		}
		t.Rows = append(t.Rows, []string{
			fi(n), f1(avgTotal), fi(um), f1(factor),
		})
	}
	return []Table{t}
}

func mustAdd(m *graph.Matching, e graph.Edge) {
	if err := m.Add(e); err != nil {
		panic(err)
	}
}
