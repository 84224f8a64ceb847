package bench

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/layered"
)

// E11Ablations measures the two documented implementation choices that
// deviate from the paper's literal statement (DESIGN.md, substitutions):
//
//  1. granularity (the stand-in for ε¹²) — already swept in E4b; here the
//     layer budget MaxLayers (the stand-in for the O(1/ε²) augmentation
//     length) is swept instead, and
//  2. the class-weight family — geometric sweep only vs geometric plus the
//     anchored weights that align bucket boundaries with the heaviest edge.
//
// The workload is the cycle family, which is maximally sensitive to both
// choices (augmenting cycles need long blown-up walks and exact bucket
// alignment at coarse granularity).
func E11Ablations(cfg Config) []Table {
	cfg = cfg.WithDefaults()

	layersTable := Table{
		ID:     "E11",
		Title:  "ablation — layer budget vs augmenting-cycle recovery",
		Claim:  "a 2t-cycle needs t+1 matched layers; capture probability per round is 2^(1-2t)",
		Header: []string{"max layers", "4-cycle solved", "8-cycle solved"},
	}
	// Round budgets honour the 2^(1-|C|) bipartition probability: the
	// 8-cycle alternates with probability 1/128 per draw, so it needs on
	// the order of several hundred rounds to be captured whp.
	rounds := 900
	if cfg.Quick {
		rounds = 250
	}
	for _, maxLayers := range []int{3, 5, 9} {
		row := []string{fi(maxLayers)}
		for _, half := range []int{2, 4} {
			inst := graph.WeightedCycle(half, 24, 32)
			start := graph.NewMatching(inst.G.N())
			for i := 0; i < inst.G.N(); i += 2 {
				mustAdd(start, graph.Edge{U: i, V: (i + 1) % inst.G.N(), W: 24})
			}
			res, err := core.Solve(inst.G, start, core.Options{
				Rng:       rand.New(rand.NewSource(cfg.Seed)),
				MaxRounds: rounds,
				Patience:  rounds,
				Amortize:  true,
				Layered:   layered.Params{MaxLayers: maxLayers, SumCap: float64(half) + 1},
			})
			solved := "no"
			if err == nil && res.M.Weight() == inst.OptWeight {
				solved = "yes"
			}
			row = append(row, solved)
		}
		layersTable.Rows = append(layersTable.Rows, row)
	}

	anchor := Table{
		ID:     "E11b",
		Title:  "ablation — anchored class weights",
		Claim:  "at coarse granularity, anchored W classes recover cycle gains the geometric sweep misses",
		Header: []string{"class family", "4-cycle final weight", "optimum"},
	}
	inst := graph.WeightedCycle(2, 24, 32)
	for _, anchored := range []bool{false, true} {
		start := graph.NewMatching(4)
		mustAdd(start, graph.Edge{U: 0, V: 1, W: 24})
		mustAdd(start, graph.Edge{U: 2, V: 3, W: 24})
		m := start.Clone()
		opts := core.Options{Rng: rand.New(rand.NewSource(cfg.Seed)), MaxRounds: 60, Patience: 60}
		opts = fillDefaults(opts)
		var stats core.Stats
		weights := core.ClassWeights(inst.G, opts.ClassBase, opts.Layered)
		if !anchored {
			// Keep only the pure geometric sweep: drop weights that are
			// not of the form minW/2 · base^i.
			weights = geometricOnly(inst.G, opts.ClassBase, opts.Layered)
		}
		for r := 0; r < 60; r++ {
			gain := runRoundWithWeights(inst.G, m, weights, opts, &stats)
			if gain > 0 {
				break
			}
		}
		name := "geometric only"
		if anchored {
			name = "geometric + anchored"
		}
		anchor.Rows = append(anchor.Rows, []string{
			name, fi64(int64(m.Weight())), fi64(int64(inst.OptWeight)),
		})
	}
	return []Table{layersTable, anchor}
}

func fillDefaults(o core.Options) core.Options {
	if o.ClassBase <= 1 {
		o.ClassBase = 2
	}
	o.Layered = o.Layered.WithDefaults()
	return o
}

func geometricOnly(g *graph.Graph, base float64, prm layered.Params) []float64 {
	prm = prm.WithDefaults()
	minW := float64(g.MaxWeight())
	for _, e := range g.Edges() {
		if w := float64(e.W); w < minW {
			minW = w
		}
	}
	top := float64(g.MaxWeight()) * float64(prm.MaxLayers+1)
	var out []float64
	for w := minW / 2; w <= top; w *= base {
		out = append(out, w)
	}
	return out
}

// runRoundWithWeights replays the Algorithm 3 round with a fixed class
// family by probing each class through FindClassAugmentations (which draws
// a fresh bipartition each time), then applying disjointly.
func runRoundWithWeights(
	g *graph.Graph,
	m *graph.Matching,
	weights []float64,
	opts core.Options,
	stats *core.Stats,
) graph.Weight {
	var all []graph.Augmentation
	for _, w := range weights {
		augs, err := core.FindClassAugmentations(g, m, w, opts, stats)
		if err != nil {
			continue
		}
		all = append(all, augs...)
	}
	gain, _ := graph.ApplyDisjoint(m, all)
	return gain
}
