package repro

// One benchmark per experiment of DESIGN.md's index (E1..E10). Each runs
// the corresponding harness experiment at Quick scale and reports the
// headline metric of the paper claim via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates every table's shape. Full-size
// tables: `go run ./cmd/augbench`.

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/bench"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/layered"
	"repro/internal/matchutil"
	"repro/internal/randarrival"
	"repro/internal/stream"
	"repro/internal/unwaug"
)

func graphBip(n int, side []bool, edges []graph.Edge) (*bipartite.Bip, error) {
	return bipartite.NewBip(n, side, edges)
}

func benchCfg(i int) bench.Config {
	return bench.Config{Seed: int64(i + 1), Trials: 2, Quick: true}
}

// parseRatio pulls a float cell out of a harness table row.
func parseRatio(cell string) float64 {
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return 0
	}
	return v
}

// BenchmarkE1RandomArrivalWeighted regenerates E1 (Theorem 1.1): the
// (1/2+c) random-arrival weighted matcher vs its 1/2 baselines.
func BenchmarkE1RandomArrivalWeighted(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		tables := bench.E1RandomArrivalWeighted(benchCfg(i))
		ratio = parseRatio(tables[0].Rows[0][4])
	}
	b.ReportMetric(ratio, "approx-ratio")
}

// BenchmarkE2RandomArrivalUnweighted regenerates E2 (Theorem 3.4).
func BenchmarkE2RandomArrivalUnweighted(b *testing.B) {
	var lift float64
	for i := 0; i < b.N; i++ {
		tables := bench.E2RandomArrivalUnweighted(benchCfg(i))
		lift = parseRatio(tables[0].Rows[0][4])
	}
	b.ReportMetric(lift, "lift-over-greedy")
}

// BenchmarkE3ThreeAugPaths regenerates E3 (Lemma 3.1).
func BenchmarkE3ThreeAugPaths(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inst, m0 := graph.ThreeAugWorkload(200, 0.5, 1000, rng)
	b.ResetTimer()
	recovered := 0
	for i := 0; i < b.N; i++ {
		f := unwaug.New(m0, 0.5)
		for _, e := range inst.G.Edges() {
			if !m0.Has(e.U, e.V) {
				f.Feed(e)
			}
		}
		recovered = len(f.Finalize())
	}
	b.ReportMetric(float64(recovered), "paths")
}

// BenchmarkE4MultipassWeighted regenerates E4 (Theorem 1.2(2)).
func BenchmarkE4MultipassWeighted(b *testing.B) {
	var passes float64
	for i := 0; i < b.N; i++ {
		tables := bench.E4MultipassWeighted(benchCfg(i))
		passes = parseRatio(tables[0].Rows[0][2])
	}
	b.ReportMetric(passes, "total-passes")
}

// BenchmarkE5MPCWeighted regenerates E5 (Theorem 1.2(1)).
func BenchmarkE5MPCWeighted(b *testing.B) {
	var rounds float64
	for i := 0; i < b.N; i++ {
		tables := bench.E5MPCWeighted(benchCfg(i))
		rounds = parseRatio(tables[0].Rows[0][2])
	}
	b.ReportMetric(rounds, "total-rounds")
}

// BenchmarkE6SpaceUsage regenerates E6 (Lemma 3.15).
func BenchmarkE6SpaceUsage(b *testing.B) {
	var stackSize float64
	for i := 0; i < b.N; i++ {
		tables := bench.E6SpaceUsage(benchCfg(i))
		stackSize = parseRatio(tables[0].Rows[0][2])
	}
	b.ReportMetric(stackSize, "stack-edges")
}

// BenchmarkE7FilterSoundness regenerates E7 (Figure 1 invariant).
func BenchmarkE7FilterSoundness(b *testing.B) {
	var decreases float64
	for i := 0; i < b.N; i++ {
		tables := bench.E7FilterSoundness(benchCfg(i))
		decreases = parseRatio(tables[0].Rows[0][2])
	}
	b.ReportMetric(decreases, "weight-decreases")
}

// BenchmarkE8LayeredCapture regenerates E8 (Lemma 4.12 / Section 1.1.2).
func BenchmarkE8LayeredCapture(b *testing.B) {
	var prob float64
	for i := 0; i < b.N; i++ {
		tables := bench.E8LayeredCapture(benchCfg(i))
		prob = parseRatio(tables[0].Rows[0][2])
	}
	b.ReportMetric(prob, "capture-prob")
}

// BenchmarkE9TauPairs regenerates E9 (Table 1 enumeration).
func BenchmarkE9TauPairs(b *testing.B) {
	var pairs float64
	for i := 0; i < b.N; i++ {
		tables := bench.E9TauPairs(benchCfg(i))
		pairs = parseRatio(tables[0].Rows[len(tables[0].Rows)-1][2])
	}
	b.ReportMetric(pairs, "tau-pairs")
}

// BenchmarkE10Overhead regenerates E10 (Theorem 4.1 overhead factor).
func BenchmarkE10Overhead(b *testing.B) {
	var factor float64
	for i := 0; i < b.N; i++ {
		tables := bench.E10Overhead(benchCfg(i))
		last := tables[0].Rows[len(tables[0].Rows)-1]
		factor = parseRatio(last[3])
	}
	b.ReportMetric(factor, "overhead-factor")
}

// Micro-benchmarks of the load-bearing primitives, for regression tracking.

func BenchmarkLocalRatioStream(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inst := graph.RandomGraph(500, 10000, 1<<20, rng)
	order := stream.RandomOrder(inst.G, rng).Edges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := randarrival.RandArrMatching(inst.G.N(), stream.FromEdges(order),
			randarrival.WeightedOptions{Rng: rng})
		_ = m
	}
}

// BenchmarkLayeredBuild measures the layered-graph construction as the
// reduction drives it: the parametrization is bucketed once per class
// weight and every (τA, τB) pair reuses one scratch arena.
func BenchmarkLayeredBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	inst := graph.PlantedMatching(200, 1000, 100, 200, rng)
	par := layered.Parametrize(inst.G.N(), inst.G.Edges(), inst.Opt, rng)
	prm := layered.Params{}.WithDefaults()
	pairs := layered.EnumerateGoodPairs(prm)
	scratch := layered.NewScratch()
	ix := scratch.Index(par, 128, prm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layered.BuildIndexed(ix, pairs[i%len(pairs)], scratch)
	}
}

// setupBuildDeltaBench prepares the surviving-pair chain the BuildDelta
// benchmarks iterate: an incremental-index round over the
// BenchmarkLayeredBuild instance with a mid-convergence matching, and the
// class with the most surviving pairs.
func setupBuildDeltaBench(b *testing.B) (*layered.IncView, []layered.TauPair, *layered.Scratch) {
	rng := rand.New(rand.NewSource(2))
	return setupPairChainBench(b, graph.PlantedMatching(200, 1000, 100, 200, rng), rng)
}

func setupPairChainBench(b *testing.B, inst graph.Instance, rng *rand.Rand) (*layered.IncView, []layered.TauPair, *layered.Scratch) {
	// Chain over the class with the most surviving pairs — the regime the
	// delta builder exists for.
	var view *layered.IncView
	var pairs []layered.TauPair
	forEachBenchClass(b, inst, rng, func(v *layered.IncView, ps []layered.TauPair) {
		if len(ps) > len(pairs) {
			view, pairs = v, ps
		}
	})
	if len(pairs) < 2 {
		b.Fatalf("only %d surviving pairs", len(pairs))
	}
	return view, pairs, layered.NewScratch()
}

// forEachBenchClass is the shared preamble of the pair-chain benchmarks:
// evolve the instance to mid-convergence (a converged matching has no
// surviving pairs to build), begin an incremental-index round, and hand
// the callback every class's surviving pairs — deep-copied, because the
// enumeration arena is reused by the next class.
func forEachBenchClass(b *testing.B, inst graph.Instance, rng *rand.Rand, fn func(*layered.IncView, []layered.TauPair)) {
	prm := layered.Params{}.WithDefaults()
	weights := core.ClassWeights(inst.G, 2, prm)
	inc := layered.NewIncIndex(inst.G.N(), inst.G.Edges(), weights, prm)
	m := graph.NewMatching(inst.G.N())
	runner := core.NewRunner(inst.G, core.Options{Rng: rand.New(rand.NewSource(9))})
	var st core.Stats
	for r := 0; r < 2; r++ {
		if _, err := runner.Round(m, &st); err != nil {
			b.Fatal(err)
		}
	}
	par := layered.Parametrize(inst.G.N(), inst.G.Edges(), m, rng)
	inc.BeginRound(par)
	enum := layered.NewPairScratch()
	for c := range weights {
		v := inc.View(c)
		aMask, bMask, _ := v.Masks()
		ps, _ := layered.EnumerateSurvivingPairs(prm, aMask, bMask, 800, v, enum)
		pairs := make([]layered.TauPair, 0, len(ps))
		for _, tau := range ps {
			pairs = append(pairs, layered.TauPair{
				AUnits: append([]int(nil), tau.AUnits...),
				BUnits: append([]int(nil), tau.BUnits...),
			})
		}
		fn(v, pairs)
	}
}

// BenchmarkBuildDelta measures the differential layered-graph builder as
// the amortised reduction drives it: every build patches the previous
// pair's arena state (grouped Y lookup + X-prefix reuse).
// BenchmarkBuildDeltaBaseline runs the identical pair chain from scratch;
// the ratio is the per-build saving, and the allocs/op guard holds the
// delta path to the arena discipline (no per-build allocation beyond the
// Layered header).
func BenchmarkBuildDelta(b *testing.B) {
	view, pairs, scratch := setupBuildDeltaBench(b)
	prev := layered.BuildIndexed(view, pairs[0], scratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lay, _, err := layered.BuildDelta(view, prev, pairs[(i+1)%len(pairs)], scratch, 1)
		if err != nil {
			b.Fatal(err)
		}
		prev = lay
	}
}

// BenchmarkBuildDeltaBaseline is BenchmarkBuildDelta with every pair of the
// same chain rebuilt from scratch by BuildIndexed, the build the naive path
// runs — the honest denominator for the delta speedup.
func BenchmarkBuildDeltaBaseline(b *testing.B) {
	view, pairs, scratch := setupBuildDeltaBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layered.BuildIndexed(view, pairs[(i+1)%len(pairs)], scratch)
	}
}

// BenchmarkRepairHK measures the incremental Hopcroft–Karp repair on the
// BenchmarkBuildDelta instance's surviving-pair chain: the chain is
// delta-built once outside the timer (each instance copied out of the
// build arena with its DeltaInfo), and every
// iteration solves the next instance by patching the previous solve's
// retained CSR (bipartite.RepairHK; the wrap-around instance, whose
// baseline is not the previous solve, falls back to the retained full
// solve). BenchmarkRepairHKBaseline solves the identical instances from
// scratch; the ratio is the per-solve setup saving, with bit-identical
// matchings and phase counts by construction (Invariant 21).
func BenchmarkRepairHK(b *testing.B) {
	chain := setupRepairChain(b)
	hk := bipartite.NewScratch()
	var baseTok, baseSeq uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := chain[i%len(chain)]
		var res bipartite.Result
		if d := c.delta; d.Valid && d.BaseSeq == baseSeq && baseTok != 0 && d.KeptLPrime > 0 {
			var err error
			res, err = bipartite.RepairHK(c.bip, hk, bipartite.RepairInfo{
				BaseToken: baseTok, KeptVerts: d.KeptIDs, KeptEdges: d.KeptLPrime,
			})
			if err != nil {
				b.Fatal(err)
			}
		} else {
			res = bipartite.HopcroftKarpRetained(c.bip, hk)
		}
		baseTok, baseSeq = hk.SolveToken(), c.seq
		_ = res
	}
}

// BenchmarkRepairHKBaseline is BenchmarkRepairHK with every solve of the
// same chain run from scratch by HopcroftKarpScratch — the PR 4 solver
// configuration and the honest denominator for the repair speedup.
func BenchmarkRepairHKBaseline(b *testing.B) {
	chain := setupRepairChain(b)
	hk := bipartite.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := bipartite.HopcroftKarpScratch(chain[i%len(chain)].bip, hk)
		_ = res
	}
}

// repairCase is one solved instance of the repair benchmark chain: the
// bipartite view (content-owned, copied out of the build arena), the
// build's DeltaInfo against its chain predecessor, and its BuildSeq.
type repairCase struct {
	bip   *bipartite.Bip
	delta layered.DeltaInfo
	seq   uint64
}

// setupRepairChain delta-builds a surviving-pair chain of the
// BenchmarkLayeredBuild planted instance once and snapshots each instance
// (the shared-prefix property the repair relies on is a property of the
// edge-list content, so copies preserve it). Among the instance's
// classes it picks the chain with the densest shared structure per solve —
// the highest average kept L' prefix — the regime the repair exists for,
// mirroring how setupBuildDeltaBench picks the class with the most
// surviving pairs for the builder.
func setupRepairChain(b *testing.B) []repairCase {
	rng := rand.New(rand.NewSource(2))
	inst := graph.PlantedMatching(200, 1000, 100, 200, rng)
	var best []repairCase
	bestKept := -1.0
	forEachBenchClass(b, inst, rng, func(v *layered.IncView, ps []layered.TauPair) {
		if len(ps) < 2 {
			return
		}
		scratch := layered.NewScratch()
		chain := make([]repairCase, 0, len(ps))
		kept := 0
		var prev *layered.Layered
		for i, tau := range ps {
			var lay *layered.Layered
			if i == 0 {
				lay = layered.BuildIndexed(v, tau, scratch)
			} else {
				var err error
				lay, _, err = layered.BuildDelta(v, prev, tau, scratch, 1)
				if err != nil {
					b.Fatal(err)
				}
				kept += lay.Delta.KeptLPrime
			}
			prev = lay
			sides := append([]bool(nil), lay.Sides()...)
			edges := append([]graph.Edge(nil), lay.LPrimeEdges()...)
			chain = append(chain, repairCase{
				bip:   &bipartite.Bip{N: lay.NumV, Side: sides, Edges: edges},
				delta: lay.Delta,
				seq:   lay.BuildSeq(),
			})
		}
		if avg := float64(kept) / float64(len(ps)-1); avg > bestKept {
			bestKept, best = avg, chain
		}
	})
	if len(best) < 2 {
		b.Fatal("no usable repair chain")
	}
	// Finish collecting the set-up's garbage here: a collection it left in
	// flight ran into the timed loop and moved BenchmarkRepairHK's median
	// by a third between builds with the same chain and the same solver.
	runtime.GC()
	return best
}

func BenchmarkHopcroftKarpOracle(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	inst := graph.RandomBipartite(500, 500, 5000, 10, rng)
	side := make([]bool, 1000)
	for v := 500; v < 1000; v++ {
		side[v] = true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bip, err := graphBip(inst.G.N(), side, inst.G.Edges())
		if err != nil {
			b.Fatal(err)
		}
		bipartite.HopcroftKarp(bip)
	}
}

func BenchmarkBlossom(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	inst := graph.RandomGraph(300, 2000, 5, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matchutil.MaxCardinality(inst.G)
	}
}

func BenchmarkReductionRound(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	inst := graph.PlantedMatching(100, 500, 100, 200, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var stats core.Stats
		m := graph.NewMatching(inst.G.N())
		if _, err := core.Round(inst.G, m, core.Options{Rng: rng}, &stats); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRound is the headline perf benchmark of the reduction's hot path:
// one Algorithm 3 round on the medium E12 convergence workload
// (PlantedMatching n=120, m=600, the instance E12Convergence runs at full
// scale). Tracked across PRs via BENCH_*.json.
func BenchmarkRound(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	inst := graph.PlantedMatching(120, 600, 100, 200, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var stats core.Stats
		m := graph.NewMatching(inst.G.N())
		if _, err := core.Round(inst.G, m, core.Options{Rng: rng}, &stats); err != nil {
			b.Fatal(err)
		}
	}
}

// solveBench runs the full Theorem 1.2 driver on the medium E12 workload
// (PlantedMatching n=120 m=600) for a fixed 12-round budget — the
// BenchmarkSolve family's shared body. A fixed budget (Patience = MaxRounds)
// keeps the measured work identical across configurations; the amortised
// configurations return the bit-identical matching by construction
// (asserted by internal/solvertest), so the ns/op ratio is a pure
// implementation comparison.
func solveBench(b *testing.B, opts core.Options) {
	rng := rand.New(rand.NewSource(6))
	inst := graph.PlantedMatching(120, 600, 100, 200, rng)
	opts.MaxRounds = 12
	opts.Patience = 12
	b.ReportAllocs()
	b.ResetTimer()
	var weight graph.Weight
	for i := 0; i < b.N; i++ {
		opts.Rng = rand.New(rand.NewSource(7))
		res, err := core.Solve(inst.G, nil, opts)
		if err != nil {
			b.Fatal(err)
		}
		weight = res.M.Weight()
	}
	b.ReportMetric(float64(weight), "final-weight")
}

// BenchmarkSolve is the headline end-to-end benchmark of the naive (PR 1)
// configuration: every round rebuilds the per-class bucket index and builds
// every enumerated pair's layered graph. Tracked across PRs via
// BENCH_*.json; cmd/benchguard holds the amortised variant to a minimum
// speedup over this baseline in CI.
func BenchmarkSolve(b *testing.B) {
	solveBench(b, core.Options{})
}

// BenchmarkSolveAmortized is BenchmarkSolve over the cross-round amortised
// pipeline (incremental viability index + survival probe + cross-class
// solve cache), bit-identical output by construction.
func BenchmarkSolveAmortized(b *testing.B) {
	solveBench(b, core.Options{Amortize: true})
}

// solveBenchOn runs a fixed-budget Solve on inst for the solver-bound tier
// benchmarks: the E13/E14 instance families are sized so the unweighted
// subroutine's share of round time is as large as the reduction's layered
// graphs allow. Reported metrics: final weight and total HK phases.
func solveBenchOn(b *testing.B, inst graph.Instance, opts core.Options, rounds int) {
	opts.MaxRounds = rounds
	opts.Patience = rounds
	b.ReportAllocs()
	b.ResetTimer()
	var weight graph.Weight
	var phases int
	for i := 0; i < b.N; i++ {
		opts.Rng = rand.New(rand.NewSource(11))
		res, err := core.Solve(inst.G, nil, opts)
		if err != nil {
			b.Fatal(err)
		}
		weight = res.M.Weight()
		phases = res.Stats.SolverPhases
	}
	b.ReportMetric(float64(weight), "final-weight")
	b.ReportMetric(float64(phases), "hk-phases")
}

func bandedE13() graph.Instance {
	return graph.BandedWeights(240, 8*240, 100, rand.New(rand.NewSource(2)))
}

func uniformE14() graph.Instance {
	return graph.UniformWeights(1000, 6000, 128, rand.New(rand.NewSource(3)))
}

// BenchmarkSolveE13 is the dense one-octave band of the solver-bound tier
// (E13), amortised cold-solver configuration.
func BenchmarkSolveE13(b *testing.B) {
	solveBenchOn(b, bandedE13(), core.Options{Amortize: true, MaxPairsPerClass: 2000}, 3)
}

// BenchmarkSolveE14 is the uniform heavy class of the solver-bound tier
// (E14), amortised cold-solver configuration.
func BenchmarkSolveE14(b *testing.B) {
	solveBenchOn(b, uniformE14(), core.Options{Amortize: true}, 3)
}

// BenchmarkRoundBandConverged times the round a service tick runs most:
// one amortised Runner.Round (one worker) on the converged matching of the
// stagebench band-edits shape, BandedWeights(240, 1920, 100) at
// MaxPairsPerClass 2000, where it almost always finds no gain. Each
// iteration rounds a fresh copy of the converged matching, so every
// iteration starts from the same matching, while the runner's index and
// Rng carry over between iterations as they do between ticks.
func BenchmarkRoundBandConverged(b *testing.B) {
	g := graph.BandedWeights(240, 8*240, 100, rand.New(rand.NewSource(1))).G
	r := core.NewRunner(g, core.Options{
		Amortize:         true,
		MaxPairsPerClass: 2000,
		Workers:          1,
		Rng:              rand.New(rand.NewSource(2)),
	})
	conv := graph.NewMatching(g.N())
	var stats core.Stats
	if _, err := r.Tick(conv, nil, &stats); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Round(conv.Clone(), &stats); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoundUniform times one amortised Runner.Round (one worker) on
// the stagebench uniform-solve shape, UniformWeights(20000, 120000, 128)
// at MaxPairsPerClass 800: few pairs over large layered graphs, so the
// round's time goes to index upkeep, the lazy τB buckets, the grouped Y
// tables and the cache-key digests rather than to the enumeration. Each
// iteration rounds a fresh copy of the matching that one round from the
// empty matching produced, while the runner's index and Rng carry over.
func BenchmarkRoundUniform(b *testing.B) {
	g := graph.UniformWeights(20000, 120000, 128, rand.New(rand.NewSource(1))).G
	r := core.NewRunner(g, core.Options{
		Amortize:         true,
		MaxPairsPerClass: 800,
		Workers:          1,
		Rng:              rand.New(rand.NewSource(2)),
	})
	first := graph.NewMatching(g.N())
	var stats core.Stats
	if _, err := r.Round(first, &stats); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Round(first.Clone(), &stats); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoundParallel is BenchmarkRound with the class sweep on a worker
// pool (results are identical by construction; only wall-clock differs, and
// only on multi-core hardware).
func BenchmarkRoundParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	inst := graph.PlantedMatching(120, 600, 100, 200, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var stats core.Stats
		m := graph.NewMatching(inst.G.N())
		if _, err := core.Round(inst.G, m, core.Options{Rng: rng, Workers: 4}, &stats); err != nil {
			b.Fatal(err)
		}
	}
}
