package main

// The two batch workloads. band-edits serves the E13/E18 band through the
// fully-dynamic tick loop: each of bandInstances band graphs is converged
// on a fresh core.Runner and then absorbs its own pre-generated stream of
// mixed edit batches, one Runner.Tick each. uniform-solve runs the E14
// family scaled ×20 through a fixed-budget core.Solve. Both use one
// worker, so every counter repeats exactly, and a closed loop: each
// operation starts when the previous one returns. A run spreads band-edits
// over several small instances because one instance's converge length
// swings with its graph and Rng draws, and passes over them repeatedly so
// that every operation is timed several times and reported at its best.

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

const (
	bandN, bandM   = 240, 1920
	bandLow        = graph.Weight(100)
	bandInstances  = 6 // band graphs per run, each with its own edit stream
	bandTicks      = 5 // edit batches per instance
	bandBatchEdits = 8 // edits per batch

	uniN, uniM = 20000, 120000
	uniWeight  = graph.Weight(128)

	// bandSetupReps and uniSetupReps are how many times a run repeats its
	// set-up; setup_s is the best. The repetitions span about a quarter
	// (band-edits, 1.5 ms each) or one and a half seconds (uniform-solve),
	// so that a short burst of load elsewhere cannot slow them all.
	bandSetupReps, uniSetupReps = 200, 40
	// minCalls is the fewest measured calls a run makes.
	minCalls = 3
)

// derive maps the run seed to the seed of one input stream k, so every
// graph, edit stream and solver Rng of a run is its own stream of one seed.
func derive(seed, k int64) int64 { return seed*1_000_003 + k }

// Input streams of instance i: graph 3i, edits 3i+1, solver Rng 3i+2.
func graphSeed(seed int64, i int) int64 { return derive(seed, 3*int64(i)) }
func editSeed(seed int64, i int) int64  { return derive(seed, 3*int64(i)+1) }
func rngSeed(seed int64, i int) int64   { return derive(seed, 3*int64(i)+2) }

// bandOptions and uniformOptions set every option the traced run's twin
// mirrors — the round budget, class step, pair cap and cache gate — rather
// than leave them to core's defaults, so the twin reads them from the
// options. Apart from band-edits' larger pair cap and uniform-solve's
// fixed 4-round budget, the values are core's defaults.
func bandOptions(rngSeed int64) core.Options {
	return core.Options{
		Amortize:         true,
		ClassBase:        2,
		MaxRounds:        40,
		Patience:         6,
		MaxPairsPerClass: 2000,
		CacheGate:        8,
		Workers:          1,
		Rng:              rand.New(rand.NewSource(rngSeed)),
	}
}

func uniformOptions(rngSeed int64) core.Options {
	return core.Options{
		Amortize:         true,
		ClassBase:        2,
		MaxRounds:        4,
		Patience:         4,
		MaxPairsPerClass: 800,
		CacheGate:        8,
		Workers:          1,
		Rng:              rand.New(rand.NewSource(rngSeed)),
	}
}

// bandInstance is one band graph with its edit stream and solver seed.
type bandInstance struct {
	g       *graph.Graph
	batches []*core.MutationBatch
	rngSeed int64
}

func setupBand(seed int64) ([]bandInstance, error) {
	out := make([]bandInstance, bandInstances)
	for i := range out {
		g := graph.BandedWeights(bandN, bandM, bandLow, rand.New(rand.NewSource(graphSeed(seed, i)))).G
		batches, err := bandEdits(g, bandTicks, bandBatchEdits, bandLow, rand.New(rand.NewSource(editSeed(seed, i))))
		if err != nil {
			return nil, err
		}
		out[i] = bandInstance{g: g, batches: batches, rngSeed: rngSeed(seed, i)}
	}
	return out, nil
}

func setupUniform(seed int64) (*graph.Graph, error) {
	return graph.UniformWeights(uniN, uniM, uniWeight, rand.New(rand.NewSource(graphSeed(seed, 0)))).G, nil
}

// timedSetup runs setup reps times and records the best time as setup_s.
func timedSetup[T any](rep *report, reps int, setup func() (T, error)) (T, error) {
	var in T
	var times []time.Duration
	for range reps {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return in, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start))
		in = v
	}
	rep.set("setup_s", best(durations(times, seconds)), len(times))
	return in, nil
}

// measure runs warmup once (its timing is discarded: caches and the heap
// are still cold), then body(p) for p = 0, 1, … while another call is
// expected to end within budget, and at least minCalls times, so that
// every operation is timed several times. Each call starts from a
// collected heap returned to the system, so one call's garbage lands in
// neither the next one's timing nor its memory, and with the kernel's
// peak-RSS mark reset; measure returns each call's peak resident set in
// MiB. Operations record their own failures in the report and carry on;
// measure fails only when the peak resident set cannot be read.
func measure(budget time.Duration, warmup func(), body func(p int)) ([]float64, error) {
	debug.FreeOSMemory()
	warmup()
	var peaks []float64
	start := time.Now()
	for p := 0; ; p++ {
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		body(p)
		d := time.Since(t0)
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, peak)
		if p+1 >= minCalls && time.Since(start)+d > budget {
			return peaks, nil
		}
	}
}

// alternate runs an untraced and a traced operation, the untraced one
// first on even calls: the first operation after measure returned the heap
// to the system pays its page faults, and the overhead ratio must not
// charge them to one side.
func alternate(p int, untraced, traced func()) {
	first, second := untraced, traced
	if p%2 == 1 {
		first, second = traced, untraced
	}
	first()
	second()
}

// batchResult is what repetitions of one operation must reproduce exactly.
type batchResult struct {
	weight graph.Weight
	stats  core.Stats
	mates  []int
}

// verifier checks every operation's output against its graph, and every
// repetition of an instance against that instance's first result.
type verifier struct {
	rep    *report
	first  map[int]*batchResult
	ratios []float64 // certified ratio of each instance's first result
}

func newVerifier(rep *report) *verifier {
	return &verifier{rep: rep, first: map[int]*batchResult{}}
}

// check verifies instance i's final matching m on graph g.
func (v *verifier) check(i int, g *graph.Graph, m *graph.Matching, stats core.Stats) {
	res := batchResult{weight: m.Weight(), stats: stats, mates: matesOf(m)}
	first, seen := v.first[i]
	if !seen {
		if err := checkMatching(m, g.N(), slices.Values(g.Edges())); err != nil {
			v.rep.fail("instance %d: output check: %v", i, err)
		}
		if n := fallbacks(stats); n != 0 {
			v.rep.fail("instance %d: %d degradation-ladder fallbacks on a healthy run", i, n)
		}
		v.ratios = append(v.ratios, certRatio(m.Weight(), coverBound(g.N(), slices.Values(g.Edges()))))
		v.first[i] = &res
		return
	}
	if res.weight != first.weight || res.stats != first.stats || !slices.Equal(res.mates, first.mates) {
		v.rep.fail("instance %d: repetition differs from the first: weight %d vs %d, stats equal %v",
			i, res.weight, first.weight, res.stats == first.stats)
	}
}

// meanRatio is the mean certified ratio over the checked instances.
func (v *verifier) meanRatio() float64 { return mean(v.ratios) }

// bandSession converges instance i on a fresh runner and absorbs its edit
// stream, one Tick per batch; it returns the converge time (NewRunner plus
// Tick(nil)) and the tick latencies. A Tick that returns an error is
// recorded as a failed operation and ends the session, and then ok is
// false.
func bandSession(i int, in bandInstance, v *verifier, rep *report) (conv time.Duration, ticks []time.Duration, ok bool) {
	g := in.g.Clone()
	m := graph.NewMatching(g.N())
	var stats core.Stats
	rep.attempted++
	start := time.Now()
	r := core.NewRunner(g, bandOptions(in.rngSeed))
	if _, err := r.Tick(m, nil, &stats); err != nil {
		rep.fail("instance %d: converge: %v", i, err)
		return 0, nil, false
	}
	conv = time.Since(start)
	ticks = make([]time.Duration, 0, len(in.batches))
	for k, b := range in.batches {
		rep.attempted++
		start := time.Now()
		if _, err := r.Tick(m, b, &stats); err != nil {
			rep.fail("instance %d: tick %d: %v", i, k, err)
			return 0, nil, false
		}
		ticks = append(ticks, time.Since(start))
	}
	v.check(i, g, m, stats)
	return conv, ticks, true
}

func runBand(cfg config, rep *report) error {
	in, err := timedSetup(rep, bandSetupReps, func() ([]bandInstance, error) { return setupBand(cfg.seed) })
	if err != nil {
		return err
	}
	if cfg.traced {
		return traceBand(cfg, in, rep)
	}
	return measureBand(cfg, in, rep)
}

// measureBand passes over the instances while the budget lasts, one
// session each, and reports each operation — a converge or a tick — at its
// best time over the passes: solve_s is the mean over instances of a
// session (the converge plus the instance's ticks) made of those best
// times, op_p50_ms the median over ticks of each tick's best. A single
// converge takes 9 to 18 rounds depending on the instance, which no
// affordable instance count evens out; a session varies far less. Taking
// the best per operation rather than per session lets any stretch of the
// run that the machine's other tenants left alone count for the
// operations it covers.
func measureBand(cfg config, in []bandInstance, rep *report) error {
	v := newVerifier(rep)
	// converge[i] and ticks[i][k] collect instance i's converge and k-th
	// tick over the passes.
	converge := make([][]float64, len(in))
	ticks := make([][][]float64, len(in))
	for i := range ticks {
		ticks[i] = make([][]float64, len(in[i].batches))
	}
	var allTicks []float64
	peaks, err := measure(cfg.budget, func() {
		bandSession(0, in[0], v, rep)
	}, func(int) {
		for i, inst := range in {
			conv, lat, ok := bandSession(i, inst, v, rep)
			if !ok {
				continue
			}
			converge[i] = append(converge[i], seconds(conv))
			for k, d := range lat {
				ticks[i][k] = append(ticks[i][k], millis(d))
				allTicks = append(allTicks, millis(d))
			}
		}
	})
	if err != nil {
		return err
	}
	var sessionS, convS, tickMS []float64
	done := 0 // completed sessions
	for i := range in {
		if len(converge[i]) == 0 {
			continue // every session of the instance failed, and is counted
		}
		done += len(converge[i])
		session := best(converge[i])
		convS = append(convS, session)
		for _, ks := range ticks[i] {
			tickMS = append(tickMS, best(ks))
			session += best(ks) / 1000
		}
		sessionS = append(sessionS, session)
	}
	rep.set("peak_rss_mb", median(peaks), len(peaks))
	rep.set("solve_s", mean(sessionS), done)
	rep.set("op_p50_ms", median(tickMS), len(allTicks))
	rep.set("cert_ratio", v.meanRatio(), len(v.ratios))
	rep.note("converge_s %.6g s (median over %d instances of the best of n=%d)", median(convS), len(convS), done)
	rep.note("tick_p50_ms %.6g ms (median over %d ticks of the best of n=%d)", median(tickMS), len(tickMS), len(allTicks))
	if p90, beyond, ok := percentile(allTicks, 90); ok {
		rep.note("tick_p90_ms %.6g ms over every tick (n=%d, %d beyond)", p90, len(allTicks), beyond)
	} else {
		rep.note("tick_p90_ms not reported: %d of %d samples beyond it, need %d", beyond, len(allTicks), minBeyond)
	}
	resets := 0
	for _, r := range v.first {
		resets += r.stats.MutationIndexResets
	}
	rep.note("mutation index resets %d over %d instances", resets, len(in))
	return nil
}

// uniformSolve is one checked fixed-budget core.Solve; it returns the
// solve's time, or ok false after recording a returned error as a failed
// operation.
func uniformSolve(g *graph.Graph, rngSeed int64, v *verifier, rep *report) (d time.Duration, ok bool) {
	rep.attempted++
	start := time.Now()
	res, err := core.Solve(g, nil, uniformOptions(rngSeed))
	if err != nil {
		rep.fail("solve: %v", err)
		return 0, false
	}
	d = time.Since(start)
	v.check(0, g, res.M, res.Stats)
	return d, true
}

func runUniform(cfg config, rep *report) error {
	g, err := timedSetup(rep, uniSetupReps, func() (*graph.Graph, error) { return setupUniform(cfg.seed) })
	if err != nil {
		return err
	}
	if cfg.traced {
		return traceUniform(cfg, g, rep)
	}
	v := newVerifier(rep)
	seed := rngSeed(cfg.seed, 0)
	var solves []time.Duration
	peaks, err := measure(cfg.budget, func() {
		uniformSolve(g, seed, v, rep)
	}, func(int) {
		if d, ok := uniformSolve(g, seed, v, rep); ok {
			solves = append(solves, d)
		}
	})
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", median(peaks), len(peaks))
	rep.set("solve_s", best(durations(solves, seconds)), len(solves))
	rep.set("op_p50_ms", best(durations(solves, millis)), len(solves))
	rep.set("cert_ratio", v.meanRatio(), len(v.ratios))
	if first := v.first[0]; first != nil {
		rep.note("final weight %d, cache hits %d per solve", first.weight, first.stats.CacheHits)
	}
	return nil
}

// opTrace is one traced operation: spans around the benchmark's calls into
// core, and the replayed stage times and counters over the same calls.
type opTrace struct {
	newRunner time.Duration // core.NewRunner span
	apply     time.Duration // (*Runner).ApplyMutations span
	round     time.Duration // (*Runner).Round spans
	st        stageTimes    // replayed stage times
	stats     core.Stats    // core.Stats delta over the operation
	rounds    int
	zero      int // rounds that gained nothing
}

// e2e is the operation's time with the replay taken out: the sum of the
// spans around the real calls.
func (o opTrace) e2e() time.Duration { return o.newRunner + o.apply + o.round }

// tracedRunner drives a real core.Runner call by call and replays every
// step on its twin, outside the real call's span.
type tracedRunner struct {
	r     *core.Runner
	opts  core.Options
	m     *graph.Matching
	stats core.Stats
	tw    *twin
}

// newTracedRunner constructs the runner on g with opts, whose Rng is seeded
// with rngSeed (span: NewRunner), and its twin on twinG, an identical graph
// the twin may own.
func newTracedRunner(g, twinG *graph.Graph, opts core.Options, rngSeed int64, op *opTrace) *tracedRunner {
	start := time.Now()
	r := core.NewRunner(g, opts)
	op.newRunner += time.Since(start)
	return &tracedRunner{
		r:    r,
		opts: opts,
		m:    graph.NewMatching(g.N()),
		tw:   newTwin(twinG, graph.NewMatching(twinG.N()), rand.New(rand.NewSource(rngSeed)), opts),
	}
}

// step runs one traced operation body and fills op's stage and counter
// deltas.
func (t *tracedRunner) step(op *opTrace, body func() error) error {
	stats0, st0 := t.stats, t.tw.st
	err := body()
	op.stats = addFields(t.stats, stats0, -1)
	op.st = t.tw.st.sub(st0)
	return err
}

// round runs one real round, then replays it and checks the replay.
func (t *tracedRunner) round(op *opTrace) (graph.Weight, error) {
	before, c0 := t.stats, t.tw.c
	start := time.Now()
	gain, err := t.r.Round(t.m, &t.stats)
	op.round += time.Since(start)
	if err != nil {
		return 0, err
	}
	twGain, err := t.tw.round()
	if err != nil {
		return 0, err
	}
	if twGain != gain || !sameMatching(t.m, t.tw.m) {
		return 0, fmt.Errorf("%w: round %d diverged (gain %d, replayed %d)", errReplay, t.stats.Rounds, gain, twGain)
	}
	if err := checkCounts(addFields(t.stats, before, -1), addFields(t.tw.c, c0, -1)); err != nil {
		return 0, fmt.Errorf("round %d: %w", t.stats.Rounds, err)
	}
	op.rounds++
	if gain == 0 {
		op.zero++
	}
	return gain, nil
}

// tick is Runner.Tick driven call by call: ApplyMutations, then at most
// MaxRounds rounds, stopping after Patience consecutive rounds that gain
// nothing.
func (t *tracedRunner) tick(batch *core.MutationBatch, op *opTrace) error {
	before, c0 := t.stats, t.tw.c
	start := time.Now()
	err := t.r.ApplyMutations(batch, t.m, &t.stats)
	op.apply += time.Since(start)
	if err != nil {
		return err
	}
	if err := t.tw.applyEdits(batch); err != nil {
		return err
	}
	if !sameMatching(t.m, t.tw.m) {
		return fmt.Errorf("%w: matching diverged after edits", errReplay)
	}
	if err := checkCounts(addFields(t.stats, before, -1), addFields(t.tw.c, c0, -1)); err != nil {
		return fmt.Errorf("edits: %w", err)
	}
	stalled := 0
	for i := 0; i < t.opts.MaxRounds && stalled < t.opts.Patience; i++ {
		gain, err := t.round(op)
		if err != nil {
			return err
		}
		if gain == 0 {
			stalled++
		} else {
			stalled = 0
		}
	}
	return nil
}

// traceBand runs, instance by instance while the budget lasts, an
// untraced session (the overhead baseline) and a traced one; the warm-up
// is an untraced session of the first instance.
func traceBand(cfg config, in []bandInstance, rep *report) error {
	v := newVerifier(rep)
	var plain, newRunner []time.Duration
	var ops []opTrace
	_, err := measure(cfg.budget, func() {
		bandSession(0, in[0], v, rep)
	}, func(p int) {
		i := p % len(in)
		untraced := func() {
			_, lat, _ := bandSession(i, in[i], v, rep)
			plain = append(plain, lat...)
		}
		traced := func() {
			g := in[i].g.Clone()
			rep.attempted++
			var conv opTrace
			t := newTracedRunner(g, in[i].g.Clone(), bandOptions(in[i].rngSeed), in[i].rngSeed, &conv)
			newRunner = append(newRunner, conv.newRunner)
			if err := t.tick(nil, &conv); err != nil {
				rep.fail("instance %d: traced converge: %v", i, err)
				return
			}
			for k, b := range in[i].batches {
				rep.attempted++
				var op opTrace
				if err := t.step(&op, func() error { return t.tick(b, &op) }); err != nil {
					rep.fail("instance %d: traced tick %d: %v", i, k, err)
					return
				}
				ops = append(ops, op)
			}
			v.check(i, g, t.m, t.stats)
		}
		alternate(p, untraced, traced)
	})
	if err != nil {
		return err
	}
	reportBatchTrace(rep, ops, plain, newRunner)
	return nil
}

// traceUniform alternates untraced solves (the overhead baseline) with
// traced ones; the warm-up is an untraced solve.
func traceUniform(cfg config, g *graph.Graph, rep *report) error {
	v := newVerifier(rep)
	seed := rngSeed(cfg.seed, 0)
	var plain, newRunner []time.Duration
	var ops []opTrace
	_, err := measure(cfg.budget, func() {
		uniformSolve(g, seed, v, rep)
	}, func(p int) {
		untraced := func() {
			if d, ok := uniformSolve(g, seed, v, rep); ok {
				plain = append(plain, d)
			}
		}
		traced := func() {
			rep.attempted++
			// Solve never edits the graph, so runner and twin share it.
			var op opTrace
			t := newTracedRunner(g, g, uniformOptions(seed), seed, &op)
			err := t.step(&op, func() error {
				// MaxRounds = Patience: Solve runs exactly MaxRounds rounds.
				for range t.opts.MaxRounds {
					if _, err := t.round(&op); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				rep.fail("traced solve: %v", err)
				return
			}
			newRunner = append(newRunner, op.newRunner)
			ops = append(ops, op)
			v.check(0, g, t.m, t.stats)
		}
		alternate(p, untraced, traced)
	})
	if err != nil {
		return err
	}
	reportBatchTrace(rep, ops, plain, newRunner)
	return nil
}

// reportBatchTrace turns the traced operations into the per-layer metrics:
// times are medians over operations, counts are means per operation, and
// shares are ratios of totals.
func reportBatchTrace(rep *report, ops []opTrace, plain, newRunner []time.Duration) {
	n := len(ops)
	if n == 0 {
		rep.fail("no traced operation completed")
		return
	}
	med := func(f func(opTrace) time.Duration) float64 {
		xs := make([]float64, n)
		for i, o := range ops {
			xs[i] = millis(f(o))
		}
		return median(xs)
	}
	stageMS := func(s stage) float64 { return med(func(o opTrace) time.Duration { return o.st[s] }) }
	var total core.Stats
	var rounds, zero int
	var round, replay time.Duration
	e2e := make([]float64, n)
	for i, o := range ops {
		total = addFields(total, o.stats, 1)
		rounds += o.rounds
		zero += o.zero
		round += o.round
		for s, d := range o.st {
			if stage(s) != stEdits {
				replay += d
			}
		}
		e2e[i] = millis(o.e2e())
	}
	perOp := func(c int) float64 { return float64(c) / float64(n) }
	pairs := total.LayeredBuilt - total.EnumPruned
	builds := total.LayeredBuilt - total.ProbeSkips - total.CacheHits
	coverage := share(replay.Seconds(), round.Seconds())

	rep.set("core.new_runner_ms", median(durations(newRunner, millis)), len(newRunner))
	rep.set("core.round_ms", med(func(o opTrace) time.Duration { return o.round }), n)
	rep.set("core.rounds", perOp(rounds), n)
	rep.set("core.zero_gain_round_share", share(float64(zero), float64(rounds)), rounds)
	rep.set("core.apply_mutations_ms", med(func(o opTrace) time.Duration { return o.apply }), n)
	rep.set("core.mutation_index_resets", perOp(total.MutationIndexResets), n)
	rep.set("core.mutation_delta_builds", perOp(total.MutationDeltaBuilds), n)
	rep.set("core.merge_ms", stageMS(stMerge), n)
	rep.set("core.unattributed_share", max(0, 1-coverage), rounds)
	rep.set("core.cache_hits", perOp(total.CacheHits), n)
	rep.set("core.fallbacks", perOp(fallbacks(total)), n)
	rep.set("core.classes_skipped_dirty", perOp(total.ClassesSkippedDirty), n)
	rep.set("layered.parametrize_ms", stageMS(stParametrize), n)
	rep.set("layered.begin_round_ms", stageMS(stBeginRound), n)
	rep.set("layered.edit_protocol_ms", stageMS(stEdits), n)
	rep.set("layered.enum_ms", stageMS(stEnum), n)
	rep.set("layered.pairs", perOp(pairs), n)
	rep.set("layered.enum_pruned", perOp(total.EnumPruned), n)
	rep.set("layered.survival_share", share(float64(total.SolverCalls), float64(pairs)), n)
	rep.set("layered.build_delta_ms", stageMS(stBuildDelta), n)
	rep.set("layered.build_scratch_ms", stageMS(stBuildScratch), n)
	rep.set("layered.delta_builds", perOp(total.DeltaBuilds), n)
	rep.set("layered.delta_share", share(float64(total.DeltaBuilds), float64(builds)), n)
	rep.set("layered.cross_round_delta_builds", perOp(total.CrossRoundDeltaBuilds), n)
	rep.set("layered.walks_ms", stageMS(stWalks), n)
	rep.set("bipartite.solve_repair_ms", stageMS(stSolveRepair), n)
	rep.set("bipartite.solve_cold_ms", stageMS(stSolveCold), n)
	rep.set("bipartite.solver_calls", perOp(total.SolverCalls), n)
	rep.set("bipartite.phases_per_call", share(float64(total.SolverPhases), float64(total.SolverCalls)), n)
	rep.set("bipartite.repair_share", share(float64(total.RepairSolves), float64(total.SolverCalls)), n)
	rep.set("trace.overhead", share(median(e2e), median(durations(plain, millis))), n)
	rep.set("trace.replay_coverage", coverage, rounds)
	rep.note("replayed %d rounds bit-identically over %d traced operations", rounds, n)
}
