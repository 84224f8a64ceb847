// Package core implements the paper's primary contribution: the reduction
// from (1−ε)-approximate maximum weighted matching in general graphs to
// (1−δ)-approximate maximum unweighted matching in bipartite graphs
// (Section 4, Theorems 4.1, 4.7 and 4.8 of
// Gamlath–Kale–Mitrović–Svensson, PODC 2019).
//
// One Round of the reduction is Algorithm 3: for every augmentation-class
// weight W (geometric steps), Algorithm 4 builds the layered graphs of all
// good (τA, τB) pairs over a random bipartition, runs the black-box
// unweighted bipartite matching subroutine on each, translates the
// augmenting paths back to weighted augmentations of G via the Lemma 4.11
// decomposition, and finally the per-class augmentation sets are applied
// greedily from the heaviest class down. Iterating rounds until the gain
// stalls yields the (1−ε)-approximation of Theorem 1.2.
//
// # The amortised pipeline
//
// The repro facade, augrun, augserve and every augbench experiment that
// runs a driver set Options.Amortize: a persistent Runner maintains
// cross-round state that makes every round after the first differential.
// The incremental viability index (layered.IncIndex) re-derives only the
// buckets a redraw or an augmentation touched; within and across rounds
// each class chains its layered-graph builds through layered.BuildDelta,
// patching the previous build instead of rebuilding (the class view's
// change clocks are how BuildDelta proves a cross-round baseline fresh);
// and the default exact solver retains its adjacency CSR per class so a
// delta-built pair repairs the previous solve (bipartite.RepairHK) instead
// of re-solving.
// Every differential layer is bit-identical to its from-scratch
// counterpart by construction, and the differential suite in
// internal/solvertest asserts it family by family. The pipeline runs
// whole or not at all: at granularity 1/62 or coarser every layer runs,
// and finer (layered.CanIndexIncrementally) a Runner takes the naive
// path.
//
// # The degradation ladder
//
// Retained state can go stale or corrupt (and the chaos suite forces it
// to): each amortised layer checks its baseline and degrades one rung —
// never to an error. A rejected delta baseline (the four layered.ErrDelta*
// sentinels) rebuilds from scratch; a rejected repair baseline (the three
// bipartite.ErrRepair* sentinels) re-solves cold; a cache entry failing
// its checksum is evicted and re-solved; a poisoned class context is
// quarantined for the rest of the Solve; a worker panic resets the whole
// amortised context. The seven sentinels are the recoverable contract:
// Stats.Fallback* counters record every rung taken, and results stay
// bit-identical because each rung's cold path is the definition the warm
// path is proved against.
//
// # Dynamic graphs and restarts
//
// Between rounds the graph may change: Runner.ApplyMutations applies a
// MutationBatch (inserts, deletes, reweights) through the index's edit
// protocol, charging the same per-(class, unit) change clocks a
// bipartition redraw stamps, so the next Round is bit-identical to a cold
// solve on the post-edit graph; Runner.Tick is the service loop step
// (apply a batch, re-converge). Checkpoint/ResumeSolve persist a run's
// generators — graph, matching, counters, Rng stream position — and
// rebuild the amortised context on resume, the same rebuild-twin
// equivalence the ladder's reset rung relies on.
package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"sort"
	"sync"

	"repro/internal/bipartite"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/layered"
)

// PhasedSolver is the Unw-Bip-Matching black box of Algorithm 4: any
// algorithm returning a large matching of a bipartite graph, together with
// the call's phase count — the unit Stats.SolverPhases accumulates. The
// reduction only consumes its (1−δ) guarantee. Installed via
// Options.PhasedSolverFactory.
type PhasedSolver func(b *bipartite.Bip) (*graph.Matching, int, error)

// ExactPhasedSolver returns a scratch-backed exact Hopcroft–Karp
// PhasedSolver: the factory-path equivalent of the default solver, phase
// counts included, so ExactPhasedSolver itself is a PhasedSolverFactory
// with the default run's results. Each call owns a private arena, so the
// solvers it returns are worker-safe.
func ExactPhasedSolver() PhasedSolver {
	hk := bipartite.NewScratch()
	return func(b *bipartite.Bip) (*graph.Matching, int, error) {
		res := bipartite.HopcroftKarpScratch(b, hk)
		return res.M, res.Phases, nil
	}
}

// Options configures the reduction.
type Options struct {
	// Layered carries the granularity parameters (see layered.Params).
	Layered layered.Params
	// ClassBase is the geometric step between augmentation-class weights
	// (the paper's 1+ε⁴). Default 2.
	ClassBase float64
	// Rng drives the random bipartitions. Defaults to a fixed seed for
	// reproducibility.
	Rng *rand.Rand
	// MaxRounds caps reduction rounds (the paper repeats (1/ε)^O(1/ε²)
	// times; we stop early when gain stalls). Default 40.
	MaxRounds int
	// Patience is the number of consecutive zero-gain rounds tolerated
	// before stopping (each round draws a fresh bipartition, so one zero
	// round is not conclusive). Default 6.
	Patience int
	// MaxPairsPerClass caps how many good (τA, τB) pairs are tried per
	// augmentation class, bounding per-round work on instances with many
	// populated weight buckets. Default 800.
	MaxPairsPerClass int
	// Workers bounds the worker pool of Round's per-class sweep
	// (augmentation classes are independent until the final merge). 0 or 1
	// runs the sweep sequentially. Results are merged in descending
	// class-weight order, so for a fixed Rng seed the outcome is bit-for-bit
	// identical at any worker count.
	Workers int
	// PhasedSolverFactory installs the unweighted subroutine: it is called
	// once per class sweep, on the worker that runs the class, and the
	// returned solver serves every pair of that sweep; each call's phase
	// count is folded into Stats.SolverPhases (per class, then merged — no
	// atomics on the hot path). Installing one draws nothing from Rng, so
	// an installed solver sees the default run's bipartitions. Solvers that
	// share state across classes must run at Workers 1. Unset, each worker
	// solves with exact Hopcroft–Karp on its own retained arena
	// (ExactPhasedSolver is the factory form of that solver); an installed
	// solver also turns the cross-class cache and the Hopcroft–Karp repair
	// off.
	PhasedSolverFactory func() PhasedSolver
	// Amortize enables the cross-round amortised pipeline. Every entry
	// point sets it (the repro facade, augrun, augserve, and the augbench
	// experiments that run a driver), so false is no user option: it is
	// the internal hook that selects the naive reference — a per-(round,
	// class) BucketIndex rebuild with every pair built from scratch — for
	// the differential suite (internal/solvertest) and the naive side of
	// CI's BenchmarkSolveAmortized/BenchmarkSolve gate. The pipeline is:
	//   - the incremental viability index (window bucketing computed once
	//     per edge and maintained by matched/unmatched deltas instead of
	//     rebuilt per round and class);
	//   - the probe-guided pair enumeration (doomed (τA, τB) subtrees are
	//     pruned during generation, see Stats.EnumPruned);
	//   - the per-round cross-class solve cache (classes whose windows
	//     coincide share one solve, see CacheGate);
	//   - the delta chain: every build of a class after its first is
	//     layered.BuildDelta patching the class's previous build on a
	//     class-private arena, across the bipartition redraw too (the round
	//     link keeps exactly the segments the class view's change clocks
	//     prove unchanged); see Stats.DeltaBuilds and
	//     CrossRoundDeltaBuilds;
	//   - the incremental Hopcroft–Karp repair: the default exact solver
	//     retains its CSR per class, and a solve whose layered graph was
	//     delta-built over the previous solve's instance with a non-empty
	//     kept L′ prefix patches it (bipartite.RepairHK); see
	//     Stats.RepairSolves and CrossRoundRepairs.
	// The amortised path returns the bit-identical matching of the naive
	// path for a fixed Rng seed, and with no cache hit the identical phase
	// count: delta builds and repairs are bit-identical to from-scratch
	// builds and solves (Invariants 19, 21 and 24). The differential suite
	// (internal/solvertest) asserts it. Stats.LayeredBuilt counts
	// probe-rejected pairs as built so the two paths stay comparable.
	// The pipeline runs whole or not at all: the index's per-unit tables
	// are one 64-bit word, so at granularities finer than 1/62
	// (layered.CanIndexIncrementally) no index is built and Amortize runs
	// the naive path, with its matching and its counters.
	Amortize bool
	// CacheGate tunes the per-class hit-rate gate on the cross-class solve
	// cache: a class whose cache lookups have produced zero hits after
	// CacheGate lookups stops computing pair keys (and so stops digesting
	// buckets) for the rest of the Solve — on uniform tiers (E14) the cache
	// never hits yet digested large buckets on every cold round. 0 uses
	// the default budget (8 lookups), negative disables the gate (every
	// lookup keys and digests, the pre-gate behaviour). The cache is
	// transparent either way, so results are unchanged at any setting. No
	// entry point sets it; stagebench and the tests do.
	CacheGate int
}

func (o Options) withDefaults() Options {
	o.Layered = o.Layered.WithDefaults()
	if o.ClassBase <= 1 {
		o.ClassBase = 2
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewSource(1))
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 40
	}
	if o.Patience <= 0 {
		o.Patience = 6
	}
	if o.MaxPairsPerClass <= 0 {
		o.MaxPairsPerClass = 800
	}
	return o
}

// Stats accumulates resource usage across a Solve run.
type Stats struct {
	// Rounds is the number of Algorithm 3 rounds executed.
	Rounds int
	// SolverCalls counts Unw-Bip-Matching invocations: one per (W, τ-pair)
	// combination whose layered graph has a Y edge in every gap, the only
	// ones whose L′ can hold an augmenting path (layered Invariant 28).
	SolverCalls int
	// SolverPhases accumulates the phase counts of those invocations: the
	// default exact solver's Hopcroft–Karp phases, or what an installed
	// PhasedSolver reports (the streaming and MPC drivers' solvers report
	// 0 — their cost is counted in passes and MPC rounds).
	SolverPhases int
	// LayeredBuilt counts layered graphs constructed (= SolverCalls plus
	// those skipped for an empty Y gap, which holds no augmenting
	// structure). Amortised runs count probe-rejected pairs here too, so
	// the field is comparable between the naive and amortised paths.
	LayeredBuilt int
	// ProbeSkips counts (τA, τB) pairs the amortised survival probe
	// rejected without constructing their layered graph: pairs with a Y
	// gap no edge can fill, exactly the builds the naive path makes and
	// then skips. Always 0 on the naive path, which every run finer than
	// granularity 1/62 takes. The probe runs only inside the enumeration,
	// so it always equals EnumPruned.
	ProbeSkips int
	// EnumPruned counts the subset of ProbeSkips the probe-guided
	// enumeration pruned during pair generation — dead pairs that were
	// never materialised at all, only charged to the per-class pair limit
	// by their closed-form subtree count (always 0 on the naive path).
	EnumPruned int
	// CacheHits counts pair solves served by the per-round cross-class
	// cache instead of the solver (always 0 on the naive path).
	CacheHits int
	// DeltaBuilds counts layered graphs assembled by the differential
	// builder (layered.BuildDelta) from the previous pair's build instead
	// of from scratch (always 0 on the naive path).
	DeltaBuilds int
	// DeltaLayersReused accumulates the layer segments (X layers plus kept
	// Y gaps) the differential builder carried over unchanged across all
	// DeltaBuilds.
	DeltaLayersReused int
	// RepairSolves counts solver calls served by the incremental repair
	// path (layered.DeltaInfo handed to bipartite.RepairHK: CSR patched
	// from the previous solve instead of rebuilt — bit-identical result,
	// always 0 on the naive path and under an installed solver).
	RepairSolves int
	// RepairEdgesKept accumulates the byte-shared L' edge-list prefix
	// lengths across all RepairSolves — the adjacency entries the repair
	// reused instead of re-deriving. (The ISSUE sketched this counter as
	// "matches kept"; the shipped repair keeps the adjacency, not the
	// matches — see DESIGN.md PR 5 for why seeding was rejected.)
	RepairEdgesKept int
	// CrossRoundDeltaBuilds counts delta builds whose baseline was the
	// class's last build of a PREVIOUS round: the chain crossed a
	// bipartition redraw instead of restarting at BeginRound (always 0 on
	// the naive path). Every such build is also counted in DeltaBuilds.
	CrossRoundDeltaBuilds int
	// CrossRoundRepairs counts RepairSolves whose patched baseline solve
	// belonged to a previous round — the repair chain extended across the
	// redraw together with the build chain (always 0 on the naive path
	// and under an installed solver).
	CrossRoundRepairs int
	// ClassesSkippedDirty counts (round, class) combinations the
	// round-scoped dirty gate skipped outright: classes whose τ windows
	// contained no crossing edge, which provably enumerate zero surviving
	// pairs (always 0 on the naive path).
	ClassesSkippedDirty int
	// FallbackBuilds counts delta-chain builds that degraded to a
	// from-scratch BuildIndexed after the baseline was rejected (ErrDelta*
	// sentinel or injected staleness) — the build rung of the degradation
	// ladder. Always 0 while the chain is healthy.
	FallbackBuilds int
	// FallbackSolves counts repair-path solver calls that degraded to a
	// full retained solve after the baseline or descriptor was rejected
	// (ErrRepair* sentinel or injected corruption) — the solve rung of the
	// ladder. Always 0 while the repair chain is healthy.
	FallbackSolves int
	// FallbackCacheDrops counts cross-class cache hits discarded because
	// the entry failed its checksum self-check: the entry is evicted and
	// the pair re-solved, so a corrupted cached candidate set can never
	// reach the matching.
	FallbackCacheDrops int
	// FallbackClasses counts per-class sweeps re-run through the cold path
	// (naive bucket index, fresh worker arena) after a recovered worker
	// panic or an escaped state-fault sentinel; the class's amortised state
	// is quarantined for the rest of the Solve.
	FallbackClasses int
	// FallbackSweeps counts rounds that ran the full class sweep because
	// the dirty-gate bitmap failed its digest self-check — no skip decision
	// was trusted that round.
	FallbackSweeps int
	// FallbackResets counts rebuilds of the whole amortised context
	// (incremental index, per-class state, cache) after a fault escaped the
	// per-class rungs; a second failure disables amortisation for the rest
	// of the Solve rather than erroring.
	FallbackResets int
	// MutationsApplied counts graph edits — inserts, deletes, reweights —
	// applied through Runner.ApplyMutations (the fully-dynamic mutation
	// stream; always 0 for a static Solve).
	MutationsApplied int
	// MutationDeltaBuilds counts the subset of CrossRoundDeltaBuilds whose
	// chain crossed a mutation boundary: delta builds in the first round
	// after a non-empty batch, whose baseline predates the edits and
	// survived them through the stability gates. This is the "links
	// dominate builds" signal of the edit regime.
	MutationDeltaBuilds int
	// MutationIndexResets counts amortised-state rebuilds forced by an edit
	// that moved the class-weight ladder (the graph's minimum or maximum
	// edge weight changed): the whole index geometry derives from the
	// ladder, so absorbing such an edit in place would be unsound. Counted
	// on the naive path too (as a ladder recomputation) so the counter is
	// comparable between paths.
	MutationIndexResets int
	// AppliedAugmentations counts augmentations applied to the matching.
	AppliedAugmentations int
	// Gain is the total weight gained over the initial matching.
	Gain graph.Weight
}

// StatField is one Stats counter as a name/value pair (see Stats.Fields).
type StatField struct {
	// Name is the kebab-case form of the struct field name (SolverCalls →
	// solver-calls), the spelling the CLIs print.
	Name  string
	Value int64
}

// Fields returns every Stats counter in struct order with kebab-case
// names, via reflection — the single source the CLIs print from, so a
// future Stats field can never be silently dropped from the ledgers (the
// printer tests in cmd/augrun and internal/bench enumerate the struct the
// same way and fail on any mismatch).
func (s Stats) Fields() []StatField {
	v := reflect.ValueOf(s)
	out := make([]StatField, 0, v.NumField())
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		var kebab []byte
		for j := 0; j < len(name); j++ {
			c := name[j]
			if c >= 'A' && c <= 'Z' {
				if j > 0 {
					kebab = append(kebab, '-')
				}
				c += 'a' - 'A'
			}
			kebab = append(kebab, c)
		}
		out = append(out, StatField{Name: string(kebab), Value: v.Field(i).Int()})
	}
	return out
}

// accumulate folds every counter of other into s, field by field via
// reflection — the merge twin of Fields, so a future Stats counter can no
// more be silently dropped from Round's per-class merge than from the
// printers. Round-level fields (Rounds, AppliedAugmentations, Gain) are
// always zero on per-class stats, so folding them too is harmless.
func (s *Stats) accumulate(other Stats) {
	sv := reflect.ValueOf(s).Elem()
	ov := reflect.ValueOf(other)
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Field(i)
		f.SetInt(f.Int() + ov.Field(i).Int())
	}
}

// ClassWeights returns the augmentation-class weights, the Algorithm 3
// line-1/2 enumeration, in descending order (Algorithm 3 applies the
// heaviest class first). Two families are produced:
//
//   - the geometric sweep W = base^i covering [minW/2, maxW·(maxLayers+1)],
//     as in the paper, and
//   - anchored weights W = maxW/(g·u) for units u = 2..1/g, which align a
//     bucket boundary with the heaviest edge weight. At the paper's
//     granularity ε¹² the geometric sweep alone suffices (rounding losses
//     are negligible); at coarse granularity the anchored classes recover
//     augmentations — notably augmenting cycles — whose gain would otherwise
//     drown in bucket rounding (see DESIGN.md, substitutions).
func ClassWeights(g *graph.Graph, base float64, prm layered.Params) []float64 {
	prm = prm.WithDefaults()
	maxW := float64(g.MaxWeight())
	if maxW <= 0 {
		return nil
	}
	minW := math.Inf(1)
	for _, e := range g.Edges() {
		if w := float64(e.W); w < minW {
			minW = w
		}
	}
	top := maxW * float64(prm.MaxLayers+1)
	var out []float64
	for w := minW / 2; w <= top; w *= base {
		out = append(out, w)
	}
	maxU, _ := prm.Units()
	for u := 2; u <= maxU; u++ {
		out = append(out, maxW/(prm.Granularity*float64(u)))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	// Deduplicate near-identical weights.
	dedup := out[:0]
	for i, w := range out {
		if i == 0 || w < dedup[len(dedup)-1]*0.999 {
			dedup = append(dedup, w)
		}
	}
	return dedup
}

// classWorker is the per-worker state of Round's class sweep: one layered
// scratch arena, a stamped conflict set, and the default solver's arena, so
// parallel workers share nothing.
type classWorker struct {
	scratch *layered.Scratch

	// repair is the default configuration's exact solver: Hopcroft–Karp
	// retained on a worker-private arena. It serves only the naive path
	// and the cold re-run of a quarantined class, whose builds are never
	// deltas, so every solve on it is a full HopcroftKarpRetained; the
	// repair chain runs on the class-private repairState amortised
	// classes swap in (amortClassCtx.rep). Nil when
	// Options.PhasedSolverFactory installs the solver.
	repair *repairState

	// used is the class-level conflict set as a stamp array over original
	// vertices (advancing the stamp clears it in O(1) between classes).
	used      []uint32
	usedStamp uint32
}

func (w *classWorker) resetUsed(n int) {
	if cap(w.used) < n {
		w.used = make([]uint32, n)
		w.usedStamp = 0
	}
	w.used = w.used[:n]
	w.usedStamp++
	if w.usedStamp == 0 {
		clear(w.used)
		w.usedStamp = 1
	}
}

func (w *classWorker) conflicts(a graph.Augmentation) bool {
	for _, e := range a.Add {
		if w.used[e.U] == w.usedStamp || w.used[e.V] == w.usedStamp {
			return true
		}
	}
	for _, e := range a.Remove {
		if w.used[e.U] == w.usedStamp || w.used[e.V] == w.usedStamp {
			return true
		}
	}
	return false
}

func (w *classWorker) mark(a graph.Augmentation) {
	for _, e := range a.Add {
		w.used[e.U] = w.usedStamp
		w.used[e.V] = w.usedStamp
	}
	for _, e := range a.Remove {
		w.used[e.U] = w.usedStamp
		w.used[e.V] = w.usedStamp
	}
}

func newClassWorker(opts Options) *classWorker {
	w := &classWorker{scratch: layered.NewScratch()}
	if opts.PhasedSolverFactory == nil {
		// Default oracle: exact Hopcroft–Karp over a worker-private arena,
		// so the hundreds of solver calls per round stop allocating their
		// adjacency and search state.
		w.repair = &repairState{hk: bipartite.NewScratch()}
	}
	return w
}

// Runner executes Algorithm 3 rounds against one graph, carrying the
// cross-round amortised state (Options.Amortize) between them: the inner
// loop of Solve, exposed so that incremental workloads and the differential
// suite can drive rounds one at a time. A Runner is not safe for concurrent
// use; the graph must not change during the runner's life except through
// ApplyMutations between rounds (the incremental index aliases its edge
// slice and absorbs edits via the change clocks), and the matching passed
// to Round must be the one the previous Round (or ApplyMutations) mutated
// — the incremental index syncs to it by delta.
type Runner struct {
	g       *graph.Graph
	opts    Options
	weights []float64
	am      *amortizer

	// mutPending is set by ApplyMutations after a non-empty batch and
	// cleared by the next Round, which attributes that round's cross-round
	// delta builds to Stats.MutationDeltaBuilds (their baselines predate
	// the edits, so every link crossed the mutation boundary).
	mutPending bool
}

// NewRunner prepares a round runner for g. With opts.Amortize, at
// granularity 1/62 or coarser, the incremental viability index is built
// here, once, and every subsequent Round applies only the matching deltas;
// otherwise every Round runs the naive path.
func NewRunner(g *graph.Graph, opts Options) *Runner {
	opts = opts.withDefaults()
	r := &Runner{g: g, opts: opts}
	// The index's per-unit tables are one word wide: finer discretisations
	// run the naive path, which returns the same matching.
	if opts.Amortize && layered.CanIndexIncrementally(opts.Layered) {
		r.am = newAmortizer(g, opts)
		r.weights = r.am.weights
	} else {
		r.weights = ClassWeights(g, opts.ClassBase, opts.Layered)
	}
	return r
}

// Round executes one Algorithm 3 round on m: compute AW for every class
// weight (Algorithm 4), then greedily apply non-conflicting augmentations
// from the heaviest class down. It returns the realised gain.
//
// Classes only read (par, m) and are merged by class index, so with
// Workers > 1 the sweep runs on a bounded pool while staying bit-for-bit
// identical to the sequential sweep for a fixed Options.Rng seed.
func Round(g *graph.Graph, m *graph.Matching, opts Options, stats *Stats) (graph.Weight, error) {
	// A fresh Runner per call: with opts.Amortize this rebuilds the
	// incremental index from scratch — the rebuild twin the differential
	// suite compares against a Solve-held Runner's delta-maintained index.
	return NewRunner(g, opts).Round(m, stats)
}

// Round is one Algorithm 3 round through the runner's (possibly amortised)
// state; see the package-level Round.
func (r *Runner) Round(m *graph.Matching, stats *Stats) (graph.Weight, error) {
	g, opts, weights := r.g, r.opts, r.weights

	// First round after a mutation batch: every cross-round link this round
	// has a baseline predating the edits, so the round's CrossRoundDeltaBuilds
	// delta is exactly the chain traffic that crossed the mutation boundary.
	mutBoundary := r.mutPending
	preMutCRDB := stats.CrossRoundDeltaBuilds
	r.mutPending = false

	// One random bipartition per round, shared by every class (the paper
	// parametrises per run of Algorithm 4; sharing only correlates classes,
	// not the per-class analysis).
	par := layered.Parametrize(g.N(), g.Edges(), m, opts.Rng)
	if r.am != nil {
		// Round rung of the degradation ladder: a panic while syncing the
		// amortised context means none of its cross-round state can be
		// trusted, so rebuild the whole context from scratch (bit-identical
		// by the rebuild-twin equivalence the differential suite pins); a
		// second failure disables amortisation for the rest of the run. A
		// Solve never crashes or errors for it either way.
		if err := r.am.safeBeginRound(par); err != nil {
			stats.FallbackResets++
			r.am = newAmortizer(g, opts)
			if err := r.am.safeBeginRound(par); err != nil {
				stats.FallbackResets++
				r.am = nil
			}
		}
	}

	workers := min(opts.Workers, len(weights))

	perClass := make([][]graph.Augmentation, len(weights))
	perStats := make([]Stats, len(weights))
	perErr := make([]error, len(weights))
	runClass := func(w *classWorker, i int) {
		var ac *amortClassCtx
		if r.am != nil {
			ac = &r.am.ctxs[i]
			if ac.quarantined {
				// A previous fault quarantined this class's amortised
				// state; it runs the cold path for the rest of the Solve.
				ac = nil
			}
		}
		perClass[i], perErr[i] = classAugmentations(
			par, m, weights[i], w, opts, &perStats[i], ac)
	}
	// safeRunClass contains a worker panic: the recovered value is recorded
	// as a *PanicError for the fallback pass below, and ok = false tells
	// the caller to discard the worker — its arenas may be mid-mutation.
	// This is what keeps a panicking solver (or an injected chaos panic)
	// from killing the process under Workers > 1.
	safeRunClass := func(w *classWorker, i int) (ok bool) {
		defer func() {
			if p := recover(); p != nil {
				perErr[i] = &PanicError{Class: i, Value: p, Stack: debug.Stack()}
				ok = false
			}
		}()
		runClass(w, i)
		return true
	}
	// Round-scoped dirty gate: a class whose τ windows contain no crossing
	// edge this round enumerates zero surviving pairs (the windows hold no
	// τB candidate at all), so its whole per-class sweep — enumeration,
	// builds, solves — is skipped without changing the merged result. The
	// dirty-gate property tests cross-check the skipped set against naive
	// BucketIndex rebuilds every round. The gate is trusted only while its
	// bitmap passes the digest self-check; a corrupted bitmap degrades the
	// round to the full sweep (always safe — running a clean class yields
	// zero pairs) instead of risking a wrong skip.
	gateOK := true
	if r.am != nil && !r.am.inc.DirtyGateOK() {
		gateOK = false
		stats.FallbackSweeps++
	}
	skipClean := func(i int) bool {
		if r.am == nil || !gateOK || r.am.inc.RoundDirty(i) {
			return false
		}
		stats.ClassesSkippedDirty++
		return true
	}
	if workers <= 1 {
		w := newClassWorker(opts)
		for i := range weights {
			if skipClean(i) {
				continue
			}
			if !safeRunClass(w, i) {
				w = newClassWorker(opts)
			}
		}
	} else {
		var wg sync.WaitGroup
		classes := make(chan int)
		for n := 0; n < workers; n++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := newClassWorker(opts)
				for i := range classes {
					if !safeRunClass(w, i) {
						w = newClassWorker(opts)
					}
				}
			}()
		}
		for i := range weights {
			if skipClean(i) {
				continue
			}
			classes <- i
		}
		close(classes)
		wg.Wait()
	}

	// Fallback pass (class rung of the ladder): a recoverable state fault —
	// a recovered panic or an escaped corruption sentinel — quarantines the
	// class's amortised state and re-runs the class through the cold path
	// (naive bucket index, fresh worker arena), whose result is
	// bit-identical to a healthy amortised sweep by the differential-suite
	// equivalences. A fault that survives the cold re-run too (e.g. a
	// deterministically panicking installed solver) is not a state fault
	// and propagates as an error — never a crash.
	for i := range weights {
		if perErr[i] == nil || !recoverableFault(perErr[i]) {
			continue
		}
		if r.am != nil {
			r.am.ctxs[i].quarantined = true
		}
		perStats[i] = Stats{FallbackClasses: 1}
		perClass[i], perErr[i] = r.classFallback(par, m, i, &perStats[i])
	}

	// Deterministic merge: class results concatenate in descending-W
	// (enumeration) order before the greedy disjoint application.
	var all []graph.Augmentation
	for i := range weights {
		stats.accumulate(perStats[i])
		all = append(all, perClass[i]...)
	}
	for i := range weights {
		if perErr[i] != nil {
			return 0, perErr[i]
		}
	}
	gain, applied := graph.ApplyDisjoint(m, all)
	stats.AppliedAugmentations += applied
	stats.Gain += gain
	stats.Rounds++
	if mutBoundary {
		stats.MutationDeltaBuilds += stats.CrossRoundDeltaBuilds - preMutCRDB
	}
	return gain, nil
}

// classFallback is the cold re-run of one class after a recoverable fault:
// a fresh worker arena (and a fresh installed solver) over the naive bucket
// index (no amortised context), contained against a second panic. For the
// default solver configuration the result is bit-identical to the healthy
// sweep's; a persistent fault (the re-run failing too) is returned as an
// error for the caller to surface.
func (r *Runner) classFallback(
	par *layered.Parametrized,
	m *graph.Matching,
	i int,
	st *Stats,
) (augs []graph.Augmentation, err error) {
	defer func() {
		if p := recover(); p != nil {
			augs, err = nil, &PanicError{Class: i, Value: p, Stack: debug.Stack()}
		}
	}()
	return classAugmentations(par, m, r.weights[i], newClassWorker(r.opts), r.opts, st, nil)
}

// FindClassAugmentations is Algorithm 4 as a standalone entry point: it
// draws a fresh random bipartition and returns the augmentation set AW for
// the single augmentation class W. Exposed for experiments that probe one
// class (e.g. the paper's 4-cycle example).
func FindClassAugmentations(
	g *graph.Graph,
	m *graph.Matching,
	w float64,
	opts Options,
	stats *Stats,
) ([]graph.Augmentation, error) {
	opts = opts.withDefaults()
	par := layered.Parametrize(g.N(), g.Edges(), m, opts.Rng)
	return classAugmentations(par, m, w, newClassWorker(opts), opts, stats, nil)
}

// classAugmentations is Algorithm 4 for one augmentation class W: over all
// good pairs whose weight windows are populated (a bucket-count lookup —
// the same buckets the layered builds then iterate), build the layered
// graph, solve unweighted matching in L', project each augmenting path to
// G, decompose (Lemma 4.11), and keep the best component per path. The
// vertex-disjoint union across pairs is returned.
//
// With an amortised class context, four short-circuits precede or shorten
// the build+solve, none of which changes the returned set: the survival
// probe prunes, inside the enumeration, the pairs whose layered graph would
// leave some Y gap empty (exactly the pairs the naive loop builds and then
// skips: no augmenting path of ML′ crosses an empty gap),
// the cross-class cache replays the candidates of an identical layered
// graph solved earlier this round, the delta chain patches the class's
// previous build (across the redraw too), and the repair solver patches
// the previous solve's retained CSR. A class context exists only at
// granularity 1/62 or coarser (layered.CanIndexIncrementally), so all four
// run whenever it does. Without one, the naive branch filters the pairs by
// the BucketIndex masks (by its counts past 64 units) and builds each from
// scratch.
//
// Note: Algorithm 4 as analysed returns only the single best pair's set
// A(τA,τB); the union with a shared conflict set is pointwise at least as
// good and converges far faster at coarse granularity, so we take it (every
// element still has positive gain and disjointness is enforced).
func classAugmentations(
	par *layered.Parametrized,
	m *graph.Matching,
	w float64,
	cw *classWorker,
	opts Options,
	stats *Stats,
	ac *amortClassCtx,
) ([]graph.Augmentation, error) {
	scratch := cw.scratch
	// Hazard site (chaos testing): panic at the top of an amortised class
	// sweep. The pool recovers it, the fallback pass quarantines the class,
	// and the cold re-run (ac == nil, so this site cannot re-fire) must
	// reproduce the healthy result bit-for-bit.
	if ac != nil && faultinject.Fire(faultinject.WorkerPanic) {
		panic("faultinject: injected worker panic in class sweep")
	}
	// Every enumeration below stops at MaxPairsPerClass pairs.
	var ix layered.Index
	var pairs []layered.TauPair
	if ac != nil {
		ix = ac.view
		// The class's delta chain lives on a class-private arena so its
		// baseline survives the round boundary (worker arenas are recreated
		// every Round and shuffle between classes under the pool). Lazy — a
		// class that never sweeps never pays for one.
		if ac.scratch == nil {
			ac.scratch = layered.NewScratch()
		}
		scratch = ac.scratch
		// Probe-guided enumeration: dead pairs are pruned inside the
		// generation recursion instead of generated and then probed. The
		// pruned count is exactly the set ProbeY would have rejected, so
		// the naive/amortised stats still reconcile.
		aMask, bMask, _ := ac.view.Masks()
		var pruned int
		pairs, pruned = layered.EnumerateSurvivingPairs(
			opts.Layered, aMask, bMask, opts.MaxPairsPerClass, ac.view, ac.enum)
		stats.LayeredBuilt += pruned
		stats.ProbeSkips += pruned
		stats.EnumPruned += pruned
	} else {
		bix := scratch.Index(par, w, opts.Layered)
		ix = bix
		if aMask, bMask, ok := bix.Masks(); ok {
			pairs = layered.EnumerateGoodPairsMasked(opts.Layered, aMask, bMask, opts.MaxPairsPerClass)
		} else {
			pairs = layered.EnumerateGoodPairsLimited(opts.Layered,
				func(u int) bool { return u == 0 || bix.ACount(u) > 0 },
				func(u int) bool { return bix.BCount(u) > 0 },
				opts.MaxPairsPerClass,
			)
		}
	}
	rep := cw.repair
	if rep != nil && ac != nil {
		// Like the build arena, the repair baseline must be class-private to
		// survive the round boundary; the worker's arena would hand class A's
		// retained CSR to class B next round (the token check would catch it,
		// but every link solve would then fall back cold).
		if ac.rep == nil {
			ac.rep = &repairState{hk: bipartite.NewScratch()}
		}
		rep = ac.rep
	}
	var solver PhasedSolver
	if rep == nil {
		solver = opts.PhasedSolverFactory()
	}
	var cands []candidate
	var key []byte

	// prevLay chains the class-round's builds through the differential
	// builder: every surviving pair after the first patches the previous
	// pair's build (bit-identical to a from-scratch build by construction).
	// Pairs served by the cache never build, so prevLay stays the arena's
	// latest build across hits. It is seeded from the class context, so
	// the first build of a class-round deltas over the previous round's
	// last build — across the redraw.
	var prevLay *layered.Layered
	if ac != nil {
		prevLay = ac.prevLay
	}
	for _, tau := range pairs {
		stats.LayeredBuilt++
		keyed := false
		// Hit-rate gate: a class whose lookups never hit stops paying for
		// keys (and so for bucket digests) for the rest of the Solve. The
		// cache is transparent, so gating cannot change the result — only
		// where the time goes (the E14 uniform tier digested large buckets
		// for a cache that never hit).
		if ac != nil && ac.cache != nil && !ac.cacheOff {
			key = ac.view.PairKey(tau, key[:0])
			keyed = true
			ac.cacheLooks++
			hit, ok, corrupt := ac.cache.get(key)
			if ok {
				ac.cacheHits++
				stats.CacheHits++
				cands = append(cands, hit...)
				continue
			}
			if corrupt {
				// Cache rung of the ladder: the entry failed its checksum
				// self-check and was evicted; the pair falls through to a
				// fresh build + solve (and re-puts a healthy entry below).
				stats.FallbackCacheDrops++
			}
			if gate := cacheGate(opts); gate > 0 && ac.cacheHits == 0 && ac.cacheLooks >= gate {
				ac.cacheOff = true
			}
		}
		var lay *layered.Layered
		crossBuilt := false
		if ac != nil && prevLay != nil {
			link := prevLay.Par != par // baseline from a previous round
			// Cutover 1 chains always: the grouped Y-stage lookup pays off
			// even with no segment to reuse.
			if dl, reusedSegs, derr := layered.BuildDelta(ac.view, prevLay, tau, scratch, 1); derr == nil {
				lay = dl
				stats.DeltaBuilds++
				stats.DeltaLayersReused += reusedSegs
				if link {
					stats.CrossRoundDeltaBuilds++
					crossBuilt = true
				}
			} else {
				// Build rung of the ladder: a rejected baseline (ErrDelta*,
				// real or injected) degrades to the from-scratch build
				// below — bit-identical by construction, never an error.
				stats.FallbackBuilds++
			}
		}
		if lay == nil {
			lay = layered.BuildIndexed(ix, tau, scratch)
		}
		prevLay = lay
		if !lay.EveryGapHasY() {
			continue // no augmenting path of ML′ can cross an empty gap
		}
		bip := &bipartite.Bip{N: lay.NumV, Side: lay.Sides(), Edges: lay.LPrimeEdges()}
		stats.SolverCalls++
		var mPrime *graph.Matching
		var phases int
		if rep != nil {
			repairedBefore := stats.RepairSolves
			mPrime, phases = rep.solve(lay, bip, stats)
			if crossBuilt && stats.RepairSolves > repairedBefore {
				// The patched baseline solve belonged to the previous
				// round: the repair chain crossed the redraw too.
				stats.CrossRoundRepairs++
			}
		} else {
			var err error
			if mPrime, phases, err = solver(bip); err != nil {
				return nil, err
			}
		}
		stats.SolverPhases += phases
		start := len(cands)
		lay.AugmentingWalks(mPrime, func(walk layered.Walk) {
			if aug, gain, ok := scratch.BestAugmentation(m, walk); ok {
				cands = append(cands, candidate{aug: aug, gain: gain})
			}
		})
		if keyed {
			ac.cache.put(key, cands[start:])
		}
	}
	if ac != nil {
		// Hand the chain tail to the class context so next round's first
		// build can link onto it across the redraw.
		ac.prevLay = prevLay
	}

	// Resolve the class's shared conflict set greedily by descending gain
	// (stable, so equal gains keep discovery order and the sweep stays
	// deterministic): all pairs see the same matching, so their candidate
	// sets are independent and best-first dominates discovery order.
	slices.SortStableFunc(cands, func(a, b candidate) int {
		switch {
		case a.gain > b.gain:
			return -1
		case a.gain < b.gain:
			return 1
		}
		return 0
	})
	var chosen []graph.Augmentation
	cw.resetUsed(par.N)
	for _, c := range cands {
		if cw.conflicts(c.aug) {
			continue
		}
		cw.mark(c.aug)
		chosen = append(chosen, c.aug)
	}
	return chosen, nil
}

// Result is the outcome of Solve.
type Result struct {
	M     *graph.Matching
	Stats Stats
}

// effectiveBudget widens the round budget on small graphs: an augmentation
// on |C| vertices survives a bipartition draw with probability 2^(1-|C|)
// (Lemma 4.12), so when n itself is small a few dozen cheap extra draws
// make capture near-certain, whereas the default patience would stall
// flakily. The budget is graded: the smaller the graph, the longer the
// optimal augmentations are relative to n, and the more zero-gain draws a
// single remaining augmentation can survive.
func effectiveBudget(n int, opts Options) (maxRounds, patience int) {
	maxRounds, patience = opts.MaxRounds, opts.Patience
	switch {
	case n <= 12:
		if patience < 48 {
			patience = 48
		}
		if maxRounds < 64 {
			maxRounds = 64
		}
	case n <= 16:
		if patience < 24 {
			patience = 24
		}
		if maxRounds < 64 {
			maxRounds = 64
		}
	}
	return maxRounds, patience
}

// converge is the Theorem 1.2 stopping rule, the one loop every driver
// runs: from loop position (round, stalled) it runs rounds on m until the
// round budget (effectiveBudget) is spent or Patience consecutive rounds
// gain nothing. after, when non-nil, sees the position after every round —
// round counts the completed rounds — and its error stops the loop. It
// returns the total gain of the rounds it ran.
func (r *Runner) converge(m *graph.Matching, stats *Stats, round, stalled int, after func(round, stalled int) error) (graph.Weight, error) {
	maxRounds, patience := effectiveBudget(r.g.N(), r.opts)
	var total graph.Weight
	for ; round < maxRounds && stalled < patience; round++ {
		gain, err := r.Round(m, stats)
		if err != nil {
			return total, err
		}
		total += gain
		if gain == 0 {
			stalled++
		} else {
			stalled = 0
		}
		if after != nil {
			if err := after(round+1, stalled); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// startMatching is a driver's working matching: a clone of initial, or the
// empty matching when initial is nil.
func startMatching(g *graph.Graph, initial *graph.Matching) *graph.Matching {
	if initial != nil {
		return initial.Clone()
	}
	return graph.NewMatching(g.N())
}

// Solve runs the Theorem 1.2 driver: start from the empty matching (or
// initial if non-nil) and iterate Algorithm 3 rounds until MaxRounds or
// until Patience consecutive rounds yield no gain.
func Solve(g *graph.Graph, initial *graph.Matching, opts Options) (Result, error) {
	m := startMatching(g, initial)
	var stats Stats
	_, err := NewRunner(g, opts).converge(m, &stats, 0, 0, nil)
	return Result{M: m, Stats: stats}, err
}
