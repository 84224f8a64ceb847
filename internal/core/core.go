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
// With Options.Amortize a persistent Runner maintains cross-round state
// that makes every round after the first differential: the incremental
// viability index (layered.IncIndex) re-derives only the buckets a redraw
// or an augmentation touched; within and across rounds each class chains
// its layered-graph builds through layered.BuildDelta, patching the
// previous build instead of rebuilding (the layered.RoundChainer interface
// is how BuildDelta proves a cross-round baseline fresh); and the default
// exact solver retains its adjacency CSR per class so a delta-built pair
// repairs the previous solve (bipartite.RepairHK) instead of re-solving.
// Every differential layer is bit-identical to its from-scratch
// counterpart by construction, and the differential suite in
// internal/solvertest asserts it family by family.
//
// # The degradation ladder
//
// Retained state can go stale or corrupt (and the chaos suite forces it
// to): each amortised layer checks its baseline and degrades one rung —
// never to an error. A rejected delta baseline (the five layered.ErrDelta*
// sentinels) rebuilds from scratch; a rejected repair baseline (the three
// bipartite.ErrRepair* sentinels) re-solves cold; a cache entry failing
// its checksum is evicted and re-solved; a poisoned class context is
// quarantined for the rest of the Solve; a worker panic resets the whole
// amortised context. The eight sentinels are the recoverable contract:
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

// Solver is the Unw-Bip-Matching black box of Algorithm 4: any algorithm
// returning a large matching of a bipartite graph. The reduction only
// consumes its (1−δ) guarantee.
type Solver func(b *bipartite.Bip) (*graph.Matching, error)

// ExactSolver adapts Hopcroft–Karp (δ = 0).
func ExactSolver() Solver {
	return func(b *bipartite.Bip) (*graph.Matching, error) {
		return bipartite.HopcroftKarp(b).M, nil
	}
}

// ApproxSolver adapts the bounded-phase (1−δ)-approximation.
func ApproxSolver(delta float64) Solver {
	return func(b *bipartite.Bip) (*graph.Matching, error) {
		return bipartite.Approx(b, delta).M, nil
	}
}

// PhasedSolver is a Solver that additionally reports the subroutine phase
// count of the call — the unit Stats.SolverPhases accumulates. Installed
// via Options.PhasedSolverFactory; a plain Solver closure has no channel
// for its phase counts, which leaves the ledger's phase column zero.
type PhasedSolver func(b *bipartite.Bip) (*graph.Matching, int, error)

// ExactPhasedSolver returns a scratch-backed exact Hopcroft–Karp
// PhasedSolver: the factory-path equivalent of the default solver, phase
// counts included. Each call to ExactPhasedSolver owns a private arena, so
// a PhasedSolverFactory returning one per class is worker-safe.
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
	// Solver is the unweighted subroutine. Default ExactSolver.
	Solver Solver
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
	// runs the sweep sequentially. The sweep is forced sequential when a
	// single Solver closure is installed without a PhasedSolverFactory —
	// one closure cannot safely serve several workers. Results are merged
	// in descending class-weight order, so for a fixed Rng seed the outcome
	// is bit-for-bit identical at any worker count.
	Workers int
	// PhasedSolverFactory, when set, takes precedence over Solver: it is
	// invoked once per augmentation class with that class's private Rng
	// (split deterministically from Options.Rng in class order) and returns
	// the PhasedSolver for the class. It is how randomized or stateful
	// subroutines stay reproducible under the parallel sweep, and each
	// call's phase count is folded into Stats.SolverPhases (per worker,
	// then merged — no atomics on the hot path). When neither Solver nor
	// PhasedSolverFactory is set, each worker uses an exact Hopcroft–Karp
	// solver backed by its own scratch arena.
	PhasedSolverFactory func(rng *rand.Rand) PhasedSolver
	// Amortize enables the cross-round amortised pipeline: the incremental
	// viability index (window bucketing computed once per edge and
	// maintained by matched/unmatched deltas instead of rebuilt per round
	// and class), the probe-guided pair enumeration (doomed (τA, τB)
	// subtrees are pruned during generation, see Stats.EnumPruned), and the
	// per-round cross-class solve cache (classes whose windows coincide
	// share one solve). The amortised path returns the bit-identical
	// matching of the naive path for a fixed Rng seed; the differential
	// suite (internal/solvertest, TestAmortizedRoundBitIdentical) asserts
	// it. Stats.LayeredBuilt counts probe-rejected pairs as built so the
	// two paths stay comparable. Granularities finer than 1/255 exceed the
	// index's compact unit storage and silently fall back to the naive
	// path (layered.CanIndexIncrementally).
	Amortize bool
	// DeltaCutover tunes the differential layered-graph builder the
	// amortised path chains within each class-round: consecutive surviving
	// (τA, τB) pairs share most of their layers, so every pair after the
	// first is built by layered.BuildDelta — patching only the layers whose
	// windows changed against the previous pair's build — whenever at least
	// DeltaCutover layer segments are reusable (see Stats.DeltaBuilds /
	// DeltaLayersReused). 0 uses the default gate (chain always; the
	// grouped Y-stage lookup pays off even with nothing to reuse), negative
	// disables delta chaining entirely (every pair rebuilds from scratch) —
	// the measurement baseline of the E15 experiment. The delta builds are
	// bit-identical to from-scratch builds by construction, asserted by
	// TestBuildDeltaMatchesBuildIndexed and FuzzBuildDelta.
	DeltaCutover int
	// RepairCutover tunes the incremental Hopcroft–Karp repair, the
	// solver-side twin of the delta chain: with the default exact solver,
	// every solve retains its adjacency CSR and result arena
	// (bipartite.HopcroftKarpRetained), and a solve whose layered graph was
	// delta-built over the instance of the previous solve patches the
	// retained CSR (bipartite.RepairHK) instead of rebuilding it — whenever
	// at least RepairCutover edges of the L' list are byte-shared with the
	// baseline (DeltaInfo.KeptLPrime). 0 uses the default gate (patch
	// whenever anything is shared; the retained arena saves the per-solve
	// allocations either way), negative disables the repair path
	// entirely (every solve is a fresh HopcroftKarpScratch) — the
	// measurement baseline of the E16 experiment. The repaired solve is
	// bit-identical to the fresh one — same matching, same phase count —
	// because the patched CSR is byte-identical to the rebuilt one
	// (Invariant 21); see Stats.RepairSolves / RepairEdgesKept. Ignored
	// when a Solver or PhasedSolverFactory closure is installed — only the
	// default exact solver retains repair state.
	RepairCutover int
	// CrossRoundCutover gates the cross-round extension of the delta chain
	// (PR 7): with it enabled each class's builds chain on a class-private
	// arena that survives the round boundary, so the first build of a
	// class-round is delta-built over the previous round's last build — the
	// chain crosses the bipartition redraw, keeping exactly the segments
	// whose buckets the incremental index proves unchanged
	// (layered.RoundChainer) — and the incremental Hopcroft–Karp repair
	// extends across rounds with it (DeltaInfo already names the base
	// build). 0 uses the default gate (chain across the redraw whenever
	// anything is reusable); a positive value requires at least that many
	// reusable segments at the round link before chaining (below it the
	// link build rebuilds in place, exactly as a too-small same-round delta
	// does); negative disables the extension — every class chain restarts at
	// each BeginRound, the round-local behaviour of PRs 4–6 and the
	// measurement baseline of the E17 experiment. Cross-round chained builds
	// and repairs are bit-identical to round-local ones by construction
	// (Invariant 24); see Stats.CrossRoundDeltaBuilds / CrossRoundRepairs.
	// Ignored unless Amortize is set and DeltaCutover ≥ 0.
	CrossRoundCutover int
	// CacheGate tunes the per-class hit-rate gate on the cross-class solve
	// cache: a class whose cache lookups have produced zero hits after
	// CacheGate lookups stops computing pair keys (and so stops digesting
	// buckets) for the rest of the Solve — on uniform tiers (E14) the cache
	// never hits yet digested large buckets on every cold round. 0 uses
	// the default budget (8 lookups), negative disables the gate (every
	// lookup keys and digests, the pre-gate behaviour). The cache is
	// transparent either way, so results are unchanged at any setting.
	CacheGate int
	// Trace, when non-nil, receives the matching weight after every round
	// (convergence curves for the E12 experiment).
	Trace func(round int, weight graph.Weight)
}

func (o Options) withDefaults() Options {
	o.Layered = o.Layered.WithDefaults()
	if o.ClassBase <= 1 {
		o.ClassBase = 2
	}
	// Solver deliberately stays nil when unset: Round distinguishes "no
	// solver configured" (scratch-backed exact solver per worker) from a
	// caller-installed closure (forces the sweep sequential).
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
	// SolverCalls counts Unw-Bip-Matching invocations (one per surviving
	// (W, τ-pair) combination).
	SolverCalls int
	// SolverPhases accumulates the Hopcroft–Karp phase counts of those
	// invocations. Tracked for the default exact solver and for
	// PhasedSolverFactory solvers; an installed Solver closure leaves it 0.
	SolverPhases int
	// LayeredBuilt counts layered graphs constructed (= SolverCalls plus
	// those skipped for having no augmenting structure). Amortised runs
	// count probe-rejected pairs here too, so the field is comparable
	// between the naive and amortised paths.
	LayeredBuilt int
	// ProbeSkips counts (τA, τB) pairs the amortised survival probe
	// rejected without constructing their layered graph (always 0 on the
	// naive path).
	ProbeSkips int
	// EnumPruned counts the subset of ProbeSkips the probe-guided
	// enumeration pruned during pair generation — dead pairs that were
	// never materialised at all, only charged to the per-class pair limit
	// by their closed-form subtree count (always 0 on the naive path and
	// at discretisations past the probe's bit tables).
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
	// always 0 on the naive path and at RepairCutover < 0).
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
	// the naive path and at CrossRoundCutover < 0). Every such build is
	// also counted in DeltaBuilds.
	CrossRoundDeltaBuilds int
	// CrossRoundRepairs counts RepairSolves whose patched baseline solve
	// belonged to a previous round — the repair chain extended across the
	// redraw together with the build chain (always 0 unless both the
	// repair path and cross-round chaining are on).
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
// scratch arena, a stamped conflict set, and the solver source, so parallel
// workers share nothing.
type classWorker struct {
	scratch   *layered.Scratch
	newSolver func(rng *rand.Rand) Solver

	// repair, when non-nil, replaces the solver with the retained exact
	// solver that patches the previous solve's CSR for delta-built
	// instances (Options.RepairCutover ≥ 0 with the default solver
	// configuration).
	repair *repairState

	// used is the class-level conflict set as a stamp array over original
	// vertices (advancing the stamp clears it in O(1) between classes).
	used      []uint32
	usedStamp uint32

	// lastPhases is the phase count of the most recent solver call,
	// recorded for Stats.SolverPhases by the default solver and by the
	// PhasedSolverFactory adapter (a plain installed Solver leaves it 0).
	lastPhases int
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
	switch {
	case opts.PhasedSolverFactory != nil:
		// Phase-reporting factory: the adapter records each call's phase
		// count on the worker, where classAugmentations folds it into the
		// per-class stats (merged per class afterwards, so the totals are
		// worker-count invariant).
		w.newSolver = func(rng *rand.Rand) Solver {
			ps := opts.PhasedSolverFactory(rng)
			return func(b *bipartite.Bip) (*graph.Matching, error) {
				m, phases, err := ps(b)
				w.lastPhases = phases
				return m, err
			}
		}
	case opts.Solver != nil:
		w.newSolver = func(*rand.Rand) Solver { return opts.Solver }
	default:
		// Default oracle: exact Hopcroft–Karp over a worker-private arena,
		// so the hundreds of solver calls per round stop allocating their
		// adjacency and search state.
		hk := bipartite.NewScratch()
		solver := Solver(func(b *bipartite.Bip) (*graph.Matching, error) {
			res := bipartite.HopcroftKarpScratch(b, hk)
			w.lastPhases = res.Phases
			return res.M, nil
		})
		w.newSolver = func(*rand.Rand) Solver { return solver }
		if opts.RepairCutover >= 0 {
			w.repair = &repairState{hk: hk}
		}
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

// NewRunner prepares a round runner for g. With opts.Amortize the
// incremental viability index is built here, once, and every subsequent
// Round applies only the matching deltas.
func NewRunner(g *graph.Graph, opts Options) *Runner {
	opts = opts.withDefaults()
	r := &Runner{g: g, opts: opts}
	// Discretisations finer than the incremental index's compact unit
	// storage fall back to the naive path rather than wrap units silently;
	// the amortised pipeline is an optimisation, never a behaviour change.
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

	// Split the Rng per class up-front, in class order, so a factory-built
	// solver sees the same stream no matter which worker runs its class.
	// Without a factory the default solvers consume no randomness and the
	// split is skipped to keep the Rng stream (and thus all fixed-seed
	// results) identical to the sequential code path.
	var seeds []int64
	if opts.PhasedSolverFactory != nil {
		seeds = make([]int64, len(weights))
		for i := range seeds {
			seeds[i] = opts.Rng.Int63()
		}
	}

	workers := opts.Workers
	if opts.PhasedSolverFactory == nil && opts.Solver != nil {
		workers = 1
	}
	if workers > len(weights) {
		workers = len(weights)
	}

	perClass := make([][]graph.Augmentation, len(weights))
	perStats := make([]Stats, len(weights))
	perErr := make([]error, len(weights))
	runClass := func(w *classWorker, i int) {
		var rng *rand.Rand
		if seeds != nil {
			rng = rand.New(rand.NewSource(seeds[i]))
		}
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
			par, m, weights[i], w.newSolver(rng), w, opts, &perStats[i], ac)
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
	// (naive bucket index, fresh worker arena, replayed class Rng), whose
	// result is bit-identical to a healthy amortised sweep by the
	// differential-suite equivalences. A fault that survives the cold
	// re-run too (e.g. a deterministically panicking installed solver) is
	// not a state fault and propagates as an error — never a crash.
	for i := range weights {
		if perErr[i] == nil || !recoverableFault(perErr[i]) {
			continue
		}
		if r.am != nil {
			r.am.ctxs[i].quarantined = true
		}
		perStats[i] = Stats{FallbackClasses: 1}
		perClass[i], perErr[i] = r.classFallback(par, m, i, seeds, &perStats[i])
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
// a fresh worker arena, the naive bucket index (no amortised context), and
// the class's replayed Rng stream, contained against a second panic. For
// the default solver configuration the result is bit-identical to the
// healthy sweep's; a persistent fault (the re-run failing too) is returned
// as an error for the caller to surface.
func (r *Runner) classFallback(
	par *layered.Parametrized,
	m *graph.Matching,
	i int,
	seeds []int64,
	st *Stats,
) (augs []graph.Augmentation, err error) {
	defer func() {
		if p := recover(); p != nil {
			augs, err = nil, &PanicError{Class: i, Value: p, Stack: debug.Stack()}
		}
	}()
	w := newClassWorker(r.opts)
	var rng *rand.Rand
	if seeds != nil {
		rng = rand.New(rand.NewSource(seeds[i]))
	}
	return classAugmentations(par, m, r.weights[i], w.newSolver(rng), w, r.opts, st, nil)
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
	cw := newClassWorker(opts)
	var rng *rand.Rand
	if opts.PhasedSolverFactory != nil {
		rng = rand.New(rand.NewSource(opts.Rng.Int63()))
	}
	return classAugmentations(par, m, w, cw.newSolver(rng), cw, opts, stats, nil)
}

// oracleOf unwraps the class context's survival oracle: non-nil only on the
// amortised path at discretisations the probe's bit tables cover.
func oracleOf(ac *amortClassCtx) (layered.SurvivalOracle, bool) {
	if ac == nil {
		return nil, false
	}
	return ac.view.Oracle()
}

// classAugmentations is Algorithm 4 for one augmentation class W: over all
// good pairs whose weight windows are populated (a bucket-count lookup —
// the same buckets the layered builds then iterate), build the layered
// graph, solve unweighted matching in L', project each augmenting path to
// G, decompose (Lemma 4.11), and keep the best component per path. The
// vertex-disjoint union across pairs is returned.
//
// With an amortised class context, three short-circuits precede the
// build+solve, none of which changes the returned set: the survival probe
// rejects pairs whose layered graph would have no Y edge (exactly the
// pairs the naive loop builds and then skips), the cross-class cache
// replays the candidates of an identical layered graph solved earlier this
// round, and the repair solver patches the previous solve's retained CSR.
//
// Note: Algorithm 4 as analysed returns only the single best pair's set
// A(τA,τB); the union with a shared conflict set is pointwise at least as
// good and converges far faster at coarse granularity, so we take it (every
// element still has positive gain and disjointness is enforced).
func classAugmentations(
	par *layered.Parametrized,
	m *graph.Matching,
	w float64,
	solver Solver,
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
	var ix layered.Index
	crossRound := false
	if ac != nil {
		ix = ac.view
		if opts.DeltaCutover >= 0 {
			if opts.CrossRoundCutover >= 0 {
				// Cross-round chaining: the class's delta chain lives on a
				// class-private arena so its baseline survives the round
				// boundary (worker arenas are recreated every Round and
				// shuffle between classes under the pool). Lazy — a class
				// that never sweeps never pays for one.
				if ac.scratch == nil {
					ac.scratch = layered.NewScratch()
				}
				scratch = ac.scratch
				crossRound = true
			}
			// The sweep delta-chains this class's builds, so the first
			// pair's from-scratch build must record the diff watermarks.
			scratch.EnableDeltaBaseline()
		}
	} else {
		ix = scratch.Index(par, w, opts.Layered)
	}
	var pairs []layered.TauPair
	preFiltered := false
	if aMask, bMask, ok := ix.Masks(); ok {
		if orc, probeOK := oracleOf(ac); probeOK {
			// Probe-guided enumeration: dead pairs are pruned inside the
			// generation recursion instead of generated and then probed.
			// The pruned count is exactly the set ProbeY would have
			// rejected, so the naive/amortised stats still reconcile.
			var pruned int
			pairs, pruned = layered.EnumerateSurvivingPairs(
				opts.Layered, aMask, bMask, opts.MaxPairsPerClass, orc, ac.enum)
			stats.LayeredBuilt += pruned
			stats.ProbeSkips += pruned
			stats.EnumPruned += pruned
			preFiltered = true
		} else {
			pairs = layered.EnumerateGoodPairsMasked(opts.Layered, aMask, bMask, opts.MaxPairsPerClass)
		}
	} else {
		pairs = layered.EnumerateGoodPairsLimited(opts.Layered,
			func(u int) bool { return u == 0 || ix.ACount(u) > 0 },
			func(u int) bool { return ix.BCount(u) > 0 },
			opts.MaxPairsPerClass,
		)
	}
	if len(pairs) > opts.MaxPairsPerClass {
		pairs = pairs[:opts.MaxPairsPerClass]
	}
	rep := cw.repair
	if rep != nil && crossRound {
		// Like the build arena, the repair baseline must be class-private to
		// survive the round boundary; the worker's arena would hand class A's
		// retained CSR to class B next round (the token check would catch it,
		// but every link solve would then fall back cold).
		if ac.rep == nil {
			ac.rep = &repairState{hk: bipartite.NewScratch()}
		}
		rep = ac.rep
	}
	var cands []candidate
	var key []byte

	// prevLay chains the class-round's builds through the differential
	// builder: every surviving pair after the first patches the previous
	// pair's build (bit-identical to a from-scratch build by construction).
	// Pairs served by the cache never build, so prevLay stays the arena's
	// latest build across hits. Under cross-round chaining it is seeded
	// from the class context, so the first build of a class-round deltas
	// over the previous round's last build — across the redraw.
	var prevLay *layered.Layered
	if crossRound {
		prevLay = ac.prevLay
	}
	for _, tau := range pairs {
		stats.LayeredBuilt++
		keyed := false
		if ac != nil {
			if !preFiltered && !ac.view.ProbeY(tau) {
				stats.ProbeSkips++
				continue
			}
			// Hit-rate gate: a class whose lookups never hit stops paying
			// for keys (and so for bucket digests) for the rest of the
			// Solve. The cache is transparent, so gating cannot change the
			// result — only where the time goes (the E14 uniform tier
			// digested large buckets for a cache that never hit).
			if ac.cache != nil && !ac.cacheOff {
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
					// Cache rung of the ladder: the entry failed its
					// checksum self-check and was evicted; the pair falls
					// through to a fresh build + solve (and re-puts a
					// healthy entry below).
					stats.FallbackCacheDrops++
				}
				if gate := cacheGate(opts); gate > 0 && ac.cacheHits == 0 && ac.cacheLooks >= gate {
					ac.cacheOff = true
				}
			}
		}
		var lay *layered.Layered
		crossBuilt := false
		if ac != nil && prevLay != nil && opts.DeltaCutover >= 0 {
			cut := opts.DeltaCutover
			if cut == 0 {
				cut = 1
			}
			link := prevLay.Par != par // baseline from a previous round
			if link && opts.CrossRoundCutover > cut {
				cut = opts.CrossRoundCutover
			}
			if dl, reusedSegs, derr := layered.BuildDelta(ix, prevLay, tau, scratch, cut); derr == nil {
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
		if len(lay.Y) == 0 {
			continue
		}
		lp := lay.LPrimeEdges()
		if len(lp) == 0 {
			continue
		}
		bip := &bipartite.Bip{N: lay.NumV, Side: lay.Sides(), Edges: lp}
		stats.SolverCalls++
		var mPrime *graph.Matching
		switch {
		case rep != nil:
			var phases int
			repairedBefore := stats.RepairSolves
			mPrime, phases = rep.solve(lay, bip, opts.RepairCutover, stats)
			if crossBuilt && stats.RepairSolves > repairedBefore {
				// The patched baseline solve belonged to the previous
				// round: the repair chain crossed the redraw too.
				stats.CrossRoundRepairs++
			}
			stats.SolverPhases += phases
		default:
			cw.lastPhases = 0
			var err error
			mPrime, err = solver(bip)
			if err != nil {
				return nil, err
			}
			stats.SolverPhases += cw.lastPhases
		}
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
	if crossRound {
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

// Solve runs the Theorem 1.2 driver: start from the empty matching (or
// initial if non-nil) and iterate Algorithm 3 rounds until MaxRounds or
// until Patience consecutive rounds yield no gain.
func Solve(g *graph.Graph, initial *graph.Matching, opts Options) (Result, error) {
	opts = opts.withDefaults()
	m := graph.NewMatching(g.N())
	if initial != nil {
		m = initial.Clone()
	}
	var stats Stats
	maxRounds, patience := effectiveBudget(g.N(), opts)
	runner := NewRunner(g, opts)
	stalled := 0
	for r := 0; r < maxRounds && stalled < patience; r++ {
		gain, err := runner.Round(m, &stats)
		if err != nil {
			return Result{M: m, Stats: stats}, err
		}
		if opts.Trace != nil {
			opts.Trace(r, m.Weight())
		}
		if gain == 0 {
			stalled++
		} else {
			stalled = 0
		}
	}
	return Result{M: m, Stats: stats}, nil
}
