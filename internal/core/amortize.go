package core

// This file holds the amortised cross-round machinery a Runner threads
// through Algorithm 3 when Options.Amortize is set. Each piece keeps its
// naive twin alive as the differential oracle: the incremental index
// against the per-(round, class) BucketIndex rebuild, and the cross-class
// cache against an uncached sweep — see internal/solvertest and the core
// differential tests for the equivalences each pair is held to.

import (
	"runtime/debug"
	"sync"

	"repro/internal/bipartite"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/layered"
)

// candidate is one projected augmentation with its gain, the unit the
// per-class conflict resolution and the cross-class cache both handle.
type candidate struct {
	aug  graph.Augmentation
	gain graph.Weight
}

// amortizer is the cross-round state of an amortised run: the incremental
// viability index and the per-round cross-class solve cache.
type amortizer struct {
	weights []float64
	inc     *layered.IncIndex
	cache   *pairCache
	ctxs    []amortClassCtx
}

func newAmortizer(g *graph.Graph, opts Options) *amortizer {
	weights := ClassWeights(g, opts.ClassBase, opts.Layered)
	am := &amortizer{
		weights: weights,
		inc:     layered.NewIncIndex(g.N(), g.Edges(), weights, opts.Layered),
	}
	// The cache replays a pair's candidates without consulting the solver,
	// which is only sound when the solver is the stateless deterministic
	// default: a caller-installed solver may count passes or draw
	// randomness.
	if opts.Solver == nil && opts.PhasedSolverFactory == nil {
		am.cache = &pairCache{m: make(map[string]cacheEntry)}
	}
	am.ctxs = make([]amortClassCtx, len(weights))
	for i := range am.ctxs {
		am.ctxs[i] = amortClassCtx{
			view:  am.inc.View(i),
			cache: am.cache,
			enum:  layered.NewPairScratch(),
		}
	}
	return am
}

// beginRound syncs the index to the round's parametrization and drops the
// previous round's cache (a fresh bipartition invalidates every layered
// graph — though the per-class delta chains now survive it, see
// amortClassCtx). A non-nil error (ErrBeginRoundBusy: a concurrent or
// re-entrant BeginRound caught by the index's ownership stamp) leaves the
// round un-synced; the caller must treat it like a setup panic.
func (am *amortizer) beginRound(par *layered.Parametrized) error {
	if testBeginRoundPanic != nil {
		testBeginRoundPanic()
	}
	if testBeginRoundErr != nil {
		if err := testBeginRoundErr(); err != nil {
			return err
		}
	}
	if err := am.inc.BeginRound(par); err != nil {
		return err
	}
	if am.cache != nil {
		am.cache.reset()
	}
	return nil
}

// testBeginRoundPanic, when set by a test, runs at the top of beginRound —
// the hook the reset-rung tests use to fault the round-scoped setup.
var testBeginRoundPanic func()

// testBeginRoundErr, when set by a test, can make beginRound return an
// error without panicking — the hook the reset-rung tests use to inject
// the index's misuse sentinels (layered.ErrBeginRoundBusy) at the exact
// point a real concurrent BeginRound would surface them.
var testBeginRoundErr func() error

// safeBeginRound is the ladder's wrapper around beginRound: a panic out of
// the amortised round setup is recovered into a PanicError (Class -1) for
// Round's reset rung instead of escaping to the Solve caller.
func (am *amortizer) safeBeginRound(par *layered.Parametrized) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Class: -1, Value: p, Stack: debug.Stack()}
		}
	}()
	return am.beginRound(par)
}

// amortClassCtx is the per-class slice of the amortised state handed to
// classAugmentations; nil means the naive path. The enum scratch backs the
// probe-guided pair enumeration of its class. All of it is class-private
// state, so the sweep's worker pool needs no locking and results stay
// invariant under the worker count.
type amortClassCtx struct {
	view  *layered.IncView
	cache *pairCache
	enum  *layered.PairScratch

	// Cross-round delta chaining (Options.CrossRoundCutover ≥ 0): the
	// class's build arena, its last build, and its repair arena live here —
	// per class, Solve-lifetime — instead of on the round-scoped worker,
	// so the chain's baseline survives the bipartition redraw. prevLay
	// points into scratch's retained build; both are lazily created by the
	// class's first sweep. rep shadows the worker's repairState for the
	// class.
	scratch *layered.Scratch
	prevLay *layered.Layered
	rep     *repairState

	// quarantined marks the class's amortised context as damaged (a
	// recovered sweep panic or an escaped corruption sentinel): Round's
	// fallback pass sets it, and every later sweep of the class runs cold
	// (ac == nil) for the rest of the Solve. The lazy per-class state left
	// behind is stamp-guarded and simply never consulted again.
	quarantined bool

	// Hit-rate gate state (Options.CacheGate): lookups and hits of this
	// class across the whole Solve; once cacheOff flips, the class stops
	// computing pair keys (and digesting buckets) for good. The state is
	// class-private, but under a worker pool whether a lookup hits depends
	// on which worker's put landed first, so hit counts — and hence gate
	// timing — are scheduling-dependent at Workers > 1. Results are not:
	// the cache (and so the gate) is transparent by construction.
	cacheLooks int
	cacheHits  int
	cacheOff   bool
}

// cacheGate resolves Options.CacheGate: the lookup budget after which a
// hitless class stops keying the cache (0 picks the default, negative
// disables the gate).
func cacheGate(opts Options) int {
	switch {
	case opts.CacheGate < 0:
		return 0
	case opts.CacheGate == 0:
		return 8
	default:
		return opts.CacheGate
	}
}

// pairCache shares pair solves across the classes of one round, keyed by
// the layered graph's content (τ units plus window digests, see
// IncView.PairKey): anchored and geometric classes whose windows coincide
// solve identical layered graphs, so the first solve's candidates serve
// every twin. Values are pure functions of the key, so the worker pool can
// populate it in any order without disturbing the deterministic merge.
type pairCache struct {
	mu sync.Mutex
	m  map[string]cacheEntry
}

// cacheEntry is one cached pair solve plus the checksum sealed at put time.
// The checksum is the cache rung's self-check: a hit is only served after
// cacheSum re-derives it, so corrupted candidates are evicted and re-solved
// (FallbackCacheDrops) instead of merged into the matching.
type cacheEntry struct {
	cands []candidate
	sum   uint64
}

// cacheSum digests a cache entry — the key bytes and every candidate's gain
// and edge lists — with FNV-1a. Any flipped byte in either the key mapping
// or the stored candidates changes the digest.
func cacheSum(key string, cands []candidate) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for s := 0; s < 64; s += 8 {
			h = (h ^ (x >> s & 0xff)) * prime64
		}
	}
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime64
	}
	mixEdges := func(es []graph.Edge) {
		mix(uint64(len(es)))
		for _, e := range es {
			mix(uint64(e.U))
			mix(uint64(e.V))
			mix(uint64(e.W))
		}
	}
	for _, c := range cands {
		mix(uint64(c.gain))
		mixEdges(c.aug.Remove)
		mixEdges(c.aug.Add)
	}
	return h
}

func (pc *pairCache) reset() {
	pc.mu.Lock()
	clear(pc.m)
	pc.mu.Unlock()
}

// get serves a checksum-verified hit. corrupt reports that an entry existed
// but failed its self-check and was evicted — the caller counts the fallback
// and re-solves the pair as if it had missed.
func (pc *pairCache) get(key []byte) (cands []candidate, ok, corrupt bool) {
	pc.mu.Lock()
	v, ok := pc.m[string(key)]
	if ok && v.sum != cacheSum(string(key), v.cands) {
		delete(pc.m, string(key))
		pc.mu.Unlock()
		return nil, false, true
	}
	pc.mu.Unlock()
	return v.cands, ok, false
}

func (pc *pairCache) put(key []byte, cands []candidate) {
	// Copy: the caller's slice is re-sorted by the class-level conflict
	// resolution, which would scramble a shared backing array.
	cp := append([]candidate(nil), cands...)
	sum := cacheSum(string(key), cp)
	// Hazard site (chaos testing): seal the entry with a wrong digest, as a
	// bit flip in the stored candidates would. The next get detects it,
	// evicts, and the pair re-solves.
	if faultinject.Fire(faultinject.CacheDigest) {
		sum ^= 1
	}
	pc.mu.Lock()
	pc.m[string(key)] = cacheEntry{cands: cp, sum: sum}
	pc.mu.Unlock()
}

// repairState carries a worker's incremental Hopcroft–Karp repair chain
// (Options.RepairCutover): the retained bipartite arena plus the identity
// of the instance it last solved — the solve token the arena issued and the
// BuildSeq of the layered graph the instance came from. A solve whose
// layered graph was delta-built directly over that instance
// (DeltaInfo.BaseSeq matches) patches the retained CSR; everything else
// runs a full retained solve. Both paths return the bit-identical matching
// and phase count of a fresh HopcroftKarpScratch (Invariant 21), so the
// sweep's results are invariant under the worker count even though the
// chain itself is worker-local.
type repairState struct {
	hk *bipartite.Scratch
	// baseTok is the arena's SolveToken after the last retained solve;
	// baseSeq the BuildSeq of the layered build that solve's instance was
	// derived from. Both zero until the first retained solve.
	baseTok uint64
	baseSeq uint64
}

// solve runs the retained/repaired exact solver on the pair's bipartite
// view. The returned matching is arena-owned and valid only until the next
// solve on this worker — classAugmentations consumes it within the
// iteration.
func (rs *repairState) solve(lay *layered.Layered, bip *bipartite.Bip, cutover int, stats *Stats) (*graph.Matching, int) {
	if d := lay.Delta; d.Valid && rs.baseTok != 0 && d.BaseSeq == rs.baseSeq {
		// Default gate: patch whenever anything is shared — the E16 table
		// measured the patch-always extreme at or slightly ahead of
		// fraction gates on both shapes (the single-scan patch never costs
		// meaningfully more than prepare).
		min := cutover
		if min <= 0 {
			min = 1
		}
		if d.KeptLPrime >= min {
			info := bipartite.RepairInfo{
				BaseToken: rs.baseTok,
				KeptVerts: d.KeptIDs,
				KeptEdges: d.KeptLPrime,
			}
			// Hazard site (chaos testing): corrupt the kept-prefix
			// descriptor the way a damaged DeltaInfo would. RepairHK's
			// bounds check rejects it (ErrRepairInfo) before touching the
			// arena, so the fall-through below takes over.
			if faultinject.Fire(faultinject.RepairInfo) {
				info.KeptEdges = int(^uint32(0) >> 1)
			}
			if res, err := bipartite.RepairHK(bip, rs.hk, info); err == nil {
				stats.RepairSolves++
				stats.RepairEdgesKept += d.KeptLPrime
				rs.record(lay)
				return res.M, res.Phases
			}
			// Solve rung of the ladder: a rejected baseline (ErrRepair*,
			// real or injected) degrades to the full retained solve below,
			// never to a wrong matching or an error.
			stats.FallbackSolves++
		}
	}
	res := bipartite.HopcroftKarpRetained(bip, rs.hk)
	rs.record(lay)
	return res.M, res.Phases
}

func (rs *repairState) record(lay *layered.Layered) {
	rs.baseTok = rs.hk.SolveToken()
	rs.baseSeq = lay.BuildSeq()
}
