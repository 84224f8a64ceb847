package layered

import (
	"errors"

	"repro/internal/faultinject"
)

// BuildDelta error conditions. All of them mean the caller broke the delta
// contract (prev must be the arena's live latest build over the same index
// state); the caller falls back to BuildIndexed.
var (
	// ErrDeltaNoBase: prev (or the scratch) is nil — there is nothing to
	// diff against; the first pair of a chain must use BuildIndexed.
	ErrDeltaNoBase = errors.New("layered: BuildDelta needs a previous scratch-backed build as baseline")
	// ErrDeltaScratch: prev was built on a different arena than s, or is a
	// copy that lives in no arena at all.
	ErrDeltaScratch = errors.New("layered: BuildDelta baseline belongs to a different scratch")
	// ErrDeltaStale: a later build already ran on the arena, overwriting the
	// storage prev aliases. Chaining deltas requires prev to be the arena's
	// latest build.
	ErrDeltaStale = errors.New("layered: BuildDelta baseline is stale (a later build reused its scratch)")
	// ErrDeltaMismatch: prev was built from a different class weight or
	// discretisation than the view currently describes, or from a different
	// parametrization the view's change clock cannot vouch for, so equal τ
	// units would not imply equal buckets.
	ErrDeltaMismatch = errors.New("layered: BuildDelta baseline was built from a different index state")
)

// DeltaInfo describes how a build relates to the build that preceded it on
// the same arena — the changed-suffix descriptor the solver-side repair
// (bipartite.RepairHK) consumes. The assembly routine both builders share
// fills the counts from the kept prefix it truncates the arena to, reading
// the lengths off the watermarks the baseline recorded. BuildDelta marks
// the result Valid; BuildIndexed, whose kept prefix is empty, leaves it
// zero (Valid = false). All counts are relative to the baseline build
// named by BaseSeq, and "kept" means byte-identical: the same edges with
// the same compact ids, at the same positions of the arena's slices
// (Invariant 19).
type DeltaInfo struct {
	// Valid reports that the build was assembled by BuildDelta from a live
	// baseline, so the remaining fields describe a real shared prefix.
	Valid bool
	// BaseSeq is the BuildSeq of the baseline build the prefix is shared
	// with. Consumers chaining state across solves must check it against
	// the BuildSeq of the instance they last processed: a build in between
	// (a probe-rejected or cache-served pair is not one — those never
	// build) breaks the correspondence.
	BaseSeq uint64
	// KeptXLayers is the number of leading X layers kept verbatim (the
	// first rebuilt X-layer index); KeptYGaps the number of leading Y gaps
	// kept, which is non-zero only when the whole X stage was kept.
	KeptXLayers, KeptYGaps int
	// KeptIDs: compact ids [0, KeptIDs) decode identically in the baseline
	// and this build, and every edge of the kept prefixes below has both
	// endpoints under it.
	KeptIDs int
	// KeptX, KeptInteriorX, KeptY are the byte-shared prefix lengths of the
	// X / InteriorX / Y slices.
	KeptX, KeptInteriorX, KeptY int
	// KeptLPrime is the byte-shared prefix length of the L' edge list
	// (InteriorX followed by Y, the LPrimeEdges concatenation): the whole
	// InteriorX plus KeptY when the X stage was fully kept, KeptInteriorX
	// otherwise.
	KeptLPrime int
}

// BuildDelta constructs the layered graph of Definition 4.10 for tau by
// patching the arena state left behind by prev — the immediately preceding
// build on s over the same class view — instead of reconstructing every
// layer. It computes the kept prefix: the leading X layers whose τA units
// are unchanged and, when the whole τA vector is unchanged, the leading Y
// gaps with unchanged τB units. It then runs the assembly routine
// BuildIndexed runs with an empty prefix: the arena is truncated back to
// the prefix, whose edge segments and compact ids stay verbatim, and the
// rest is rebuilt on the arena's dense id table without restamping it, so
// reused copies keep their exact compact ids. Every rebuilt Y gap is one
// grouped lookup (IncView.YGroup) that returns exactly its surviving
// edges, where BuildIndexed scans the gap's τB bucket through the vertex
// filter. The result is bit-identical to BuildIndexed(ix, tau, s) — same
// X/Y/InteriorX sequences, same ids — which the differential suite
// (TestBuildDeltaMatchesBuildIndexed, FuzzBuildDelta) asserts across every
// generator family.
//
// The baseline may come from an earlier round — a different parametrization
// of the same graph (PR 7): each kept segment then additionally requires
// its bucket unchanged since the baseline's build epoch (the view's change
// clock, AStableSince/YStableSince), and unstable segments shrink the kept
// prefix (possibly to nothing, a full in-place rebuild) rather than
// erroring, so the chain survives the bipartition redraw without ever
// tripping the fallback rungs on a healthy run.
//
// cutover is the chaining gate: when fewer than cutover segments (X layers
// plus kept Y gaps) are reusable, the whole graph is rebuilt from scratch
// (reused = 0) rather than paying the diff bookkeeping; cutover ≤ 1 chains
// whenever anything is reusable.
//
// reused counts the segments carried over unchanged (Stats.DeltaLayersReused).
// A non-nil error means prev is not a valid baseline (see the ErrDelta*
// conditions); the arena is left untouched and the caller should build via
// BuildIndexed instead.
func BuildDelta(ix *IncView, prev *Layered, tau TauPair, s *Scratch, cutover int) (l *Layered, reused int, err error) {
	if prev == nil || s == nil {
		return nil, 0, ErrDeltaNoBase
	}
	// Hazard site (chaos testing): report the baseline stale before any
	// arena state is touched, exactly as a real staleness check would.
	if faultinject.Fire(faultinject.DeltaStale) {
		return nil, 0, ErrDeltaStale
	}
	if prev.scratch != s {
		return nil, 0, ErrDeltaScratch
	}
	if prev != s.last {
		return nil, 0, ErrDeltaStale
	}
	par, w, prm := ix.Parametrization(), ix.ClassWeight(), ix.Config()
	if prev.W != w || prev.Prm != prm {
		return nil, 0, ErrDeltaMismatch
	}
	// cross marks the cross-round path: the baseline was built from an
	// earlier round's parametrization, and the view's change clock must
	// vouch for every kept segment individually. Note the asymmetry with the
	// same-round path: an unstable bucket is not an error — the segment is
	// simply not kept (px/q stop growing, down to a full in-place rebuild),
	// so a healthy run never touches the fallback rungs.
	cross := prev.Par != par
	if cross {
		if prev.epoch == 0 || prev.Par == nil || prev.Par.N != par.N || ix.RoundEpoch() < prev.epoch {
			return nil, 0, ErrDeltaMismatch
		}
		// Hazard site (chaos testing): sever the cross-round chain link —
		// report the baseline stale as a failed epoch validation would. The
		// caller falls back to BuildIndexed, restarting the chain
		// round-locally, bit-identically.
		if faultinject.Fire(faultinject.ChainLink) {
			return nil, 0, ErrDeltaStale
		}
	}

	k, kp := tau.K(), prev.K
	s.growDense((k + 1) * par.N)

	// px is the number of X layers kept from prev (their τA units match and
	// their boundary/interior status is identical in both builds: layers
	// 0..min(k, kp)−1 are interior-or-first in both, and the full vector
	// keeps the last layer too). q is the number of Y gaps kept, which
	// additionally requires the X stage to be byte-identical (gap edges and
	// their fresh ids depend on the whole X id assignment). Across a round
	// boundary each kept segment further requires its bucket unchanged since
	// the baseline's epoch (a τA = 0 layer holds no bucket content, so unit
	// equality alone suffices there).
	stableX := func(t int) bool {
		u := tau.AUnits[t]
		return !cross || u == 0 || ix.AStableSince(u, prev.epoch)
	}
	px, q := 0, 0
	maxP := min(k, kp)
	for px < maxP && prev.Tau.AUnits[px] == tau.AUnits[px] && stableX(px) {
		px++
	}
	if k == kp && px == k && prev.Tau.AUnits[k] == tau.AUnits[k] && stableX(k) {
		px = k + 1
		for q < k && prev.Tau.BUnits[q] == tau.BUnits[q] &&
			(!cross || ix.YStableSince(tau.BUnits[q], prev.epoch)) {
			q++
		}
	}
	if px+q < cutover {
		px, q = 0, 0
	}

	// The arena's stamp is NOT advanced: kept copies keep their table
	// entries (and so their ids), discarded ones fail assemble's array
	// check, and every rebuilt Y gap is read from the grouped tables.
	// assemble fills the kept prefix's lengths into l.Delta; marking it
	// valid surfaces the changed-suffix descriptor for the solver-side
	// repair.
	l = s.assemble(ix, ix, par, tau, w, prm, ix.RoundEpoch(), px, q)
	l.Delta.Valid, l.Delta.BaseSeq = true, prev.seq
	return l, px + q, nil
}
