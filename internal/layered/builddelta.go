package layered

import (
	"errors"

	"repro/internal/faultinject"
	"repro/internal/graph"
)

// BuildDelta error conditions. All of them mean the caller broke the delta
// contract (prev must be the arena's live latest build over the same index
// state); the caller falls back to BuildIndexed.
var (
	// ErrDeltaNoBase: prev (or the scratch) is nil — there is nothing to
	// diff against; the first pair of a chain must use BuildIndexed.
	ErrDeltaNoBase = errors.New("layered: BuildDelta needs a previous scratch-backed build as baseline")
	// ErrDeltaDetached: prev was Detach()ed. A detached Layered is a copied
	// snapshot, not a live view of the arena, so diffing against it would
	// not describe the arena's current contents.
	ErrDeltaDetached = errors.New("layered: BuildDelta baseline was detached from its scratch")
	// ErrDeltaScratch: prev was built on a different arena than s.
	ErrDeltaScratch = errors.New("layered: BuildDelta baseline belongs to a different scratch")
	// ErrDeltaStale: a later build already ran on the arena, overwriting the
	// storage prev aliases. Retaining a Layered across builds requires
	// Detach(); chaining deltas requires prev to be the latest build.
	ErrDeltaStale = errors.New("layered: BuildDelta baseline is stale (a later build reused its scratch)")
	// ErrDeltaMismatch: prev was built from a different class weight or
	// discretisation than the view currently describes, or from a different
	// parametrization the view's change clock cannot vouch for, so equal τ
	// units would not imply equal buckets.
	ErrDeltaMismatch = errors.New("layered: BuildDelta baseline was built from a different index state")
)

// DeltaInfo describes how a build relates to the build that preceded it on
// the same arena — the changed-suffix descriptor the solver-side repair
// (bipartite.RepairHK) consumes. BuildDelta fills it from the kept-prefix
// watermarks it already maintains; from-scratch builds leave it zero
// (Valid = false). All counts are relative to the baseline build named by
// BaseSeq, and "kept" means byte-identical: the same edges with the same
// compact ids, at the same positions of the arena's slices (Invariant 19).
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
// layer: the leading X layers whose τA units are unchanged keep their edge
// segments and compact ids verbatim (the arena is truncated back to the
// first changed layer, not rebuilt), and when the whole τA vector is
// unchanged the leading Y gaps with unchanged τB units are kept too. The
// rebuilt suffix reuses the arena's dense id tables without restamping, so
// reused copies keep their exact compact ids, and every rebuilt Y gap is one
// grouped lookup (IncView.YGroup) that returns exactly its surviving edges.
// The result is bit-identical to BuildIndexed(ix, tau, s) — same
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
	if prev.scratch == nil {
		return nil, 0, ErrDeltaDetached
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
	n := par.N
	s.growDense((k + 1) * n)

	// px is the number of X layers kept from prev (their τA units match and
	// their boundary/interior status is identical in both builds: layers
	// 0..min(k, kp)−1 are interior-or-first in both, and the full vector
	// keeps the last layer too). q is the number of Y gaps kept, which
	// additionally requires the X stage to be byte-identical (gap edges and
	// their fresh ids depend on the whole X id assignment). Across a round
	// boundary each kept segment further requires its bucket unchanged since
	// the baseline's epoch (a τA = 0 layer holds no bucket content, so unit
	// equality alone suffices there).
	px, q := 0, 0
	if s.marksValid { // a baseline built without watermarks offers no prefix
		stableX := func(t int) bool {
			u := tau.AUnits[t]
			return !cross || u == 0 || ix.AStableSince(u, prev.epoch)
		}
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
	}
	if px+q < cutover {
		px, q = 0, 0
	}
	reused = px + q

	s.recMarks = true // chaining implies the next baseline needs marks too
	s.layerIDEnd = ensureLen32(s.layerIDEnd, k+2)
	s.layerXEnd = ensureLen32(s.layerXEnd, k+2)
	s.layerIXEnd = ensureLen32(s.layerIXEnd, k+2)
	s.gapYEnd = ensureLen32(s.gapYEnd, k+1)
	s.gapIDEnd = ensureLen32(s.gapIDEnd, k+1)

	l = &Layered{Par: par, Tau: s.ownTau(tau), W: w, Prm: prm, K: k, scratch: s, epoch: ix.RoundEpoch()}
	baseSeq := prev.seq
	s.buildSeq++
	l.seq = s.buildSeq
	s.last = l

	// assign returns the compact id of the copy of v in layer t, creating it
	// unless the arena's current arrays already record one. Entries are
	// validated against the arrays rather than a fresh stamp: truncation
	// discards suffix ids, so a stale table entry either points past the
	// live arrays or at an id the rebuild reassigned to a different copy.
	assign := func(t, v int) int32 {
		d := t*n + v
		if s.idMark[d] == s.stamp {
			id := s.idAt[d]
			if int(id) < len(s.vertOrig) && s.vertLayer[id] == int32(t) && s.vertOrig[id] == int32(v) {
				return id
			}
		}
		id := int32(len(s.vertOrig))
		s.idMark[d] = s.stamp
		s.idAt[d] = id
		s.vertOrig = append(s.vertOrig, int32(v))
		s.vertLayer = append(s.vertLayer, int32(t))
		return id
	}

	if px == k+1 {
		// Whole X stage kept: truncate back to the last kept gap.
		s.vertOrig = s.vertOrig[:s.gapIDEnd[q]]
		s.vertLayer = s.vertLayer[:s.gapIDEnd[q]]
		s.y = s.y[:s.gapYEnd[q]]
	} else {
		// Truncate to the kept X prefix and rebuild layers px..k. The
		// arena's stamp is NOT advanced: kept copies keep their table
		// entries (and so their ids), discarded ones fail the array check.
		if px == 0 { // watermarks may be unrecorded on this path
			s.layerIDEnd[0], s.layerXEnd[0], s.layerIXEnd[0] = 0, 0, 0
		}
		s.vertOrig = s.vertOrig[:s.layerIDEnd[px]]
		s.vertLayer = s.vertLayer[:s.layerIDEnd[px]]
		s.x = s.x[:s.layerXEnd[px]]
		s.ix = s.ix[:s.layerIXEnd[px]]
		s.y = s.y[:0]
		q = 0
		for t := px; t <= k; t++ {
			u := tau.AUnits[t]
			if u != 0 {
				for _, e := range ix.A(u) {
					le := graph.Edge{U: int(assign(t, e.U)), V: int(assign(t, e.V)), W: e.W}
					s.x = append(s.x, le)
					if t >= 1 && t <= k-1 {
						s.ix = append(s.ix, le)
					}
				}
			}
			s.layerIDEnd[t+1] = int32(len(s.vertOrig))
			s.layerXEnd[t+1] = int32(len(s.x))
			s.layerIXEnd[t+1] = int32(len(s.ix))
		}
		s.gapIDEnd[0] = int32(len(s.vertOrig))
		s.gapYEnd[0] = 0
	}

	// Y stage: one grouped lookup per rebuilt gap replaces the filtered
	// bucket scan — the group holds exactly the survivors, in bucket order.
	for t := q; t < k; t++ {
		row, col := -1, -1
		switch {
		case tau.AUnits[t] > 0:
			row = tau.AUnits[t]
		case t == 0:
			row = 0 // free R endpoints, the first-layer τA = 0 rule
		}
		switch {
		case tau.AUnits[t+1] > 0:
			col = tau.AUnits[t+1]
		case t+1 == k:
			col = FreeLBit // free L endpoints, the last-layer rule
		}
		if row >= 0 && col >= 0 {
			for _, e := range ix.YGroup(tau.BUnits[t], row, col) {
				s.y = append(s.y, graph.Edge{U: int(assign(t, e.U)), V: int(assign(t+1, e.V)), W: e.W})
			}
		}
		s.gapYEnd[t+1] = int32(len(s.y))
		s.gapIDEnd[t+1] = int32(len(s.vertOrig))
	}

	s.marksValid = true
	l.NumV = len(s.vertOrig)
	l.vertOrig, l.vertLayer = s.vertOrig, s.vertLayer
	l.X, l.Y, l.InteriorX = s.x, s.y, s.ix

	// Surface the changed-suffix descriptor for the solver-side repair. The
	// watermark entries of the kept prefix survive the rebuild (the stages
	// above only write entries past px / q), so they still name the
	// baseline's — and hence the shared — prefix lengths.
	l.Delta = DeltaInfo{Valid: true, BaseSeq: baseSeq, KeptXLayers: px, KeptYGaps: q, KeptIDs: int(s.layerIDEnd[px])}
	if px == k+1 {
		l.Delta.KeptIDs = int(s.gapIDEnd[q])
		l.Delta.KeptX = len(s.x)
		l.Delta.KeptInteriorX = len(s.ix)
		l.Delta.KeptY = int(s.gapYEnd[q])
		l.Delta.KeptLPrime = len(s.ix) + int(s.gapYEnd[q])
	} else {
		l.Delta.KeptX = int(s.layerXEnd[px])
		l.Delta.KeptInteriorX = int(s.layerIXEnd[px])
		l.Delta.KeptLPrime = int(s.layerIXEnd[px])
	}
	return l, reused, nil
}
