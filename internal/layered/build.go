package layered

import (
	"repro/internal/graph"
)

// Layered is the layered graph L(τA, τB, W, G_P) of Definition 4.10.
//
// Layered vertices use compact ids: only the (layer, vertex) copies incident
// to a surviving X or Y edge receive an id, assigned densely in edge
// discovery order. This shrinks every downstream array (bipartition sides,
// ML', Hopcroft–Karp state) from O((K+1)·n) to O(active vertices). Kept but
// isolated copies (free endpoints with no surviving incident edge) get no
// id; they cannot participate in any augmenting path. X edges live inside
// layers (copies of matched edges passing the τA filter); Y edges connect an
// R vertex of layer t to an L vertex of layer t+1 (unmatched edges passing
// the τB filter).
type Layered struct {
	Par *Parametrized
	Tau TauPair
	W   float64
	Prm Params

	// K is the number of Y layers; there are K+1 X layers.
	K int
	// NumV is the number of compact layered vertex ids.
	NumV int
	// X contains the surviving in-layer matched edges and Y the surviving
	// between-layer unmatched edges, both in compact layered ids with
	// original weights.
	X, Y []graph.Edge
	// InteriorX is the subset of X in layers 1..K-1 (0-indexed), i.e. the
	// matched edges that remain in L' after the first and last layers'
	// edges are dropped (Algorithm 4 line 4).
	InteriorX []graph.Edge

	// emptyGap records that some Y gap of this build holds no edge (see
	// EveryGapHasY).
	emptyGap bool

	// Delta describes the byte-shared prefix with the arena's previous
	// build when this Layered was assembled by BuildDelta (Valid = false on
	// from-scratch builds). Solver-side consumers key incremental state on
	// it; see DeltaInfo.
	Delta DeltaInfo

	// seq is the arena's build counter at this build; it identifies the
	// build among all builds on the same Scratch (BuildSeq).
	seq uint64

	// epoch is the view's round clock (IncView.RoundEpoch) at build time,
	// or 0 when the build read a BucketIndex. BuildDelta consults it to
	// decide whether a baseline from an earlier round can still anchor a
	// delta: a bucket unchanged since this epoch yields byte-identical kept
	// segments across the bipartition redraw.
	epoch uint64

	// vertOrig[id] and vertLayer[id] decode a compact id.
	vertOrig  []int32
	vertLayer []int32

	// idOf is the lazy inverse of (vertLayer, vertOrig), built on the first
	// ID call; the hot path never needs it.
	idOf map[int64]int32

	// scratch is the arena the Layered's storage lives in; Sides,
	// LPrimeEdges, MatchingLPrime and AugmentingWalks reuse its buffers.
	scratch *Scratch
}

// BuildSeq returns the arena build counter stamped on this Layered: every
// build (BuildIndexed or BuildDelta) on one Scratch gets the next value, so
// equal BuildSeq means the same build. Consumers chaining per-solve state
// across builds (the Hopcroft–Karp repair in core) compare it against
// DeltaInfo.BaseSeq to verify the baseline they retained is the one the
// delta was diffed against.
func (l *Layered) BuildSeq() uint64 { return l.seq }

// EveryGapHasY reports whether each of the K Y gaps holds at least one
// edge. Only then can L′ hold an augmenting path of ML′: interior layers
// keep only ML′-matched copies, so such a path runs from a free R copy of
// layer 0 to a free L copy of layer K, and Y edges join only consecutive
// layers, so it crosses every gap (Invariant 28). A build with an empty gap
// needs no solve.
func (l *Layered) EveryGapHasY() bool { return !l.emptyGap }

// Orig returns the original vertex of a compact layered id.
func (l *Layered) Orig(id int) int { return int(l.vertOrig[id]) }

// LayerOf returns the layer of a compact layered id.
func (l *Layered) LayerOf(id int) int { return int(l.vertLayer[id]) }

// ID returns the compact id of vertex v in layer t, or -1 when that layer
// copy has no surviving incident edge. Not safe for concurrent use (the
// inverse index is built lazily).
func (l *Layered) ID(t, v int) int {
	if l.idOf == nil {
		l.idOf = make(map[int64]int32, l.NumV)
		for id := 0; id < l.NumV; id++ {
			l.idOf[int64(l.vertLayer[id])*int64(l.Par.N)+int64(l.vertOrig[id])] = int32(id)
		}
	}
	id, ok := l.idOf[int64(t)*int64(l.Par.N)+int64(v)]
	if !ok {
		return -1
	}
	return int(id)
}

// Has reports whether the copy of v in layer t survives with at least one
// incident edge.
func (l *Layered) Has(t, v int) bool { return l.ID(t, v) >= 0 }

// Scratch is a reusable arena for the layered builds: the stamped dense id
// table and the edge/vertex slices that would otherwise be reallocated per
// (τA, τB) pair. Every Layered lives in an arena: it aliases the arena's
// storage and is valid only until the next build (BuildIndexed or
// BuildDelta) on the same Scratch. A Layered that must outlive a shared
// arena is built with a nil scratch, which gives it a private one. Both
// builders run one assembly routine, which truncates the arena to a kept
// prefix of the latest build (empty for BuildIndexed), rebuilds the rest
// and records the per-layer watermarks BuildDelta diffs against, so the
// arena's latest build is always a valid delta baseline and any earlier
// one is not: BuildDelta verifies the baseline is the latest build and
// returns ErrDeltaStale instead of silently reading overwritten storage.
// A Scratch is not safe for concurrent use; use one per worker.
type Scratch struct {
	// stamp versions the dense id table so it needs no per-build clearing.
	// BuildIndexed advances it every call; BuildDelta keeps it (reused
	// prefix entries must stay valid) and relies on array-validity checks
	// for staleness instead.
	stamp  uint32
	idMark []uint32 // dense (t·n+v): stamped when a compact id is assigned
	idAt   []int32  // dense: the compact id, valid when idMark is stamped

	// last is the Layered the latest build on this arena returned — the
	// only valid BuildDelta baseline (the staleness check: any earlier
	// build's storage has been overwritten).
	last *Layered

	// buildSeq counts builds on this arena (Layered.BuildSeq); sidesSeq and
	// lprimeSeq record which build's Sides / LPrimeEdges the reusable
	// buffers currently hold, so a delta build can keep the kept-prefix
	// entries instead of refilling them.
	buildSeq  uint64
	sidesSeq  uint64
	lprimeSeq uint64

	// Watermarks of the latest build, recorded so BuildDelta can truncate
	// the arena back to the segments shared with the previous pair:
	// layerIDEnd[t] / layerXEnd[t] / layerIXEnd[t] are the id / X-edge /
	// interior-X counts after X layers 0..t-1, gapYEnd[t] / gapIDEnd[t] the
	// Y-edge / id counts after Y gaps 0..t-1 (gapIDEnd[0] is the id count
	// when the X stage finished).
	layerIDEnd []int32
	layerXEnd  []int32
	layerIXEnd []int32
	gapYEnd    []int32
	gapIDEnd   []int32

	// tauBuf double-buffers arena-owned copies of the τ units of the two
	// most recent builds. A caller's TauPair routinely
	// aliases a pair-enumeration scratch whose storage is overwritten by
	// the NEXT enumeration — harmless while chains lived inside one
	// class-round, but a cross-round baseline (PR 7) outlives that arena,
	// and BuildDelta's keep loops compare prev.Tau byte-for-byte. Two slots
	// suffice: prev is always exactly the last build (the staleness check
	// guarantees it), so the current build writes the slot prev is not
	// reading from.
	tauBufA [2][]int
	tauBufB [2][]int
	tauFlip int

	vertOrig  []int32
	vertLayer []int32
	x, y, ix  []graph.Edge
	sides     []bool
	lprime    []graph.Edge
	mlp       *graph.Matching
	index     BucketIndex

	// augmenting-walk extraction buffers (walks.go).
	visited     []bool
	walkVerts   []int32
	walkMatched []bool
	walkWeights []graph.Weight
	walkOrig    []int

	// flattened Lemma 4.11 decomposition (walks.go).
	compV     []int
	compM     []bool
	compW     []graph.Weight
	compOff   []int
	compCycle []bool
	stackV    []int
	stackM    []bool
	stackW    []graph.Weight
}

// NewScratch returns an empty arena.
func NewScratch() *Scratch { return &Scratch{} }

// EnableDeltaBaseline does nothing: every build on a Scratch records the
// per-layer watermarks BuildDelta diffs against.
//
// Deprecated: there is no mode to enable; any build is a delta baseline
// until the next build on its arena.
func (s *Scratch) EnableDeltaBaseline() {}

// ownTau copies tau's unit vectors into arena-owned storage (see tauBuf):
// every build may serve as a delta baseline, so it must not retain the
// caller's slices, which typically belong to a reusable pair-enumeration
// scratch.
func (s *Scratch) ownTau(tau TauPair) TauPair {
	i := s.tauFlip & 1
	s.tauFlip++
	s.tauBufA[i] = append(s.tauBufA[i][:0], tau.AUnits...)
	s.tauBufB[i] = append(s.tauBufB[i][:0], tau.BUnits...)
	return TauPair{AUnits: s.tauBufA[i], BUnits: s.tauBufB[i]}
}

// Index re-buckets the arena's bucket index for (par, w) and returns it.
func (s *Scratch) Index(par *Parametrized, w float64, prm Params) *BucketIndex {
	s.index.Reset(par, w, prm)
	return &s.index
}

// next advances the stamp and sizes the dense table for sz entries.
func (s *Scratch) next(sz int) {
	if len(s.idMark) < sz {
		s.idMark = make([]uint32, sz)
		s.idAt = make([]int32, sz)
		s.stamp = 0
	}
	s.stamp++
	if s.stamp == 0 { // wrapped: old stamps could collide, clear the marks
		clear(s.idMark)
		s.stamp = 1
	}
}

// growDense widens the dense table to sz entries preserving its contents,
// so a delta build with more layers than its baseline keeps the reused
// prefix's id entries valid.
func (s *Scratch) growDense(sz int) {
	if len(s.idMark) >= sz {
		return
	}
	s.idMark = append(make([]uint32, 0, sz), s.idMark...)[:sz:sz]
	s.idAt = append(make([]int32, 0, sz), s.idAt...)[:sz:sz]
}

// sizeMarks sizes the watermark arrays for a build with k Y layers. The
// leading entries name the empty prefix, which every build may keep.
func (s *Scratch) sizeMarks(k int) {
	s.layerIDEnd = ensureLen32(s.layerIDEnd, k+2)
	s.layerXEnd = ensureLen32(s.layerXEnd, k+2)
	s.layerIXEnd = ensureLen32(s.layerIXEnd, k+2)
	s.gapYEnd = ensureLen32(s.gapYEnd, k+1)
	s.gapIDEnd = ensureLen32(s.gapIDEnd, k+1)
	s.layerIDEnd[0], s.layerXEnd[0], s.layerIXEnd[0], s.gapYEnd[0] = 0, 0, 0, 0
}

// ensureLen32 returns buf resized to n entries, preserving the prefix across
// reallocation (entries beyond the previous length are stale until written).
func ensureLen32(buf []int32, n int) []int32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	nb := make([]int32, n, n+4)
	copy(nb, buf)
	return nb
}

// Build constructs the layered graph for one good pair and weight W
// following Definition 4.10. It buckets the parametrized edges for W first;
// hot loops that try many pairs per class should bucket once via
// NewBucketIndex (or Scratch.Index) and call BuildIndexed.
func Build(par *Parametrized, tau TauPair, w float64, prm Params) *Layered {
	return BuildIndexed(NewBucketIndex(par, w, prm), tau, nil)
}

// BuildIndexed constructs the layered graph of Definition 4.10 from a
// pre-bucketed parametrization: edge filtering by τ windows first (a bucket
// lookup per layer), then the two-stage vertex filtering (intermediate
// layers keep only matched vertices; the first layer keeps a free R vertex
// only when it is free in M and τA_1 = 0, symmetrically for L vertices in
// the last layer). It advances the arena's stamp and runs the assembly
// routine BuildDelta shares with an empty kept prefix, so every Y gap is a
// scan of its τB bucket through the vertex filter — the reference the
// grouped Y tables of BuildDelta are held to. The build records the
// watermarks that let a BuildDelta on the same arena reuse its prefix.
// When s is non-nil its storage is reused and the returned Layered is
// valid only until the next build on s; a nil s builds on a private arena.
func BuildIndexed(ix Index, tau TauPair, s *Scratch) *Layered {
	if s == nil {
		s = NewScratch()
	}
	par := ix.Parametrization()
	s.next((tau.K() + 1) * par.N)
	var epoch uint64
	if v, ok := ix.(*IncView); ok {
		epoch = v.RoundEpoch()
	}
	return s.assemble(ix, nil, par, tau, ix.ClassWeight(), ix.Config(), epoch, 0, 0)
}

// assemble is the one body of both builders. It truncates the arena to the
// kept prefix of its latest build — the first px X layers, and the first q
// Y gaps when the whole X stage is kept (px = K+1; q is 0 otherwise) —
// rebuilds the X layers and then the Y gaps past it, and records the
// watermarks the next BuildDelta diffs against. The prefix's lengths become
// the Layered's DeltaInfo counts, all zero for an empty prefix. A rebuilt Y
// gap is one grouped lookup when grouped is non-nil (BuildDelta) and
// otherwise a scan of the gap's τB bucket through the Definition 4.10
// vertex filter, which is sound only on a freshly stamped arena with an
// empty kept prefix (BuildIndexed): every current id table entry is then
// one this build assigned.
func (s *Scratch) assemble(ix Index, grouped *IncView, par *Parametrized, tau TauPair,
	w float64, prm Params, epoch uint64, px, q int) *Layered {
	k, n := tau.K(), par.N
	s.sizeMarks(k)
	l := &Layered{Par: par, Tau: s.ownTau(tau), W: w, Prm: prm, K: k, epoch: epoch, scratch: s}
	s.buildSeq++
	l.seq = s.buildSeq
	s.last = l

	// Truncate to the kept prefix. The watermarks of the kept segments are
	// the baseline's, and the stages below only write entries past px / q.
	delta := &l.Delta
	delta.KeptXLayers, delta.KeptYGaps = px, q
	delta.KeptIDs, delta.KeptX, delta.KeptInteriorX = int(s.layerIDEnd[px]), int(s.layerXEnd[px]), int(s.layerIXEnd[px])
	if px == k+1 {
		delta.KeptIDs, delta.KeptY = int(s.gapIDEnd[q]), int(s.gapYEnd[q])
	}
	delta.KeptLPrime = delta.KeptInteriorX + delta.KeptY
	s.vertOrig, s.vertLayer = s.vertOrig[:delta.KeptIDs], s.vertLayer[:delta.KeptIDs]
	s.x, s.ix, s.y = s.x[:delta.KeptX], s.ix[:delta.KeptInteriorX], s.y[:delta.KeptY]

	// assign returns the compact id of the copy of v in layer t, creating it
	// unless the arena's current arrays already record one. Entries are
	// validated against the arrays as well as the stamp: a delta build keeps
	// the stamp and truncation discards suffix ids, so a stale entry either
	// points past the live arrays or at an id the rebuild reassigned to a
	// different copy.
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

	// X stage: matched-edge windows. X endpoints always pass the vertex
	// filter (they are matched within their layer), so their ids are final.
	for t := px; t <= k; t++ {
		if u := tau.AUnits[t]; u != 0 { // a zero window ((0−g)W, 0] holds no positive weight
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
	s.gapIDEnd[0] = s.layerIDEnd[k+1]

	// survives applies the Definition 4.10 vertex filter to the copy of v
	// in layer t. A copy carries an X edge of its layer exactly when the X
	// stage gave it an id (current mark, id below gapIDEnd[0]); otherwise
	// only the boundary layers' free-endpoint rules keep it.
	survives := func(t, v int) bool {
		d := t*n + v
		if s.idMark[d] == s.stamp && s.idAt[d] < s.gapIDEnd[0] {
			return true
		}
		switch t {
		case 0:
			// First layer: an R vertex with no X edge survives only when
			// free in M and τA_1 = 0. An L vertex with no X edge is
			// isolated (no Y edge reaches layer-0 L vertices).
			return par.Side[v] && !par.M.IsMatched(v) && tau.AUnits[0] == 0
		case k:
			// Last layer: symmetric with L vertices.
			return !par.Side[v] && !par.M.IsMatched(v) && tau.AUnits[k] == 0
		}
		return false // intermediate layers: unmatched-in-X vertices are removed
	}

	// Y stage: unmatched-edge windows, filtered by endpoint survival.
	for t := q; t < k; t++ {
		if grouped == nil {
			for _, e := range ix.B(tau.BUnits[t]) {
				// Orient from the R endpoint in layer t to the L endpoint
				// in layer t+1.
				r, lv := e.U, e.V
				if !par.Side[r] {
					r, lv = lv, r
				}
				if survives(t, r) && survives(t+1, lv) {
					s.y = append(s.y, graph.Edge{U: int(assign(t, r)), V: int(assign(t+1, lv)), W: e.W})
				}
			}
		} else {
			// One grouped lookup replaces the filtered scan: the group of
			// the two layers' matched units holds exactly the survivors,
			// oriented, in bucket order. Row 0 is the free R endpoints of
			// the first layer's τA = 0 rule, column FreeLBit the free L
			// endpoints of the last layer's; an interior τA = 0 layer
			// keeps no copy without an X edge.
			row, col := tau.AUnits[t], tau.AUnits[t+1]
			if col == 0 && t+1 == k {
				col = FreeLBit
			}
			if (row > 0 || t == 0) && col > 0 {
				for _, e := range grouped.YGroup(tau.BUnits[t], row, col) {
					s.y = append(s.y, graph.Edge{U: int(assign(t, e.U)), V: int(assign(t+1, e.V)), W: e.W})
				}
			}
		}
		s.gapYEnd[t+1] = int32(len(s.y))
		s.gapIDEnd[t+1] = int32(len(s.vertOrig))
	}
	for t := 0; t < k && !l.emptyGap; t++ {
		l.emptyGap = s.gapYEnd[t+1] == s.gapYEnd[t]
	}

	l.NumV = len(s.vertOrig)
	l.vertOrig, l.vertLayer = s.vertOrig, s.vertLayer
	l.X, l.Y, l.InteriorX = s.x, s.y, s.ix
	return l
}

// LPrimeEdges returns the edge set of L': the layered graph with the first
// and last layers' matched edges removed (Algorithm 4 line 4), i.e. the
// interior X edges plus all Y edges, in the arena's reusable buffer.
func (l *Layered) LPrimeEdges() []graph.Edge {
	s := l.scratch
	out := s.lprime[:0]
	// A delta build whose baseline filled this buffer keeps the shared
	// prefix in place: entries [0, KeptLPrime) are byte-identical by
	// DeltaInfo, so only the rebuilt suffix is recopied.
	if keep := l.Delta.KeptLPrime; l.Delta.Valid && s.lprimeSeq == l.Delta.BaseSeq && keep <= cap(out) {
		out = out[:keep]
		if keep <= len(l.InteriorX) {
			out = append(out, l.InteriorX[keep:]...)
			out = append(out, l.Y...)
		} else {
			out = append(out, l.Y[keep-len(l.InteriorX):]...)
		}
	} else {
		out = append(out, l.InteriorX...)
		out = append(out, l.Y...)
	}
	s.lprime = out
	s.lprimeSeq = l.seq
	return out
}

// SideOf returns the bipartition side of a layered vertex; layer copies
// inherit the side of the original vertex, which makes the layered graph
// bipartite (every X and Y edge crosses).
func (l *Layered) SideOf(id int) bool { return l.Par.Side[l.Orig(id)] }

// Sides materialises the side array over the compact ids in the arena's
// reusable buffer.
func (l *Layered) Sides() []bool {
	s := l.scratch
	if cap(s.sides) < l.NumV {
		s.sides = make([]bool, l.NumV)
		s.sidesSeq = 0 // fresh storage holds no baseline prefix
	}
	side := s.sides[:l.NumV]
	start := 0
	// A delta build whose baseline filled this buffer keeps the kept ids'
	// entries: ids [0, KeptIDs) decode identically, so their sides do too.
	if l.Delta.Valid && s.sidesSeq == l.Delta.BaseSeq {
		start = l.Delta.KeptIDs
	}
	for id := start; id < l.NumV; id++ {
		side[id] = l.SideOf(id)
	}
	s.sidesSeq = l.seq
	return side
}

// MatchingLPrime returns ML', the current matching restricted to L' (the
// interior X edges), over compact layered ids, in the arena's reusable
// matching.
func (l *Layered) MatchingLPrime() *graph.Matching {
	s := l.scratch
	if s.mlp == nil {
		s.mlp = graph.NewMatching(l.NumV)
	} else {
		s.mlp.Reset(l.NumV)
	}
	m := s.mlp
	for _, e := range l.InteriorX {
		// Interior X edges of one layer are a subset of a matching and
		// layers are vertex-disjoint, so Add cannot fail.
		if err := m.Add(e); err != nil {
			panic(err)
		}
	}
	return m
}
