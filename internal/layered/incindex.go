package layered

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/graph"
)

// ErrBeginRoundBusy: BeginRound was entered while another BeginRound on the
// same index was still running (concurrent or re-entrant use, which the type
// contract forbids). The entering call performed no mutation — the dirty
// digest, masks, and matched list are whatever the running call leaves —
// so the caller can absorb the sentinel through the degradation ladder's
// reset rung (core counts it in Stats.FallbackResets and rebuilds the
// amortised context) instead of risking a silently corrupted round setup.
var ErrBeginRoundBusy = errors.New("layered: concurrent or re-entrant IncIndex.BeginRound")

// IncIndex is the amortised form of the per-(round, class) BucketIndex
// rebuild: one edge-indexed structure owned by a whole Solve run. The
// expensive parts of bucketing — the per-edge floating-point window
// arithmetic and the per-class edge rescans — depend only on the static
// edge weights and the slowly-changing matched status, so they are computed
// once (unmatched windows) or maintained by matched/unmatched deltas
// (matched windows) instead of being redone for every (round, class):
//
//   - bSlots: for every graph edge, the classes whose unmatched window
//     [u·gW, (u+1)·gW) contains its weight with u in [2, maxU] — the only
//     units a good τB entry can name (Table 1 requires τB ≥ 2g). Computed
//     once per Solve; for weights in a bounded range each edge is live in
//     only the O(log) classes within a constant factor of its weight.
//   - matched list: the current matching's edges in the matching's order
//     (ascending smaller endpoint), each carrying its per-class τA units.
//     BeginRound merge-diffs it against the round's matching, recomputing
//     window arithmetic only for edges whose matched status changed.
//   - per-round populated-unit masks, survival probe rows and lazily
//     materialised buckets: the bipartition is redrawn every round, so
//     crossing status is the one per-edge input that cannot be amortised;
//     BeginRound folds it into per-class unit bitmasks and every class's
//     probe rows with a single integer pass over the live slots, and
//     A(u)/B(u) buckets materialise on first use by a pair (the B buckets
//     from the per-edge liveness that pass stores).
//
// Every materialised bucket reproduces the BucketIndex edge sequence
// bit-for-bit (same content, same order), so a Solve run over an IncIndex
// returns exactly the matching the naive path returns for a fixed seed; the
// differential suite and FuzzIncrementalIndex assert this. The only
// deliberate divergences are the units the enumeration can never query:
// IncView.A(0) and IncView.B(0), IncView.B(1) are empty (BuildIndexed skips
// τA = 0 layers and Table 1 forbids τB < 2g), so bMask lacks bits 0 and 1.
//
// The index exists only at granularity 1/62 or coarser (maxU < FreeLBit,
// see CanIndexIncrementally): every per-unit table is one 64-bit word wide,
// so the masks, the survival probe, the grouped Y tables and BuildDelta
// all run on every index there is, with no finer-grained fallback.
//
// An IncIndex is not safe for concurrent BeginRound use; within one round,
// distinct class views may be used from distinct goroutines (all per-class
// state is class-private and the shared round state — the masks, the
// per-vertex survival table and the probe rows — is written only by
// BeginRound and read-only after it).
type IncIndex struct {
	n     int
	edges []graph.Edge
	ws    []float64
	prm   Params
	maxU  int

	// bSlots, flattened: edge i is live for classes
	// bStart[i] .. bStart[i]+bLen[i]-1 with units
	// bUnits[bOff[i] : bOff[i]+bLen[i]]. Bands are edit-friendly (PR 8):
	// a reweight abandons its old bUnits segment and appends a fresh one,
	// so bOff is not monotone after edits; bDead counts abandoned slots and
	// maybeCompactBands reclaims them once they dominate.
	bOff    []int32
	bStart  []int32
	bLen    []int32
	bUnits  []uint8
	bDead   int
	bandBuf []uint8 // scratch for bandOf
	// bAll[c][u] lists the edge indices (ascending) whose class-c unmatched
	// unit is u; the static superset the per-round B buckets filter. Edits
	// keep the ascending order (bucket order is edge-index order, the order
	// a fresh index reproduces).
	bAll [][][]int32

	// matched is the delta-maintained matched-edge list in the matching's
	// order (ascending smaller endpoint; each vertex has one mate, so the
	// order is total). units[c] is the class-c τA unit; the per-class units of an
	// edge form a prefix of the class list because class weights descend.
	matched []matchedEdge
	swap    []matchedEdge // ping-pong buffer for the merge-diff

	// Per-round state, versioned by stamp (wrap clears everything). The
	// masks hold bit u when the class's unit-u window has a crossing edge
	// (aMask also bit 0, the τA = 0 free marker).
	stamp uint32
	par   *Parametrized
	aMask []uint64
	bMask []uint64

	// busy guards BeginRound against concurrent or re-entrant entry: the
	// cheap CAS twin of the ErrDeltaStale idiom. Views stay lock-free — only
	// the round setup is exclusive.
	busy atomic.Uint32

	// Cross-round change clock (PR 7): epoch counts BeginRound calls
	// monotonically (uint64 — unlike stamp it never wraps, so comparisons
	// spanning arbitrarily many rounds stay sound), and the Chg tables
	// record, per bucket or vertex, the epoch of its last relevant change.
	// BuildDelta keeps a segment across a bipartition redraw exactly when
	// its bucket's change epoch is at or before the baseline's build epoch.
	//
	//   - aChg[c][u]: last change to the (class c, unit u) τA bucket —
	//     membership (an edge entered/left the matching or flipped crossing
	//     status), an entry's weight, or the orientation (endpoint sides) of
	//     a member. Orientation matters because kept X layers also keep the
	//     baseline's side entries (Layered.Sides' kept-prefix reuse).
	//   - yChg[c][u]: last membership or orientation change to the (class c,
	//     unit u) τB bucket, maintained from the per-edge ePrev diff.
	//   - vChg[v]: last change to vertex v's survival classification inputs
	//     (matched status, matched-edge identity/weight, or the crossing
	//     status of its matched edge) — class-independent and conservative:
	//     one bump covers every class, trading reuse for O(1) bookkeeping.
	epoch uint64
	aChg  [][]uint64
	yChg  [][]uint64
	vChg  []uint64
	// ePrev[i] is edge i's τB-relevant state as of the last BeginRound that
	// saw it in a band: bit 0 set when the edge was live (crossing and
	// unmatched), bit 1 its U endpoint's side. The crossing pass diffs the
	// round against it — a liveness or (live) orientation flip bumps yChg
	// for every (class, unit) slot of the edge — and stores the round's
	// state, so once BeginRound has run, bit 0 of every edge with a band is
	// this round's liveness, which bLive reads. An edge with no band keeps
	// a stale byte, but it is in no bAll list, and the first round after a
	// reweight gives it a band refreshes the byte before any bucket reads it.
	ePrev []uint8

	// Round-scoped dirty-class gate: dirty[c] is true when class c's τ
	// windows contain at least one crossing edge this round. Clean classes
	// keep the empty-window masks and provably enumerate zero surviving
	// pairs, so core.Runner skips them wholesale (Stats.ClassesSkippedDirty).
	dirty    []bool
	dirtySum uint64  // digest over (stamp, dirty[]) sealed by BeginRound
	dDiff    []int32 // class-range diff array for the dirty marking
	crossB   []int32 // crossing unmatched live edge indices, one round pass

	// Grouped Y tables (IncView.YGroup): per (class, τB unit), the bucket's
	// crossing edges partitioned by the survival classification of their
	// endpoints, lazily materialised per round — except that a partition
	// whose inputs are unchanged since it was last built (ygEpoch at or
	// after the bucket's effective change epoch, see yEffEpoch) is
	// revalidated across the round boundary instead of rebuilt: the
	// survival tables are keyed by crossing-status deltas rather than by
	// round. The (class, unit) probe rows below hold exactly the
	// partition's non-empty (row, col) cells, so they are its index: the
	// groups are stored in key order and a group's position is a rank over
	// the rows' set bits (ygPart), with no hash table.
	ygStamp [][]uint32
	ygEpoch [][]uint64
	yg      [][]ygPart
	// ygRank[c] is ensureYGroups' per-edge group rank scratch for class c
	// (-1 for a dead edge): the count pass classifies each bucket edge once
	// and the fill pass reads the ranks back. It is per class because class
	// views run concurrently.
	ygRank [][]int32

	// ysStamp/ysEff memoise yEffEpoch per (class, unit) within a round: the
	// max over the bucket's yChg and its in-window edges' endpoint vChg.
	ysStamp [][]uint32
	ysEff   [][]uint64

	// Lazily materialised buckets and their content digests. A B bucket is
	// one pass over its bAll list that keeps the edges ePrev marks live, so
	// it reads nothing BeginRound has not already derived this round. The
	// digests have their own stamps because they are computed only when a
	// PairKey first reads them (cache-disabled runs never pay the
	// digesting), and cost one multiply-and-rotate step per edge word
	// (digestEdge).
	aStamp  [][]uint32
	bStamp  [][]uint32
	aBuf    [][][]graph.Edge
	bBuf    [][][]graph.Edge
	adStamp [][]uint32
	bdStamp [][]uint32
	aDig    [][]uint64
	bDig    [][]uint64

	// vm classifies every vertex for Definition 4.10's vertex filter this
	// round, for all classes at once: vmFree, vmDead (matched by an edge
	// that does not cross), or 1 + the matched-list index of its crossing
	// matched edge, whose unit prefix gives the vertex's τA unit per class
	// (see survivor). Rebuilt by every BeginRound. freeR and freeL are the
	// per-class units of a free R endpoint (0, the first layer's τA = 0
	// rule) and a free L endpoint (FreeLBit, the last layer's).
	vm           []int32
	freeR, freeL []uint8

	// Probe rows, per (class, τB unit): pRows[c][u][ra] is a bitset over
	// the τA units la such that some unit-u unmatched crossing edge runs
	// from an R endpoint of matched unit ra to an L endpoint of matched
	// unit la. Row 0 collects edges whose R endpoint is free (the τA = 0
	// first-layer rule) and bit freeLBit the ones whose L endpoint is free
	// (the last-layer rule), so one AND answers "would layer t contribute a
	// Y edge" for any pair. BeginRound's crossing pass is their only
	// writer, and rows are current only while prStamp equals the round
	// stamp: a (class, unit) no surviving crossing edge reached this round
	// reads zeroRows instead (probeRows). The grouped Y tables read them as
	// their index.
	prStamp  [][]uint32
	pRows    [][][]uint64
	zeroRows []uint64

	views []IncView
}

// freeLBit marks "L endpoint free" in a probe row; unit bits occupy
// 0..maxU, so the index requires maxU < freeLBit (CanIndexIncrementally).
const freeLBit = 63

// Per-vertex survival classes of IncIndex.vm; positive entries name a
// crossing matched edge. vmFree is the zero value, so clearing the table
// marks every vertex free.
const (
	vmFree int32 = 0
	vmDead int32 = -1
)

type matchedEdge struct {
	e     graph.Edge // canonical U < V, weight from the matching
	units []uint8    // units[c] = class-c τA unit; live classes are a prefix
	// cross and sideU are the edge's crossing status and U-endpoint side as
	// of the last BeginRound — the previous-round state the cross-round
	// change clock diffs against (a crossing flip changes A-bucket
	// membership and endpoint classification; an orientation flip changes
	// the kept side entries). Fresh entries start false and are set by the
	// crossing pass of the round that admits them.
	cross bool
	sideU bool
}

// CanIndexIncrementally reports whether the discretisation fits the
// incremental index: maxU < FreeLBit, granularity 1/62 or coarser, where
// every unit is a bit of the one-word masks, probe rows and grouped Y keys
// (and fits the uint8 unit slots). Finer discretisations run the naive
// BucketIndex path.
func CanIndexIncrementally(prm Params) bool {
	maxU, _ := prm.WithDefaults().Units()
	return maxU < freeLBit
}

// NewIncIndex builds the static half of the index for the given class
// weights (descending, as ClassWeights returns them) and discretisation,
// which must satisfy CanIndexIncrementally (NewIncIndex panics otherwise:
// a unit past the bit tables would not fail loudly, it would collide with
// the free-L marker).
// The edge slice is aliased and must not change during the index's life
// except through the edit protocol (BeginEdits/Note*/EndEdits, which
// re-alias the post-edit slice); the reduction itself never mutates the
// graph mid-Solve.
func NewIncIndex(n int, edges []graph.Edge, ws []float64, prm Params) *IncIndex {
	prm = prm.WithDefaults()
	maxU, _ := prm.Units()
	if maxU >= freeLBit {
		panic("layered: granularity too fine for IncIndex (gate on CanIndexIncrementally)")
	}
	x := &IncIndex{n: n, edges: edges, ws: ws, prm: prm, maxU: maxU}

	x.bOff = make([]int32, len(edges))
	x.bStart = make([]int32, len(edges))
	x.bLen = make([]int32, len(edges))
	x.bAll = make([][][]int32, len(ws))
	for c := range x.bAll {
		x.bAll[c] = make([][]int32, maxU+1)
	}
	for i, e := range edges {
		start, units := x.bandOf(e.W)
		x.bOff[i] = int32(len(x.bUnits))
		x.bStart[i] = start
		x.bLen[i] = int32(len(units))
		x.bUnits = append(x.bUnits, units...)
		for k, u := range units {
			x.bAll[int(start)+k][u] = append(x.bAll[int(start)+k][u], int32(i))
		}
	}

	x.aMask = make([]uint64, len(ws))
	x.bMask = make([]uint64, len(ws))
	x.aStamp = make([][]uint32, len(ws))
	x.bStamp = make([][]uint32, len(ws))
	x.aBuf = make([][][]graph.Edge, len(ws))
	x.bBuf = make([][][]graph.Edge, len(ws))
	x.adStamp = make([][]uint32, len(ws))
	x.bdStamp = make([][]uint32, len(ws))
	x.aDig = make([][]uint64, len(ws))
	x.bDig = make([][]uint64, len(ws))
	x.vm = make([]int32, n)
	x.freeR = make([]uint8, len(ws))
	x.freeL = make([]uint8, len(ws))
	for c := range x.freeL {
		x.freeL[c] = freeLBit
	}
	x.prStamp = make([][]uint32, len(ws))
	x.pRows = make([][][]uint64, len(ws))
	x.zeroRows = make([]uint64, maxU+1)
	x.dirty = make([]bool, len(ws))
	x.dDiff = make([]int32, len(ws)+1)
	x.ygStamp = make([][]uint32, len(ws))
	x.ygEpoch = make([][]uint64, len(ws))
	x.yg = make([][]ygPart, len(ws))
	x.ygRank = make([][]int32, len(ws))
	x.aChg = make([][]uint64, len(ws))
	x.yChg = make([][]uint64, len(ws))
	x.ysStamp = make([][]uint32, len(ws))
	x.ysEff = make([][]uint64, len(ws))
	x.vChg = make([]uint64, n)
	x.ePrev = make([]uint8, len(edges))
	for c := range ws {
		x.aStamp[c] = make([]uint32, maxU+1)
		x.bStamp[c] = make([]uint32, maxU+1)
		x.aBuf[c] = make([][]graph.Edge, maxU+1)
		x.bBuf[c] = make([][]graph.Edge, maxU+1)
		x.adStamp[c] = make([]uint32, maxU+1)
		x.bdStamp[c] = make([]uint32, maxU+1)
		x.aDig[c] = make([]uint64, maxU+1)
		x.bDig[c] = make([]uint64, maxU+1)
		x.prStamp[c] = make([]uint32, maxU+1)
		x.pRows[c] = make([][]uint64, maxU+1)
		x.ygStamp[c] = make([]uint32, maxU+1)
		x.ygEpoch[c] = make([]uint64, maxU+1)
		x.yg[c] = make([]ygPart, maxU+1)
		x.aChg[c] = make([]uint64, maxU+1)
		x.yChg[c] = make([]uint64, maxU+1)
		x.ysStamp[c] = make([]uint32, maxU+1)
		x.ysEff[c] = make([]uint64, maxU+1)
	}
	x.views = make([]IncView, len(ws))
	for c := range x.views {
		x.views[c] = IncView{ix: x, c: c}
	}
	return x
}

// Classes returns the number of class weights the index covers.
func (x *IncIndex) Classes() int { return len(x.ws) }

// aUnitsOf computes the per-class τA units of a matched edge of weight w:
// ceil(w/(gW)) is nondecreasing as W descends, so the live classes (unit in
// [1, maxU]; unit ≥ 1 always holds for positive weights) are a prefix.
func (x *IncIndex) aUnitsOf(w graph.Weight, buf []uint8) []uint8 {
	buf = buf[:0]
	if w <= 0 {
		// Non-positive matched weights land in unit ≤ 0 for every class;
		// BuildIndexed skips τA = 0 layers, so they are dead everywhere.
		return buf
	}
	for _, cw := range x.ws {
		u := int(math.Ceil(float64(w) / (x.prm.Granularity * cw)))
		if u > x.maxU {
			break
		}
		buf = append(buf, uint8(u))
	}
	return buf
}

// bandOf computes the contiguous live-class band of an unmatched edge of
// weight w: floor(w/(gW)) is nondecreasing as W descends, so the classes
// whose unmatched window holds the weight with unit in [2, maxU] form one
// run. start is the first live class (-1 for an empty band); units aliases
// the index's scratch buffer and is valid until the next bandOf call.
func (x *IncIndex) bandOf(w graph.Weight) (start int32, units []uint8) {
	x.bandBuf = x.bandBuf[:0]
	start = -1
	for c, cw := range x.ws {
		u := int(math.Floor(float64(w) / (x.prm.Granularity * cw)))
		if u < 2 {
			continue
		}
		if u > x.maxU {
			break
		}
		if start < 0 {
			start = int32(c)
		}
		x.bandBuf = append(x.bandBuf, uint8(u))
	}
	return start, x.bandBuf
}

// BeginRound points the index at the round's parametrization: it
// merge-diffs the matched list against par.M (window arithmetic only for
// edges whose matched status or weight changed), then folds the fresh
// bipartition into the per-class populated-unit masks and builds every
// class's survival probe rows in the same crossing pass. All bucket
// materialisations and probe rows of the previous round are invalidated
// by a stamp bump; alongside, the cross-round change clock
// (epoch, aChg/yChg/vChg) records which buckets actually changed, so the
// grouped Y tables and BuildDelta can survive the redraw where nothing did.
//
// A non-nil error means the call performed no round setup: ErrBeginRoundBusy
// when another BeginRound was still running on the index (the misuse the
// type contract forbids — returned as a sentinel rather than silently
// corrupting the dirty digest, so core's reset rung can absorb it).
func (x *IncIndex) BeginRound(par *Parametrized) error {
	if !x.busy.CompareAndSwap(0, 1) {
		return ErrBeginRoundBusy
	}
	defer x.busy.Store(0)
	x.par = par
	x.stamp++
	x.epoch++
	if x.stamp == 0 { // wrapped: stale stamps could collide
		for c := range x.ws {
			clear(x.aStamp[c])
			clear(x.bStamp[c])
			clear(x.adStamp[c])
			clear(x.bdStamp[c])
			clear(x.prStamp[c])
			clear(x.ygStamp[c])
			clear(x.ysStamp[c])
		}
		x.stamp = 1
	}

	// Merge-diff the sorted matched list against par.M's edges (ascending
	// smaller endpoint, the m.Edges() order): unchanged edges carry their
	// unit prefixes over, changed ones recompute. Every entry that leaves
	// the list — skipped past, replaced, or trailing — is recorded on the
	// change clock before its storage is reused (dropOld reads the unit
	// prefix the departing entry still holds).
	next := x.swap[:0]
	old := x.matched
	oi := 0
	for u := 0; u < par.M.N(); u++ {
		v := par.M.Mate(u)
		if v <= u {
			continue
		}
		w := par.M.EdgeWeightAt(u)
		for oi < len(old) && old[oi].e.U < u {
			x.dropOld(&old[oi]) // dropped from the matching
			oi++
		}
		if oi < len(old) && old[oi].e.U == u && old[oi].e.V == v && old[oi].e.W == w {
			next = append(next, old[oi])
			oi++
			continue
		}
		var units []uint8
		if oi < len(old) && old[oi].e.U == u {
			x.dropOld(&old[oi])
			units = old[oi].units // reuse the changed entry's storage
			oi++
		}
		x.vChg[u] = x.epoch
		x.vChg[v] = x.epoch
		next = append(next, matchedEdge{
			e:     graph.Edge{U: u, V: v, W: w},
			units: x.aUnitsOf(w, units),
		})
	}
	for ; oi < len(old); oi++ {
		x.dropOld(&old[oi]) // trailing entries: matching shrank at the top
	}
	x.matched, x.swap = next, old[:0]

	// Crossing-status diff over the matched list: a crossing flip moves the
	// edge in or out of every A bucket of its unit prefix and flips its
	// endpoints' survival classification; an orientation flip (crossing in
	// both rounds, sides swapped) keeps membership and classification but
	// invalidates the kept side entries, so it charges the buckets only.
	// Fresh entries enter with cross = false, so their first crossing round
	// is recorded as a flip here. The same pass fills the per-vertex
	// survival table: every vertex it does not reach is free.
	clear(x.vm)
	for mi := range x.matched {
		me := &x.matched[mi]
		crossNow := par.Side[me.e.U] != par.Side[me.e.V]
		sideUNow := par.Side[me.e.U]
		vc := vmDead
		if crossNow {
			vc = int32(mi) + 1
		}
		x.vm[me.e.U], x.vm[me.e.V] = vc, vc
		if len(me.units) > 0 {
			switch {
			case crossNow != me.cross:
				for c, uu := range me.units {
					x.aChg[c][uu] = x.epoch
				}
				x.vChg[me.e.U] = x.epoch
				x.vChg[me.e.V] = x.epoch
			case crossNow && sideUNow != me.sideU:
				for c, uu := range me.units {
					x.aChg[c][uu] = x.epoch
				}
			}
		}
		me.cross, me.sideU = crossNow, sideUNow
	}

	// Dirty marking: one crossing pass over the edges, charging each
	// crossing edge's contiguous live-class band (and each crossing matched
	// edge's unit prefix) to a class-range diff array. Classes no crossing
	// edge touches are clean and keep the empty-window masks.
	// The same pass diffs each in-window edge's liveness and orientation
	// against its previous-round state (ePrev) and charges changes to the
	// τB change clock — the B-side half of the cross-round keying.
	clear(x.dDiff)
	x.crossB = x.crossB[:0]
	for i, e := range x.edges {
		if x.bLen[i] == 0 {
			continue // in no class's τB window
		}
		live := par.Side[e.U] != par.Side[e.V] && !par.M.Has(e.U, e.V)
		var now uint8
		if live {
			now = 1
			if par.Side[e.U] {
				now |= 2
			}
		}
		if prev := x.ePrev[i]; prev&1 != now&1 || (now&1 != 0 && prev&2 != now&2) {
			for k := int32(0); k < x.bLen[i]; k++ {
				c := int(x.bStart[i]) + int(k)
				x.yChg[c][x.bUnits[x.bOff[i]+k]] = x.epoch
			}
			x.ePrev[i] = now
		}
		if !live {
			continue
		}
		x.crossB = append(x.crossB, int32(i))
		x.dDiff[x.bStart[i]]++
		x.dDiff[int(x.bStart[i])+int(x.bLen[i])]--
	}
	for mi := range x.matched {
		me := &x.matched[mi]
		if len(me.units) == 0 || par.Side[me.e.U] == par.Side[me.e.V] {
			continue
		}
		x.dDiff[0]++
		x.dDiff[len(me.units)]--
	}
	run := int32(0)
	for c := range x.ws {
		run += x.dDiff[c]
		x.dirty[c] = run > 0
		x.aMask[c], x.bMask[c] = 1, 0 // empty windows: only the τA = 0 free marker
	}

	// OR each crossing edge's unit into the masks of its classes. Every bit
	// lands in a dirty class by construction (a crossing in-window edge is
	// what dirties a class), so clean classes keep the empty-window masks.
	// The same pass builds the probe rows: each edge is oriented and its
	// endpoints' units read once, and every class of its band where both
	// endpoints survive sets its (row, col) bit in the (class, unit) rows.
	for _, ei := range x.crossB {
		i := int(ei)
		st := int(x.bStart[i])
		band := x.bUnits[x.bOff[i] : x.bOff[i]+x.bLen[i]]
		for k, u := range band {
			x.bMask[st+k] |= 1 << u
		}
		re := x.orientY(x.edges[i])
		ru, lu := x.survivor(re.U, x.freeR), x.survivor(re.V, x.freeL)
		for k, u := range band {
			c := st + k
			if c >= len(ru) || c >= len(lu) {
				break // classes ascend: dead here, dead in every later class
			}
			x.rowsFor(c, int(u))[ru[c]] |= 1 << lu[c]
		}
	}
	for mi := range x.matched {
		me := &x.matched[mi]
		if par.Side[me.e.U] == par.Side[me.e.V] {
			continue
		}
		for c, u := range me.units {
			x.aMask[c] |= 1 << u
		}
	}

	// Seal the dirty bitmap under a digest: DirtyGateOK re-derives it, so
	// any corruption of the bitmap between here and the skip decisions is
	// detected and the round degrades to a full sweep instead of skipping a
	// class whose windows do hold crossing edges. The masks above were
	// computed before the seal, so a post-seal flip can only change skip
	// decisions, never bucket contents.
	x.dirtySum = x.dirtyDigest()

	// Hazard site (chaos testing): flip the first dirty class's bit to
	// clean — the dangerous direction, a skip that would silently lose that
	// class's augmentations if the digest did not catch it. With no dirty
	// class, flip class 0 to dirty instead (running a clean class is
	// provably harmless, but the digest must still detect the corruption).
	if faultinject.Fire(faultinject.DirtyGate) && len(x.dirty) > 0 {
		flip := 0
		for c, d := range x.dirty {
			if d {
				flip = c
				break
			}
		}
		x.dirty[flip] = !x.dirty[flip]
	}
	return nil
}

// dropOld records a matched-list entry's departure on the change clock: its
// endpoints' classification changes (matched → free, or rematched by the
// replacing entry), and — when the departing edge was crossing — every A
// bucket of its unit prefix loses a member. Must run before the entry's
// units storage is reused by a replacement (aUnitsOf overwrites it in
// place).
func (x *IncIndex) dropOld(me *matchedEdge) {
	if me.cross {
		for c, u := range me.units {
			x.aChg[c][u] = x.epoch
		}
	}
	x.vChg[me.e.U] = x.epoch
	x.vChg[me.e.V] = x.epoch
}

// dirtyDigest hashes the round stamp and the dirty bitmap (FNV-1a).
func (x *IncIndex) dirtyDigest() uint64 {
	h := uint64(14695981039346656037)
	h = (h ^ uint64(x.stamp)) * 1099511628211
	for _, d := range x.dirty {
		b := uint64(0)
		if d {
			b = 1
		}
		h = (h ^ b) * 1099511628211
	}
	return h
}

// DirtyGateOK re-derives the dirty-bitmap digest sealed by BeginRound and
// compares it: false means the bitmap was corrupted after round setup (or
// BeginRound never ran this round) and no skip decision may be trusted —
// the caller must run the full class sweep, which is always safe (a clean
// class enumerates zero pairs; see RoundDirty). core.Runner checks it once
// per round and counts distrusted rounds in Stats.FallbackSweeps.
func (x *IncIndex) DirtyGateOK() bool { return x.dirtyDigest() == x.dirtySum }

// RoundDirty reports whether class c's τ windows contain any crossing edge
// in the current round. A clean class provably enumerates zero surviving
// (τA, τB) pairs — every good pair needs at least one populated τB window
// (unit ≥ 2), and a clean class has none — so callers may skip its per-class
// sweep wholesale; core.Runner counts those skips in
// Stats.ClassesSkippedDirty, and the dirty-gate property test cross-checks
// the set against naive BucketIndex rebuilds.
func (x *IncIndex) RoundDirty(c int) bool { return x.dirty[c] }

// View returns the class-c bucket view for the current round. Views from
// distinct classes may be used concurrently; a single view may not.
func (x *IncIndex) View(c int) *IncView { return &x.views[c] }

// IncView adapts one class of an IncIndex to the Index interface and adds
// the amortised extras: the populated-unit masks, the survival probe, the
// grouped Y tables and change clocks BuildDelta reads, and the content
// digests the cross-class solve cache keys on.
type IncView struct {
	ix *IncIndex
	c  int
}

// Parametrization returns the current round's parametrized graph.
func (v *IncView) Parametrization() *Parametrized { return v.ix.par }

// ClassWeight returns the class weight W of this view.
func (v *IncView) ClassWeight() float64 { return v.ix.ws[v.c] }

// Config returns the discretisation parameters.
func (v *IncView) Config() Params { return v.ix.prm }

// A returns the matched crossing edges of the unit-u τA window, in the
// matching's order, materialising (and digesting) the bucket on first use
// this round.
func (v *IncView) A(u int) []graph.Edge {
	if u < 1 || u > v.ix.maxU {
		return nil
	}
	return v.ix.aLive(v.c, u)
}

func (x *IncIndex) aLive(c, u int) []graph.Edge {
	if x.aStamp[c][u] != x.stamp {
		x.aStamp[c][u] = x.stamp
		buf := x.aBuf[c][u][:0]
		for mi := range x.matched {
			me := &x.matched[mi]
			if c >= len(me.units) || int(me.units[c]) != u {
				continue
			}
			if x.par.Side[me.e.U] == x.par.Side[me.e.V] {
				continue
			}
			buf = append(buf, me.e)
		}
		x.aBuf[c][u] = buf
	}
	return x.aBuf[c][u]
}

// aDigest returns the content digest of the unit-u τA bucket, digesting the
// materialised bucket on first use this round (only cache-keyed runs reach
// here, so cache-disabled runs never pay the hashing).
func (x *IncIndex) aDigest(c, u int) uint64 {
	if x.adStamp[c][u] != x.stamp {
		x.adStamp[c][u] = x.stamp
		x.aDig[c][u] = digestEdges(x.aLive(c, u))
	}
	return x.aDig[c][u]
}

// B returns the unmatched crossing edges of the unit-u τB window, in the
// graph's edge order, materialising (and digesting) the bucket on first
// use this round.
func (v *IncView) B(u int) []graph.Edge {
	if u < 2 || u > v.ix.maxU {
		return nil
	}
	return v.ix.bLive(v.c, u)
}

// bLive filters the static bAll superset by bit 0 of ePrev, the liveness
// BeginRound's crossing pass stored for every edge of some band this round:
// every bAll member has a band, so none is stale. The buffer grows with
// the live edges only; presizing it to the superset would hold memory
// for every dead edge of every bucket.
func (x *IncIndex) bLive(c, u int) []graph.Edge {
	if x.bStamp[c][u] != x.stamp {
		x.bStamp[c][u] = x.stamp
		buf := x.bBuf[c][u][:0]
		for _, ei := range x.bAll[c][u] {
			if x.ePrev[ei]&1 != 0 {
				buf = append(buf, x.edges[ei])
			}
		}
		x.bBuf[c][u] = buf
	}
	return x.bBuf[c][u]
}

// bDigest is aDigest for the unit-u τB bucket.
func (x *IncIndex) bDigest(c, u int) uint64 {
	if x.bdStamp[c][u] != x.stamp {
		x.bdStamp[c][u] = x.stamp
		x.bDig[c][u] = digestEdges(x.bLive(c, u))
	}
	return x.bDig[c][u]
}

// Masks returns the populated-unit bitmasks (see BucketIndex.Masks). The
// bMask omits bits 0 and 1, which no good τB entry can name. ok is always
// true: an index exists only where the units fit one word.
func (v *IncView) Masks() (aMask, bMask uint64, ok bool) {
	return v.ix.aMask[v.c], v.ix.bMask[v.c], true
}

// probeRows returns the class's unit-u probe table for the round: the rows
// BeginRound's crossing pass built from every unit-u unmatched crossing
// edge, classified by the matched units (or freeness) of its R and L
// endpoints, or the shared all-zero table when no such edge survived in
// the class this round (the stamp check: rows of an earlier round are
// never read). The table encodes exactly BuildIndexed's survives()
// predicate — a Y edge of a pair with τA = (…, ua at layer t, ub at layer
// t+1, …) survives iff its R endpoint carries a crossing matched edge of
// unit ua (or is free with ua = 0 in the first layer) and symmetrically for
// L — so a single bit test per layer answers whether any unit-u edge
// survives.
func (x *IncIndex) probeRows(c, u int) []uint64 {
	if x.prStamp[c][u] == x.stamp {
		return x.pRows[c][u]
	}
	return x.zeroRows
}

// rowsFor returns the (c, u) probe rows for writing in BeginRound, cleared
// and stamped on the round's first write.
func (x *IncIndex) rowsFor(c, u int) []uint64 {
	rows := x.pRows[c][u]
	if x.prStamp[c][u] != x.stamp {
		x.prStamp[c][u] = x.stamp
		if rows == nil {
			rows = make([]uint64, x.maxU+1)
			x.pRows[c][u] = rows
		} else {
			clear(rows)
		}
	}
	return rows
}

// ProbeY reports whether every Y gap of the pair's layered graph would
// contain at least one Y edge: an augmenting path of ML′ in L′ crosses every
// gap, so a pair with an empty gap yields no augmenting structure
// (Invariant 28). The probe applies the same window and vertex filters as
// BuildIndexed but reads the per-(class, unit) survival rows, so a doomed
// pair costs O(layers) bit tests instead of a full build. No production
// path calls it: the amortised sweep runs the same rows inside
// EnumerateSurvivingPairs through LayerRow, pruning dead pairs during
// generation. Tests call it as the generate-then-probe reference that the
// pruned enumeration must equal (Invariant 17). tau must be a good pair.
func (v *IncView) ProbeY(tau TauPair) bool {
	x, c := v.ix, v.c
	k := tau.K()
	for t := 0; t < k; t++ {
		// Gap t runs from the R copies of layer t (row τA_t; row 0 is the
		// first layer's free R endpoints, and interior entries are ≥ 2) to
		// the L copies of layer t+1 (bit τA_t+1, or FreeLBit for the last
		// layer's free L endpoints).
		ua, ub := tau.AUnits[t], tau.AUnits[t+1]
		col := uint64(1) << uint(ub)
		if ub == 0 {
			col = 1 << freeLBit
		}
		if x.probeRows(c, tau.BUnits[t])[ua]&col == 0 {
			return false
		}
	}
	return true
}

// LayerRow returns the probe row of the unit-b unmatched window at matched-
// unit row a (SurvivalOracle interface): the same per-(class, unit) crossing
// tables ProbeY consults, exposed so the pair enumeration can prune dead
// subtrees during generation.
func (v *IncView) LayerRow(bUnit, aUnit int) uint64 {
	return v.ix.probeRows(v.c, bUnit)[aUnit]
}

// Oracle returns the view as a SurvivalOracle for probe-guided enumeration.
// ok is always true: an index exists only where the probe rows do.
func (v *IncView) Oracle() (SurvivalOracle, bool) {
	return v, true
}

// survivor reads vertex v's per-class τA units under Definition 4.10's
// vertex filter from the round's per-vertex table: the unit prefix of its
// crossing matched edge, so v survives exactly in the classes c <
// len(units); free, the units a free endpoint takes in every class; nil
// when its matched edge does not cross, so v survives in no class. It is
// the single copy of the endpoint survival rule: classifyY applies it to
// one class for the grouped Y tables, and BeginRound's crossing pass to
// every class of an edge's band at once for the probe rows.
func (x *IncIndex) survivor(v int, free []uint8) []uint8 {
	switch vc := x.vm[v]; {
	case vc > 0:
		return x.matched[vc-1].units
	case vc == vmFree:
		return free
	}
	return nil
}

// classifyY orients a crossing unmatched edge R→L and classifies it in
// class c by the matched units (or freeness) of its endpoints: row is the
// R endpoint's unit (0 when free), col the L endpoint's (FreeLBit when
// free). ok is false for edges dead in class c: an endpoint matched off
// the bipartition survives in no layer, and one matched by a crossing edge
// only in the classes of its unit prefix.
func (x *IncIndex) classifyY(c int, e graph.Edge) (row, col int, ok bool) {
	re := x.orientY(e)
	ru, lu := x.survivor(re.U, x.freeR), x.survivor(re.V, x.freeL)
	if c >= len(ru) || c >= len(lu) {
		return 0, 0, false
	}
	return int(ru[c]), int(lu[c]), true
}

// orientY orients a crossing unmatched edge R→L: U becomes its R endpoint.
func (x *IncIndex) orientY(e graph.Edge) graph.Edge {
	if !x.par.Side[e.U] {
		e.U, e.V = e.V, e.U
	}
	return e
}

// yEffEpoch returns the epoch of the last change relevant to the (c, u)
// grouped Y partition: the bucket's own membership/orientation epoch joined
// with the classification epochs of every in-window edge's endpoints. The
// scan runs over the static bAll superset, so it is conservative — a dead
// edge's endpoint can invalidate a partition it does not participate in —
// which errs toward rebuilding, never toward stale reuse. Memoised per
// (round, class, unit); cost is one pass over the in-window edge list.
func (x *IncIndex) yEffEpoch(c, u int) uint64 {
	if x.ysStamp[c][u] == x.stamp {
		return x.ysEff[c][u]
	}
	x.ysStamp[c][u] = x.stamp
	eff := x.yChg[c][u]
	for _, ei := range x.bAll[c][u] {
		e := x.edges[ei]
		if v := x.vChg[e.U]; v > eff {
			eff = v
		}
		if v := x.vChg[e.V]; v > eff {
			eff = v
		}
	}
	x.ysEff[c][u] = eff
	return eff
}

// RoundEpoch returns the index's BeginRound count — the round clock the
// cross-round delta chain keys on (a build records it, and BuildDelta
// compares it with the view's). Zero means BeginRound has never run.
func (v *IncView) RoundEpoch() uint64 { return v.ix.epoch }

// AStableSince reports whether this class's unit-u τA bucket — membership,
// entry weights, and member orientation — is unchanged since the given
// epoch: a kept X layer of a cross-round BuildDelta from that epoch is
// byte-identical to what a fresh build would emit now, side entries
// included.
func (v *IncView) AStableSince(u int, epoch uint64) bool {
	if u < 1 || u > v.ix.maxU {
		return false
	}
	return v.ix.aChg[v.c][u] <= epoch
}

// YStableSince reports whether this class's unit-u grouped Y partition
// inputs — τB bucket membership and orientation plus every in-window
// endpoint's survival classification — are unchanged since the given epoch:
// a kept Y gap of a cross-round BuildDelta from that epoch is byte-identical.
func (v *IncView) YStableSince(u int, epoch uint64) bool {
	if u < 2 || u > v.ix.maxU {
		return false
	}
	return v.ix.yEffEpoch(v.c, u) <= epoch
}

// ygPart is one (class, unit) grouped-Y partition, indexed by the unit's
// probe rows: its groups are stored in key order (row, then column
// ascending), so the group of a set probe bit (row, col) sits at rank
// base[row] + popcount(rows[row] below bit col) and holds the edges
// flat[off[rank] : off[rank+1]].
type ygPart struct {
	base []int32      // base[row]: probe bits set in rows 0..row-1
	off  []int32      // group start offsets into flat, by rank
	flat []graph.Edge // the surviving edges, oriented R→L, in key order
}

// rank returns the key-order position of group (row, col) among the set
// bits of rows.
func (p *ygPart) rank(rows []uint64, row, col int) int32 {
	return p.base[row] + int32(bits.OnesCount64(rows[row]&(1<<uint(col)-1)))
}

// ensureYGroups materialises the class's unit-u survival partition for the
// round: the unit-u crossing bucket, dead edges dropped, survivors grouped
// by (row, col) classification with bucket order preserved inside each
// group. The unit's probe rows (built by BeginRound) index the groups, so
// the build is a counting sort by rank: one classifyY per bucket edge,
// whose rank the fill pass reads back from the class's ygRank scratch,
// paid once per (class, unit) — and not even per round: a partition whose
// inputs are unchanged since it was built (yEffEpoch at or before its
// ygEpoch) is revalidated across the BeginRound redraw instead of rebuilt,
// keyed by the crossing-status delta clock rather than the round stamp.
func (x *IncIndex) ensureYGroups(c, u int) *ygPart {
	p := &x.yg[c][u]
	if x.ygStamp[c][u] == x.stamp {
		return p
	}
	if x.ygEpoch[c][u] > 0 && x.yEffEpoch(c, u) <= x.ygEpoch[c][u] {
		// Cross-round reuse: nothing the partition depends on changed since
		// it was last (re)built, so last round's grouping is this round's,
		// bit for bit. This round's probe rows index it unchanged: BeginRound
		// built them from those same inputs, because a round whose inputs
		// changed would also have moved yEffEpoch past ygEpoch.
		x.ygStamp[c][u] = x.stamp
		x.ygEpoch[c][u] = x.epoch
		return p
	}
	x.ygStamp[c][u] = x.stamp
	x.ygEpoch[c][u] = x.epoch
	rows := x.probeRows(c, u)
	p.base = ensureLen32(p.base, len(rows))
	groups := int32(0)
	for r, row := range rows {
		p.base[r] = groups
		groups += int32(bits.OnesCount64(row))
	}
	// Counting sort by rank. Counts land two slots up, so after the prefix
	// sum off[g+1] is group g's start and serves as its fill cursor; the
	// fill pass leaves off[g] at every group's start.
	off := slices.Grow(p.off[:0], int(groups)+2)[:groups+2]
	clear(off)
	bucket := x.bLive(c, u)
	// The scratch is sized to the live bucket: grown by append it would
	// leave several times its size in garbage on every class.
	ranks := slices.Grow(x.ygRank[c][:0], len(bucket))[:len(bucket)]
	x.ygRank[c] = ranks
	for i, e := range bucket {
		ranks[i] = -1
		if row, col, ok := x.classifyY(c, e); ok {
			ranks[i] = p.rank(rows, row, col)
			off[ranks[i]+2]++
		}
	}
	for g := 2; g < len(off); g++ {
		off[g] += off[g-1]
	}
	kept := int(off[groups+1])
	p.flat = slices.Grow(p.flat[:0], kept)[:kept]
	for i, e := range bucket {
		if r := ranks[i]; r >= 0 {
			p.flat[off[r+1]] = x.orientY(e)
			off[r+1]++
		}
	}
	p.off = off[:groups+1]
	return p
}

// YGroup returns the unit-u unmatched crossing edges surviving between a
// layer of matched unit row and a successor layer of matched unit col
// (row 0 = free R, col FreeLBit = free L), oriented U = R endpoint, V = L
// endpoint, in bucket order.
func (v *IncView) YGroup(u, row, col int) []graph.Edge {
	x := v.ix
	if u < 2 || u > x.maxU || row < 0 || row > x.maxU || col < 0 || col > freeLBit {
		return nil
	}
	p := x.ensureYGroups(v.c, u)
	rows := x.probeRows(v.c, u)
	if rows[row]&(1<<uint(col)) == 0 {
		return nil
	}
	g := p.rank(rows, row, col)
	return p.flat[p.off[g]:p.off[g+1]]
}

// PairKey appends a cache key identifying the pair's layered graph up to
// bucket contents: the τ units plus the content digests of every window the
// build would read. Two (class, pair) combinations with equal keys build
// identical layered graphs — the weight W itself is deliberately absent, so
// anchored and geometric classes whose windows coincide share one solve.
// The free-vertex sets of τA = 0 boundary layers are class-independent
// within a round, so the unit value alone covers them.
func (v *IncView) PairKey(tau TauPair, key []byte) []byte {
	x, c := v.ix, v.c
	key = append(key, byte(tau.K()))
	for _, u := range tau.AUnits {
		key = append(key, byte(u))
		if u > 0 {
			key = appendDigest(key, x.aDigest(c, u))
		}
	}
	for _, u := range tau.BUnits {
		key = append(key, byte(u))
		key = appendDigest(key, x.bDigest(c, u))
	}
	return key
}

// A bucket digest starts at digestSeed and folds each edge's U, V and W
// words in order, one step per word: xor the word in, multiply by the odd
// digestMul, rotate. For a fixed word every step is a bijection of the
// running digest, so two buckets of equal length that differ in a single
// word (one coordinate of one edge) always get different digests. Other
// differences — swapped endpoints, reordered or extra edges — collide with
// probability about 2^-64 per content pair. Collisions are the cache's
// only unsoundness (the differential suite cross-checks end to end).
const (
	digestSeed = 0xcbf29ce484222325
	digestMul  = 0x9e3779b97f4a7c15
)

// digestEdges returns the digest of a bucket's edge sequence.
func digestEdges(es []graph.Edge) uint64 {
	h := uint64(digestSeed)
	for _, e := range es {
		h = digestEdge(h, e)
	}
	return h
}

func digestEdge(h uint64, e graph.Edge) uint64 {
	h = bits.RotateLeft64((h^uint64(e.U))*digestMul, 31)
	h = bits.RotateLeft64((h^uint64(e.V))*digestMul, 31)
	return bits.RotateLeft64((h^uint64(e.W))*digestMul, 31)
}

func appendDigest(key []byte, h uint64) []byte {
	for i := 0; i < 8; i++ {
		key = append(key, byte(h>>(8*i)))
	}
	return key
}
