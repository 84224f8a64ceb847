package randarrival

import (
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/localratio"
	"repro/internal/stream"
	"repro/internal/unwaug"
)

// numWeightClasses bounds the class index range of WeightClass: weights
// are int64, so bits.Len64 is at most 64 and classes live in [0, 64].
const numWeightClasses = 65

// vertexRec is everything one arrival reads about one endpoint, packed
// into one record. Its 27 bytes pad to 32, so two records share a 64-byte
// cache line, and since Go's allocator starts an array of them at a
// multiple of 32 bytes, none straddles one.
type vertexRec struct {
	// alphaStar is the frozen local-ratio potential α*_v, copied in by
	// loadPotentials for Algorithm 2's T filter; 0 otherwise.
	alphaStar graph.Weight
	// m0W is w(M0(v)), 0 when v is M0-free (Section 3.2's convention).
	m0W graph.Weight
	// alphaS is the surplus potential α′_v of Approx-Wgt-Matching.
	alphaS graph.Weight
	// marked reports whether the M0 edge at v is Marked; class is that
	// edge's weight class, and support counts the support edges kept at v
	// (at most 2, the matched-side cap of Lemma 3.1's instance).
	marked  bool
	class   uint8
	support uint8
}

// supportEdge is one support edge kept at a marked vertex: its free
// endpoint and its weight.
type supportEdge struct {
	free int
	w    graph.Weight
}

// WgtAugPaths is Algorithm 1 of the paper: it augments an initial matching
// M0 using (i) single-edge augmentations found through a streaming
// approximation over the surplus weights w'(e) = w(e) − w(M0(u)) − w(M0(v)),
// and (ii) weighted 3-augmentations found by filtering edges down to
// per-weight-class Unw-3-Aug-Paths instances over a randomly Marked half of
// M0 (the guessed middle edges).
//
// The state is laid out for the per-arrival path. Each vertex has one
// packed record (vertexRec), and Approx-Wgt-Matching runs its local-ratio
// step on the records' surplus potentials. The Unw-3-Aug-Paths instances
// share one support table: a marked vertex belongs to exactly one class,
// so its ≤ 2 support edges sit in two per-vertex slots, and only a free
// vertex's capped degree is kept per class. A value reused through Init
// keeps every array across runs. The map-backed original, one
// unwaug.Finder per class, is kept in this package's tests as
// NaiveWgtAugPaths, Invariant 27's reference; the differential and fuzz
// nets pin the two forms bit-identical, branch by branch.
type WgtAugPaths struct {
	m0    *graph.Matching
	alpha float64
	// lambda caps a free vertex's support degree in one class.
	lambda uint32

	rec []vertexRec
	// slots[2v] and slots[2v+1] hold the support edges of marked vertex
	// v; the first rec[v].support of them are valid.
	slots []supportEdge

	// marked[c] lists the marked M0 edges of weight class c
	// W_c = [2^(c-1), 2^c) in ascending U, and deg[c][u] is free vertex
	// u's support degree in class c. deg[c] is sized and cleared only for
	// classes with a marked edge.
	marked [numWeightClasses][]graph.Edge
	deg    [numWeightClasses][]uint32

	// stack is Approx-Wgt-Matching's local-ratio stack of surplus edges,
	// and origW[i] the true weight of stack[i].
	stack []graph.Edge
	origW []graph.Weight

	// used[v] == epoch marks v as taken in Finalize's current sweep (the
	// stack unwind, or one class's 3-augmentations); a new sweep starts a
	// new epoch instead of clearing the array.
	used  []uint32
	epoch uint32

	acct *stream.Accountant
}

// WeightClass returns the index i with w in [2^(i-1), 2^i), i.e. the W_i of
// Section 3.2.1; WeightClass(0) = 0 by convention.
func WeightClass(w graph.Weight) int {
	if w <= 0 {
		return 0
	}
	return bits.Len64(uint64(w))
}

// NewWgtAugPaths implements Initialize of Algorithm 1: it samples the
// Marked set (each M0 edge independently with probability 1/2) and creates
// one Unw-3-Aug-Paths instance per non-empty weight class of Marked.
func NewWgtAugPaths(m0 *graph.Matching, beta float64, rng *rand.Rand) *WgtAugPaths {
	w := &WgtAugPaths{}
	w.Init(m0, beta, rng, nil)
	return w
}

// supportCap returns Unw-3-Aug-Paths' free-side cap unwaug.Lambda(beta),
// saturated at MaxUint32 to fit the per-class degree arrays. The
// saturation never binds: a free vertex's degree in one class is at most
// twice the class's marked vertices, which stays below MaxUint32 for
// n < 2^31.
func supportCap(beta float64) uint32 {
	return uint32(min(uint64(unwaug.Lambda(beta)), math.MaxUint32))
}

// Init (re)initialises w around m0, keeping every array of a previous
// run. acct, when non-nil, is charged one word per marked M0 edge, per
// support edge and per stacked surplus edge, so the whole Algorithm 1
// state answers to one Accountant. The rng draws are exactly those of the
// naive form (one Intn(2) per M0 edge, in ascending U), which is what
// makes the two forms bit-comparable downstream.
func (w *WgtAugPaths) Init(m0 *graph.Matching, beta float64, rng *rand.Rand, acct *stream.Accountant) {
	n := m0.N()
	w.m0 = m0
	w.alpha = 0.02
	w.lambda = supportCap(beta)
	w.acct = acct
	if cap(w.rec) < n {
		w.rec = make([]vertexRec, n)
	}
	w.rec = w.rec[:n]
	for v := range w.rec {
		w.rec[v] = vertexRec{m0W: m0.EdgeWeightAt(v)}
	}
	if cap(w.slots) < 2*n {
		w.slots = make([]supportEdge, 2*n)
	}
	w.slots = w.slots[:2*n]
	if cap(w.used) < n {
		w.used = make([]uint32, n)
	}
	w.used = w.used[:n]
	for c := range w.marked {
		w.marked[c] = w.marked[c][:0]
	}
	w.stack = w.stack[:0]
	w.origW = w.origW[:0]

	for u := range n {
		v := m0.Mate(u)
		if v < u || rng.Intn(2) == 0 {
			continue
		}
		e := graph.Edge{U: u, V: v, W: m0.EdgeWeightAt(u)}
		c := WeightClass(e.W)
		w.rec[u].marked, w.rec[u].class = true, uint8(c)
		w.rec[v].marked, w.rec[v].class = true, uint8(c)
		if len(w.marked[c]) == 0 {
			if cap(w.deg[c]) < n {
				w.deg[c] = make([]uint32, n)
			} else {
				w.deg[c] = w.deg[c][:n]
				clear(w.deg[c])
			}
		}
		w.marked[c] = append(w.marked[c], e)
		if acct != nil {
			acct.Hold(1)
		}
	}
}

// loadPotentials copies the frozen local-ratio potentials α* of proc into
// the records, so feedResidual reads the T filter's potentials from the
// records Feed reads.
func (w *WgtAugPaths) loadPotentials(proc *localratio.Processor) {
	for v := range w.rec {
		w.rec[v].alphaStar = proc.Potential(v)
	}
}

// MarkedCount returns the number of marked M0 edges (diagnostics).
func (w *WgtAugPaths) MarkedCount() int {
	count := 0
	for _, edges := range w.marked {
		count += len(edges)
	}
	return count
}

// Feed implements Feed-Edge of Algorithm 1. This is the per-arrival hot
// path: it reads one record per endpoint and makes no map operation and
// no allocation beyond amortised growth of the surplus stack.
func (w *WgtAugPaths) Feed(e graph.Edge) {
	w.feed(e, &w.rec[e.U], &w.rec[e.V])
}

// feedResidual is Algorithm 2's phase-2 step: it feeds e and returns its
// residual w” = w(e) − α*_u − α*_v under the potentials loadPotentials
// copied in, so the T filter and Feed read the same two records.
func (w *WgtAugPaths) feedResidual(e graph.Edge) graph.Weight {
	ru, rv := &w.rec[e.U], &w.rec[e.V]
	w.feed(e, ru, rv)
	return e.W - ru.alphaStar - rv.alphaStar
}

// feed is Feed-Edge on e with its endpoints' records ru and rv.
func (w *WgtAugPaths) feed(e graph.Edge, ru, rv *vertexRec) {
	mu, mv := ru.m0W, rv.m0W

	// Single-edge augmentation branch (line 7): positive surplus edges go
	// to Approx-Wgt-Matching, the local-ratio step over surplus weights
	// against the surplus potentials α′.
	if e.W > mu+mv {
		surplus := e.W - mu - mv
		if r := surplus - ru.alphaS - rv.alphaS; r > 0 {
			w.stack = append(w.stack, graph.Edge{U: e.U, V: e.V, W: surplus})
			w.origW = append(w.origW, e.W)
			if w.acct != nil {
				w.acct.Hold(1)
			}
			ru.alphaS += r
			rv.alphaS += r
		}
	}

	// 3-augmentation branch (lines 9–15): only edges with small surplus.
	if float64(e.W) > (1+w.alpha)*float64(mu+mv) {
		return
	}
	switch {
	case ru.marked && !rv.marked:
		if float64(e.W) > (1+2*w.alpha)*(0.5*float64(mu)+float64(mv)) {
			w.keepSupport(e.U, ru, e.V, e.W)
		}
	case rv.marked && !ru.marked:
		if float64(e.W) > (1+2*w.alpha)*(float64(mu)+0.5*float64(mv)) {
			w.keepSupport(e.V, rv, e.U, e.W)
		}
	}
}

// keepSupport is Unw-3-Aug-Paths' Feed for the instance of the weight class
// of the marked middle edge at mid, whose record is rm: the edge joins the
// support set when mid holds fewer than 2 support edges and the free
// endpoint fewer than λ in that class. (Algorithm 1 as printed routes by
// the class of w(e); the analysis of Lemma 3.9 needs the class of the
// middle edge e_{i+1}, whose instance actually knows that matched edge, so
// we follow the analysis.)
func (w *WgtAugPaths) keepSupport(mid int, rm *vertexRec, free int, weight graph.Weight) {
	if rm.support >= 2 {
		return
	}
	deg := &w.deg[rm.class][free]
	if *deg >= w.lambda {
		return
	}
	*deg++
	w.slots[2*mid+int(rm.support)] = supportEdge{free: free, w: weight}
	rm.support++
	if w.acct != nil {
		w.acct.Hold(1)
	}
}

// Finalize implements Finalize of Algorithm 1: M1 applies the surplus
// matching M' on top of M0; M2 applies the per-class 3-augmentations from
// the highest class down, skipping conflicts; the heavier of the two wins.
func (w *WgtAugPaths) Finalize() *graph.Matching {
	m1, m2 := w.finalize()
	if m2.Weight() > m1.Weight() {
		return m2
	}
	return m1
}

// finalize returns both candidates of Finalize, M1 and M2.
func (w *WgtAugPaths) finalize() (m1, m2 *graph.Matching) {
	// M1: unwind the surplus stack (LIFO, greedy) against the used
	// stamps, overlaying each taken edge on M0 with its true weight
	// (AddForced evicts the conflicting M0 edges, realising gain w'(e) per
	// added edge). Taken surplus edges are pairwise disjoint, so the
	// overlay order cannot change the resulting matching.
	m1 = w.m0.Clone()
	ep := w.nextEpoch()
	for i := len(w.stack) - 1; i >= 0; i-- {
		u, v := w.stack[i].U, w.stack[i].V
		if w.used[u] == ep || w.used[v] == ep {
			continue
		}
		w.used[u], w.used[v] = ep, ep
		m1.AddForced(graph.Edge{U: u, V: v, W: w.origW[i]})
	}

	// M2: each class's Unw-3-Aug-Paths finalisation, highest class first,
	// applied greedily. Within a class the marked edges are walked in
	// ascending U, and a path a–u–v–b takes the first unused support
	// neighbours a of u and b ≠ a of v, or the mirrored orientation when
	// that fails. Only free vertices are stamped: marked ones belong to
	// exactly one marked edge, which the walk visits once.
	m2 = w.m0.Clone()
	for c := numWeightClasses - 1; c >= 0; c-- {
		if len(w.marked[c]) == 0 {
			continue
		}
		ep := w.nextEpoch()
		for _, me := range w.marked[c] {
			u, v := me.U, me.V
			a, wa := w.pickFree(u, -1, ep)
			b, wb := w.pickFree(v, a, ep)
			if a < 0 || b < 0 {
				a, wa = w.pickFree(v, -1, ep)
				b, wb = w.pickFree(u, a, ep)
				if a < 0 || b < 0 {
					continue
				}
				u, v = v, u
			}
			w.used[a], w.used[b] = ep, ep
			applyThreeAug(m2, a, u, v, b, wa, wb)
		}
	}
	return m1, m2
}

// nextEpoch starts a new sweep of used, clearing the array only when the
// epoch counter wraps.
func (w *WgtAugPaths) nextEpoch() uint32 {
	w.epoch++
	if w.epoch == 0 {
		clear(w.used)
		w.epoch = 1
	}
	return w.epoch
}

// pickFree returns the first support neighbour of marked vertex v, in the
// order the edges were kept, that is not exclude and not used in sweep ep,
// with the support edge's weight; (-1, 0) when there is none.
func (w *WgtAugPaths) pickFree(v, exclude int, ep uint32) (int, graph.Weight) {
	for _, s := range w.slots[2*v : 2*v+int(w.rec[v].support)] {
		if s.free != exclude && w.used[s.free] != ep {
			return s.free, s.w
		}
	}
	return -1, 0
}

// applyThreeAug applies the weighted 3-augmentation a–u–v–b on m: it adds
// (a,u) and (v,b) and evicts every matched edge they touch, which is
// (u,v) and the edges at a and b (one edge when a and b are mates). A
// class's paths are disjoint, but classes can collide, so it checks the
// live matching: it skips the path when a heavier class displaced (u,v) or
// when the gain is not positive.
func applyThreeAug(m *graph.Matching, a, u, v, b int, wa, wb graph.Weight) {
	if !m.Has(u, v) {
		return
	}
	gain := wa + wb - m.EdgeWeightAt(u) - m.EdgeWeightAt(a)
	if m.Mate(b) != a {
		gain -= m.EdgeWeightAt(b)
	}
	if gain <= 0 {
		return
	}
	m.AddForced(graph.Edge{U: a, V: u, W: wa})
	m.AddForced(graph.Edge{U: v, V: b, W: wb})
}
