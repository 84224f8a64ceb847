package randarrival

import (
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/localratio"
	"repro/internal/matchutil"
	"repro/internal/stream"
	"repro/internal/unwaug"
)

// numWeightClasses bounds the class index range of WeightClass: weights
// are int64, so bits.Len64 is at most 64 and classes live in [0, 64].
// That small fixed range is what lets the per-arrival hot path replace
// the map of Finder instances with a flat array indexed by class.
const numWeightClasses = 65

// WgtAugPaths is Algorithm 1 of the paper: it augments an initial matching
// M0 using (i) single-edge augmentations found through a streaming
// approximation over the surplus weights w'(e) = w(e) − w(M0(u)) − w(M0(v)),
// and (ii) weighted 3-augmentations found by filtering edges down to
// per-weight-class Unw-3-Aug-Paths instances over a randomly Marked half of
// M0 (the guessed middle edges).
//
// This is the arena-backed per-arrival form: Feed touches flat arrays
// only (a 65-slot class table instead of a map of finders, a stack-
// parallel slice instead of an origW map), and a value reused through
// Init keeps every arena across runs. The map-backed original is retained
// verbatim in this package's tests as NaiveWgtAugPaths — Invariant 27's
// reference — and the two are pinned bit-identical by the differential and
// fuzz nets.
type WgtAugPaths struct {
	m0    *graph.Matching
	alpha float64

	// markedAt[v] reports whether the M0 edge at v is Marked. Both
	// endpoints of a marked edge carry the flag.
	markedAt []bool

	// classes[i] is the active Unw-3-Aug-Paths instance for weight class
	// W_i = [2^(i-1), 2^i), nil when the class has no marked edges. The
	// finders and classM arrays are the arenas behind the active slots,
	// reused across Init calls; classIDs lists the active classes of the
	// current run (in first-marked order).
	classes  [numWeightClasses]*unwaug.Finder
	finders  [numWeightClasses]*unwaug.Finder
	classM   [numWeightClasses]*graph.Matching
	classIDs []int

	// apx is Approx-Wgt-Matching: the local-ratio processor over surplus
	// weights. origW[i] remembers the true weight of the edge at stack
	// position i of apx — Process pushes exactly when Feed appends, so
	// the slice is a parallel arena replacing the per-edge map insert.
	apx   *localratio.Processor
	origW []graph.Weight

	// sortIDs and sm are Finalize scratch (class order, surplus-unwind
	// shadow matching).
	sortIDs []int
	sm      *graph.Matching

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

// Init (re)initialises w around m0, keeping every arena of a previous
// run. acct, when non-nil, is charged one word per marked M0 edge and
// flows into the per-class finders and the surplus processor, so the
// whole Algorithm 1 state answers to one Accountant. The rng draws are
// exactly those of the naive form (one Intn(2) per M0 edge, in M0.Edges()
// order), which is what makes the two forms bit-comparable downstream.
func (w *WgtAugPaths) Init(m0 *graph.Matching, beta float64, rng *rand.Rand, acct *stream.Accountant) {
	n := m0.N()
	w.m0 = m0
	w.alpha = 0.02
	w.acct = acct
	if cap(w.markedAt) < n {
		w.markedAt = make([]bool, n)
	} else {
		w.markedAt = w.markedAt[:n]
		clear(w.markedAt)
	}
	for _, c := range w.classIDs {
		w.classes[c] = nil
	}
	w.classIDs = w.classIDs[:0]
	if w.apx == nil {
		w.apx = localratio.New(n)
	} else {
		w.apx.Reset(n)
	}
	w.apx.SetAccountant(acct)
	w.origW = w.origW[:0]

	for _, e := range m0.Edges() {
		if rng.Intn(2) == 0 {
			continue
		}
		w.markedAt[e.U] = true
		w.markedAt[e.V] = true
		c := WeightClass(e.W)
		if w.classes[c] == nil {
			if w.classM[c] == nil {
				w.classM[c] = graph.NewMatching(n)
			} else {
				w.classM[c].Reset(n)
			}
			if w.finders[c] == nil {
				w.finders[c] = unwaug.New(w.classM[c], beta)
			} else {
				w.finders[c].Reset(w.classM[c], beta)
			}
			w.finders[c].SetAccountant(acct)
			w.classes[c] = w.finders[c]
			w.classIDs = append(w.classIDs, c)
		}
		// Subsets of a matching stay vertex disjoint; Add cannot fail.
		if err := w.classM[c].Add(e); err != nil {
			panic(err)
		}
		if acct != nil {
			acct.Hold(1)
		}
	}
}

// MarkedCount returns the number of marked M0 edges (diagnostics).
func (w *WgtAugPaths) MarkedCount() int {
	count := 0
	for v, marked := range w.markedAt {
		if marked && w.m0.Mate(v) > v {
			count++
		}
	}
	return count
}

// Feed implements Feed-Edge of Algorithm 1. This is the per-arrival hot
// path: no map operation and no allocation beyond amortised arena growth.
func (w *WgtAugPaths) Feed(e graph.Edge) {
	mu := w.m0.EdgeWeightAt(e.U)
	mv := w.m0.EdgeWeightAt(e.V)

	// Single-edge augmentation branch (line 7): positive surplus edges go
	// to Approx-Wgt-Matching under surplus weights.
	if e.W > mu+mv {
		surplus := graph.Edge{U: e.U, V: e.V, W: e.W - mu - mv}
		if w.apx.Process(surplus) {
			w.origW = append(w.origW, e.W)
		}
	}

	// 3-augmentation branch (lines 9–15): only edges with small surplus.
	if float64(e.W) > (1+w.alpha)*float64(mu+mv) {
		return
	}
	markedU := w.markedAt[e.U]
	markedV := w.markedAt[e.V]
	switch {
	case markedU && !markedV:
		if float64(e.W) > (1+2*w.alpha)*(0.5*float64(mu)+float64(mv)) {
			w.feedClass(e, e.U)
		}
	case markedV && !markedU:
		if float64(e.W) > (1+2*w.alpha)*(float64(mu)+0.5*float64(mv)) {
			w.feedClass(e, e.V)
		}
	}
}

// feedClass routes e to the Unw-3-Aug-Paths instance of the weight class of
// the marked middle edge at vertex mid. (Algorithm 1 as printed routes by
// the class of w(e); the analysis of Lemma 3.9 needs the class of the
// middle edge e_{i+1}, whose instance actually knows that matched edge, so
// we follow the analysis.)
func (w *WgtAugPaths) feedClass(e graph.Edge, mid int) {
	if finder := w.classes[WeightClass(w.m0.EdgeWeightAt(mid))]; finder != nil {
		finder.Feed(e)
	}
}

// Finalize implements Finalize of Algorithm 1: M1 applies the surplus
// matching M' on top of M0; M2 applies the per-class 3-augmentations from
// the highest class down, skipping conflicts; the heavier of the two wins.
func (w *WgtAugPaths) Finalize() *graph.Matching {
	// M1: replay the surplus-weight stack unwind (LIFO, greedy) against a
	// shadow matching while overlaying each taken edge on M0 with its true
	// weight from the stack-parallel origW arena (AddForced evicts the
	// conflicting M0 edges, realising gain w'(e) per added edge). The
	// taken set is exactly the naive form's apx.Unwind(); surplus edges
	// are pairwise disjoint, so the overlay order cannot change the
	// resulting matching.
	n := w.m0.N()
	m1 := w.m0.Clone()
	if w.sm == nil {
		w.sm = graph.NewMatching(n)
	} else {
		w.sm.Reset(n)
	}
	stack := w.apx.Stack()
	for i := len(stack) - 1; i >= 0; i-- {
		se := stack[i]
		if w.sm.IsMatched(se.U) || w.sm.IsMatched(se.V) {
			continue
		}
		mustAdd(w.sm, se)
		m1.AddForced(graph.Edge{U: se.U, V: se.V, W: w.origW[i]})
	}

	// M2: greedy non-conflicting 3-augmentations, highest class first.
	m2 := w.m0.Clone()
	w.sortIDs = append(w.sortIDs[:0], w.classIDs...)
	sort.Sort(sort.Reverse(sort.IntSlice(w.sortIDs)))
	for _, c := range w.sortIDs {
		for _, p := range w.classes[c].Finalize() {
			w.applyThreeAug(m2, p)
		}
	}

	if m2.Weight() > m1.Weight() {
		return m2
	}
	return m1
}

// applyThreeAug applies the weighted 3-augmentation induced by p on m: add
// o1 = (A,U) and o2 = (V,B) and remove every conflicting matched edge
// (e1, e2, e3 of the quintuple). It skips augmentations that conflict with
// previously applied ones or that are no longer gainful on the current m.
func (w *WgtAugPaths) applyThreeAug(m *graph.Matching, p matchutil.ThreeAugPath) {
	add := []graph.Edge{
		{U: p.A, V: p.U, W: p.WA},
		{U: p.V, V: p.B, W: p.WB},
	}
	// The finder guarantees disjointness against its own class, but classes
	// can collide; verify against the live matching.
	aug := graph.PathAugmentation(m, add)
	if aug.Gain() <= 0 {
		return
	}
	if !m.Has(p.U, p.V) {
		return // middle edge already displaced by a heavier class
	}
	_, _ = graph.Apply(m, aug)
}
