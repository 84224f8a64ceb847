package randarrival

import (
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/localratio"
	"repro/internal/matchutil"
	"repro/internal/stream"
	"repro/internal/unwaug"
)

// NaiveWgtAugPaths is the pre-arena form of WgtAugPaths, retained as the
// executable reference for Invariant 27: a map of per-class finders keyed
// by weight class, a surplus local-ratio processor, and a per-edge map
// from edge key to original weight. It allocates per run and hits map
// operations on the Feed hot path, which is exactly what the record form
// removes; the differential and fuzz nets assert the two produce
// bit-identical M1 and M2, matchings, branches, and accountant peaks for
// every stream.
type NaiveWgtAugPaths struct {
	m0    *graph.Matching
	alpha float64

	// markedAt[v] reports whether the M0 edge at v is Marked. Both
	// endpoints of a marked edge carry the flag.
	markedAt []bool

	// classes[i] is the Unw-3-Aug-Paths instance for weight class
	// W_i = [2^(i-1), 2^i); populated lazily for non-empty classes.
	classes map[int]*unwaug.Finder

	// apx is Approx-Wgt-Matching: the local-ratio processor over surplus
	// weights. origW remembers the true weight of each edge fed to it so
	// the final matching is weighted correctly.
	apx   *localratio.Processor
	origW map[graph.Key]graph.Weight
}

// NewNaiveWgtAugPaths implements Initialize of Algorithm 1 with the
// map-backed state. The rng draws (one Intn(2) per M0 edge, in M0.Edges()
// order) and the accountant charge sequence match WgtAugPaths.Init exactly.
func NewNaiveWgtAugPaths(m0 *graph.Matching, beta float64, rng *rand.Rand, acct *stream.Accountant) *NaiveWgtAugPaths {
	n := m0.N()
	w := &NaiveWgtAugPaths{
		m0:       m0,
		alpha:    0.02,
		markedAt: make([]bool, n),
		classes:  make(map[int]*unwaug.Finder),
		apx:      localratio.New(n),
		origW:    make(map[graph.Key]graph.Weight),
	}
	w.apx.SetAccountant(acct)
	perClass := make(map[int]*graph.Matching)
	for _, e := range m0.Edges() {
		if rng.Intn(2) == 0 {
			continue
		}
		w.markedAt[e.U] = true
		w.markedAt[e.V] = true
		c := WeightClass(e.W)
		pm, ok := perClass[c]
		if !ok {
			pm = graph.NewMatching(n)
			perClass[c] = pm
		}
		// Subsets of a matching stay vertex disjoint; Add cannot fail.
		if err := pm.Add(e); err != nil {
			panic(err)
		}
		if acct != nil {
			acct.Hold(1)
		}
	}
	for c, pm := range perClass {
		w.classes[c] = unwaug.New(pm, beta)
		w.classes[c].SetAccountant(acct)
	}
	return w
}

// naiveFeeder runs Algorithm 2's phase-2 step on the naive form, taking
// w” from the frozen processor.
type naiveFeeder struct {
	*NaiveWgtAugPaths
	proc *localratio.Processor
}

func (f naiveFeeder) feedResidual(e graph.Edge) graph.Weight {
	f.Feed(e)
	return f.proc.Residual(e)
}

// newNaiveFeeder is the newFeeder that runs Algorithm 2 on the naive form.
func newNaiveFeeder(m0 *graph.Matching, proc *localratio.Processor, beta float64, rng *rand.Rand, acct *stream.Accountant) feeder {
	return naiveFeeder{NewNaiveWgtAugPaths(m0, beta, rng, acct), proc}
}

// Feed implements Feed-Edge of Algorithm 1 (map-backed reference form).
func (w *NaiveWgtAugPaths) Feed(e graph.Edge) {
	mu := w.m0.EdgeWeightAt(e.U)
	mv := w.m0.EdgeWeightAt(e.V)

	// Single-edge augmentation branch (line 7): positive surplus edges go
	// to Approx-Wgt-Matching under surplus weights.
	if e.W > mu+mv {
		surplus := graph.Edge{U: e.U, V: e.V, W: e.W - mu - mv}
		if w.apx.Process(surplus) {
			w.origW[e.EdgeKey()] = e.W
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

func (w *NaiveWgtAugPaths) feedClass(e graph.Edge, mid int) {
	c := WeightClass(w.m0.EdgeWeightAt(mid))
	if finder, ok := w.classes[c]; ok {
		finder.Feed(e)
	}
}

// Finalize implements Finalize of Algorithm 1 (map-backed reference form).
func (w *NaiveWgtAugPaths) Finalize() *graph.Matching {
	m1, m2 := w.finalize()
	if m2.Weight() > m1.Weight() {
		return m2
	}
	return m1
}

// finalize returns both candidates of Finalize, M1 and M2.
func (w *NaiveWgtAugPaths) finalize() (m1, m2 *graph.Matching) {
	// M1: unwind the surplus-weight stack into a matching, then overlay it
	// on M0 with true weights (AddForced evicts the conflicting M0 edges,
	// realising gain w'(e) per added edge).
	m1 = w.m0.Clone()
	surplusM := w.apx.Unwind()
	for _, se := range surplusM.Edges() {
		orig, ok := w.origW[se.EdgeKey()]
		if !ok {
			continue
		}
		m1.AddForced(graph.Edge{U: se.U, V: se.V, W: orig})
	}

	// M2: greedy non-conflicting 3-augmentations, highest class first.
	m2 = w.m0.Clone()
	classIDs := make([]int, 0, len(w.classes))
	for c := range w.classes {
		classIDs = append(classIDs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(classIDs)))
	for _, c := range classIDs {
		for _, p := range w.classes[c].Finalize() {
			w.applyThreeAug(m2, p)
		}
	}
	return m1, m2
}

func (w *NaiveWgtAugPaths) applyThreeAug(m *graph.Matching, p matchutil.ThreeAugPath) {
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
