package bipartite

import (
	"math"

	"repro/internal/graph"
	"repro/internal/stream"
)

// StreamResult reports the streaming solver's matching together with its
// measured resource usage.
type StreamResult struct {
	M *graph.Matching
	// Passes is the number of passes taken over the stream. Since PR 10 it
	// is read off the stream's own Passes() counter (the accounting
	// authority) rather than hand-counted next to Reset calls; the naive
	// reference grower in this package's tests still hand-counts, and the
	// drift test pins the two equal.
	Passes int
	// PeakStored is the peak number of words (edges + path entries) held.
	PeakStored int
}

// StreamOptions configures the PR 10 extensions of Streaming; the zero
// value reproduces the historical behaviour.
type StreamOptions struct {
	// Account, when non-nil, is charged for every stream-dependent word the
	// run holds: the matching under construction plus the live alternating
	// path storage. Its Peak then bounds the run like PeakStored but on the
	// shared streaming-tier meter.
	Account *stream.Accountant
	// Scratch, when non-nil, supplies the arena for the per-round path
	// growth so repeated runs stop allocating (the PR 1 Scratch idiom).
	Scratch *StreamScratch
}

// Streaming computes a large matching of a bipartite graph delivered as an
// edge stream, in the multi-pass semi-streaming model. It is the stand-in
// for the Ahn–Guha [AG13] subroutine of Theorem 1.2(2): pass 1 builds a
// greedy maximal matching (1/2-approximate); each later group of passes
// grows a maximal set of vertex-disjoint augmenting paths of length at most
// 2·ceil(1/δ)−1 layer by layer (one pass per unmatched layer, in the style
// of Eggert et al. [EKMS12]) and applies them. Rounds repeat until one finds
// no augmenting path, so pass complexity is O_δ(1) per improvement round and
// independent of n.
//
// The layer growth is greedy-maximal, so unlike exact Hopcroft–Karp phases
// the (1−δ) guarantee is inherited only approximately; experiments measure
// the realised ratio against the exact solver (see DESIGN.md, "Experiment
// index", E4).
func Streaming(n int, side []bool, s stream.EdgeStream, delta float64, opts StreamOptions) StreamResult {
	if delta <= 0 || delta > 1 {
		delta = 0.1
	}
	ell := int(math.Ceil(1 / delta))
	maxLen := 2*ell - 1        // augmenting path length cap, Fact 1.3
	layers := (maxLen + 1) / 2 // unmatched-edge layers per round
	maxRounds := 4 * ell       // round budget (each round costs `layers` passes)

	acct := opts.Account
	charge := func(delta int) {
		if acct != nil {
			acct.Hold(delta)
		}
	}
	sc := opts.Scratch
	if sc == nil {
		sc = &StreamScratch{}
	}

	res := StreamResult{M: graph.NewMatching(n)}

	// Pass 1: greedy maximal matching. Edge weights are irrelevant to the
	// cardinality objective but preserved so that callers (the Section 4
	// reduction) can translate the matching back to weighted structures.
	s.Reset()
	passes0 := s.Passes()
	for e, ok := s.Next(); ok; e, ok = s.Next() {
		if !res.M.IsMatched(e.U) && !res.M.IsMatched(e.V) {
			mustAdd(res.M, e)
		}
	}
	res.PeakStored = res.M.Size()
	charge(res.M.Size())

	for round := 0; round < maxRounds; round++ {
		pathWords := sc.grow(n, side, res.M, layers, func() {
			s.Reset()
		}, func(visit func(l, r int, w graph.Weight)) {
			for e, ok := s.Next(); ok; e, ok = s.Next() {
				l, r := orient(side, e)
				visit(l, r, e.W)
			}
		}, &res.PeakStored, charge)
		before := res.M.Size()
		applied := sc.apply(res.M)
		charge(res.M.Size() - before)
		charge(-pathWords)
		if applied == 0 {
			break
		}
	}
	res.Passes = s.Passes() - passes0
	charge(-res.M.Size()) // balance the run's holds so Peak meters one run
	return res
}

// orient returns (left, right) endpoints of e under side.
func orient(side []bool, e graph.Edge) (int, int) {
	if side[e.U] {
		return e.V, e.U
	}
	return e.U, e.V
}

// StreamScratch is the arena behind the flat path grower. Paths live in an
// append-only chain table: entry i holds a vertex (chainV), the index of
// the previous vertex on its path (chainPrev, −1 at a path's free root),
// and the weight of the edge arriving at it (chainW, unused at roots), so
// a path is recovered by walking prev links back from its last entry. A
// chain table rather than a per-path stride block because the grower can
// extend one path several times within a single pass (a freshly planted
// tip is live for the remainder of the scan), so per-layer growth is not
// bounded per path — only in total. tip encodes the naive form's map as
// tip[v] = chain entry index + 1 with 0 meaning "no active path ends at
// v". A zero StreamScratch is ready to use; reuse across rounds and runs
// retains every allocation.
type StreamScratch struct {
	tip       []int32
	used      []bool
	chainV    []int32
	chainPrev []int32
	chainW    []graph.Weight
	completed []int32
	pathV     []int32
	pathW     []graph.Weight
	add       []graph.Edge
	remove    []graph.Edge
}

// grow runs one round of layer-by-layer augmenting path growth, the flat
// counterpart of the test-side naive grower growAugmentingPaths: identical
// visit decisions in identical order, with the tip map replaced by the tip
// array and the per-path vertex slices by the chain table. It returns the
// number of path words still held so the caller can release them from the
// accountant after applying, and leaves the completed chain indices in
// sc.completed for apply.
func (sc *StreamScratch) grow(
	n int,
	side []bool,
	m *graph.Matching,
	layers int,
	beginLayer func(),
	scanLayer func(visit func(l, r int, w graph.Weight)),
	peak *int,
	charge func(int),
) int {
	if cap(sc.tip) < n {
		sc.tip = make([]int32, n)
	} else {
		sc.tip = sc.tip[:n]
		clear(sc.tip)
	}
	if cap(sc.used) < n {
		sc.used = make([]bool, n)
	} else {
		sc.used = sc.used[:n]
		clear(sc.used)
	}
	sc.chainV = sc.chainV[:0]
	sc.chainPrev = sc.chainPrev[:0]
	sc.chainW = sc.chainW[:0]
	sc.completed = sc.completed[:0]

	active := 0
	for v := 0; v < n; v++ {
		if !side[v] && !m.IsMatched(v) {
			sc.tip[v] = int32(len(sc.chainV)) + 1
			sc.chainV = append(sc.chainV, int32(v))
			sc.chainPrev = append(sc.chainPrev, -1)
			sc.chainW = append(sc.chainW, 0)
			sc.used[v] = true
			active++
		}
	}

	charged := 0
	for layer := 0; layer < layers && active > 0; layer++ {
		beginLayer()
		scanLayer(func(l, r int, w graph.Weight) {
			ti := sc.tip[l]
			if ti == 0 || sc.used[r] {
				return
			}
			sc.used[r] = true
			sc.tip[l] = 0
			rIdx := int32(len(sc.chainV))
			sc.chainV = append(sc.chainV, int32(r))
			sc.chainPrev = append(sc.chainPrev, ti-1)
			sc.chainW = append(sc.chainW, w)
			mate := m.Mate(r)
			if mate == graph.Unmatched {
				sc.completed = append(sc.completed, rIdx)
				active--
				return
			}
			sc.used[mate] = true
			sc.chainV = append(sc.chainV, int32(mate))
			sc.chainPrev = append(sc.chainPrev, rIdx)
			sc.chainW = append(sc.chainW, m.EdgeWeightAt(r))
			sc.tip[mate] = rIdx + 2
		})
		// len(chainV) is exactly the naive form's pathStorage: one chain
		// entry per vertex appended to any path, roots included.
		if total := len(sc.chainV); total > *peak {
			*peak = total
		}
		charge(len(sc.chainV) - charged)
		charged = len(sc.chainV)
	}
	return charged
}

// completedWords returns the number of vertices on the completed paths of
// the last grow: the path words MPC's coordinator holds while it applies
// them.
func (sc *StreamScratch) completedWords() int {
	words := 0
	for _, end := range sc.completed {
		for i := end; i >= 0; i = sc.chainPrev[i] {
			words++
		}
	}
	return words
}

// apply applies the completed paths of the last grow to m, mirroring
// applyAugPaths over the chain table, and returns the number applied.
func (sc *StreamScratch) apply(m *graph.Matching) int {
	applied := 0
	for _, end := range sc.completed {
		// Walk the chain back to the root, then reverse into root-first
		// order; pathW[j] becomes the weight of pathV[j]–pathV[j+1].
		sc.pathV = sc.pathV[:0]
		sc.pathW = sc.pathW[:0]
		for i := end; i >= 0; i = sc.chainPrev[i] {
			sc.pathV = append(sc.pathV, sc.chainV[i])
			sc.pathW = append(sc.pathW, sc.chainW[i])
		}
		for i, j := 0, len(sc.pathV)-1; i < j; i, j = i+1, j-1 {
			sc.pathV[i], sc.pathV[j] = sc.pathV[j], sc.pathV[i]
		}
		sc.pathW = sc.pathW[:len(sc.pathW)-1] // drop the root's dummy weight
		for i, j := 0, len(sc.pathW)-1; i < j; i, j = i+1, j-1 {
			sc.pathW[i], sc.pathW[j] = sc.pathW[j], sc.pathW[i]
		}
		vl := len(sc.pathV)
		sc.add = sc.add[:0]
		sc.remove = sc.remove[:0]
		for i := 0; i+1 < vl; i += 2 {
			sc.add = append(sc.add, graph.Edge{
				U: int(sc.pathV[i]), V: int(sc.pathV[i+1]), W: sc.pathW[i],
			})
		}
		for i := 1; i+1 < vl; i += 2 {
			u := int(sc.pathV[i])
			sc.remove = append(sc.remove, graph.Edge{
				U: u, V: int(sc.pathV[i+1]), W: m.EdgeWeightAt(u),
			})
		}
		if _, err := graph.Apply(m, graph.Augmentation{Remove: sc.remove, Add: sc.add}); err == nil {
			applied++
		}
	}
	return applied
}

func mustAdd(m *graph.Matching, e graph.Edge) {
	if err := m.Add(e); err != nil {
		panic(err)
	}
}
