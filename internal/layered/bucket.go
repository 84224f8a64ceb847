package layered

import (
	"math"

	"repro/internal/graph"
)

// AUnitOf returns the matched-window unit of weight wt at class weight w:
// the τA window of unit u is ((u−1)·g·W, u·g·W], so wt belongs to unit
// ceil(wt / (g·W)). Units above maxU (i.e. weights above W) fit no window.
func AUnitOf(wt graph.Weight, w float64, prm Params) int {
	return int(math.Ceil(float64(wt) / (prm.Granularity * w)))
}

// BUnitOf returns the unmatched-window unit of weight wt at class weight w:
// the τB window of unit u is [u·g·W, (u+1)·g·W), so wt belongs to unit
// floor(wt / (g·W)).
func BUnitOf(wt graph.Weight, w float64, prm Params) int {
	return int(math.Floor(float64(wt) / (prm.Granularity * w)))
}

// Index is the bucket view BuildIndexed consumes: the parametrized edges of
// one class weight, grouped by τ unit. Two implementations exist:
// BucketIndex rebuilds the grouping from scratch per (round, class) — the
// naive path, kept as the differential oracle — and IncIndex's views
// amortise it across a whole Solve run. Both must return identical edge
// sequences for every unit the Table-1 enumeration can query (A units
// 1..maxU, B units 2..maxU); the differential and fuzz suites assert it.
// Each form summarises its populated units for the enumeration itself
// (BucketIndex.Masks, IncView.Masks).
type Index interface {
	// Parametrization returns the round's parametrized graph.
	Parametrization() *Parametrized
	// ClassWeight returns the augmentation-class weight W.
	ClassWeight() float64
	// Config returns the discretisation parameters.
	Config() Params
	// A returns the matched crossing edges whose weight lies in the unit-u
	// τA window, in the matching's order (ascending smaller endpoint, the
	// graph.Matching.Edges order).
	A(u int) []graph.Edge
	// B returns the unmatched crossing edges whose weight lies in the
	// unit-u τB window, in the graph's edge order.
	B(u int) []graph.Edge
}

// BucketIndex pre-buckets a parametrization's edges by τ unit for one class
// weight W, so that Build touches only the edges whose weights lie in each
// layer's window instead of rescanning every crossing edge once per layer.
// The same counts drive the good-pair viability filter of Algorithm 4: a
// pair whose any window is empty cannot contribute (an empty matched window
// empties its layer and the vertex filter disconnects it; an empty unmatched
// window leaves no Y edges between two layers).
type BucketIndex struct {
	Par *Parametrized
	W   float64
	Prm Params

	// aBuckets[u] holds the matched crossing edges of unit u (window
	// ((u−1)gW, ugW]); bBuckets[u] the unmatched ones of unit u (window
	// [ugW, (u+1)gW)). Both are indexed 0..maxU; out-of-range edges are
	// dropped (they fit no τ window).
	aBuckets, bBuckets [][]graph.Edge
}

// NewBucketIndex buckets par's edges for class weight w. The arithmetic is
// exactly the viability bucketing of Algorithm 4 (ceil for matched windows,
// floor for unmatched ones), making the per-layer window test a slice lookup.
func NewBucketIndex(par *Parametrized, w float64, prm Params) *BucketIndex {
	ix := &BucketIndex{}
	ix.Reset(par, w, prm)
	return ix
}

// Reset re-buckets the index for a new (par, w), reusing the bucket storage.
// It draws the crossing edges from the parametrization itself: the matched
// ones in the matching's order (ascending smaller endpoint), the unmatched
// ones in the graph's edge order.
func (ix *BucketIndex) Reset(par *Parametrized, w float64, prm Params) {
	prm = prm.WithDefaults()
	maxU, _ := prm.Units()
	ix.Par, ix.W, ix.Prm = par, w, prm
	ix.aBuckets = resetBuckets(ix.aBuckets, maxU+1)
	ix.bBuckets = resetBuckets(ix.bBuckets, maxU+1)
	side, m := par.Side, par.M
	for v := 0; v < m.N(); v++ {
		if mate := m.Mate(v); mate > v && side[v] != side[mate] {
			e := graph.Edge{U: v, V: mate, W: m.EdgeWeightAt(v)}
			if u := AUnitOf(e.W, w, prm); u >= 0 && u <= maxU {
				ix.aBuckets[u] = append(ix.aBuckets[u], e)
			}
		}
	}
	for _, e := range par.edges {
		if side[e.U] == side[e.V] || m.Has(e.U, e.V) {
			continue
		}
		if u := BUnitOf(e.W, w, prm); u >= 0 && u <= maxU {
			ix.bBuckets[u] = append(ix.bBuckets[u], e)
		}
	}
}

func resetBuckets(b [][]graph.Edge, n int) [][]graph.Edge {
	if cap(b) < n {
		nb := make([][]graph.Edge, n)
		copy(nb, b[:cap(b)])
		b = nb
	}
	b = b[:n]
	for i := range b {
		b[i] = b[i][:0]
	}
	return b
}

// Parametrization returns ix.Par (Index interface).
func (ix *BucketIndex) Parametrization() *Parametrized { return ix.Par }

// ClassWeight returns ix.W (Index interface).
func (ix *BucketIndex) ClassWeight() float64 { return ix.W }

// Config returns ix.Prm (Index interface).
func (ix *BucketIndex) Config() Params { return ix.Prm }

// A returns the matched edges whose weight lies in the unit-u τA window.
func (ix *BucketIndex) A(u int) []graph.Edge {
	if u < 0 || u >= len(ix.aBuckets) {
		return nil
	}
	return ix.aBuckets[u]
}

// B returns the unmatched edges whose weight lies in the unit-u τB window.
func (ix *BucketIndex) B(u int) []graph.Edge {
	if u < 0 || u >= len(ix.bBuckets) {
		return nil
	}
	return ix.bBuckets[u]
}

// ACount returns len(A(u)).
func (ix *BucketIndex) ACount(u int) int { return len(ix.A(u)) }

// BCount returns len(B(u)).
func (ix *BucketIndex) BCount(u int) int { return len(ix.B(u)) }

// Masks summarises the populated buckets as unit bitmasks for the memoised
// good-pair enumeration: bit u of aMask/bMask is set when the unit-u window
// holds at least one edge; bit 0 of aMask is always set (τA = 0 marks a free
// endpoint, not a weight window). ok is false when the unit range exceeds
// 63 bits and callers must fall back to EnumerateGoodPairsLimited.
func (ix *BucketIndex) Masks() (aMask, bMask uint64, ok bool) {
	if len(ix.aBuckets) > 64 {
		return 0, 0, false
	}
	aMask = 1
	for u := 1; u < len(ix.aBuckets); u++ {
		if len(ix.aBuckets[u]) > 0 {
			aMask |= 1 << uint(u)
		}
	}
	for u := 0; u < len(ix.bBuckets); u++ {
		if len(ix.bBuckets[u]) > 0 {
			bMask |= 1 << uint(u)
		}
	}
	return aMask, bMask, true
}
