package layered

import (
	"sync"
	"sync/atomic"
)

// TauPair is a good (τA, τB) pair in the sense of Table 1. Entries are
// stored as integer multiples of the granularity g to keep constraint
// checking exact: τA_i = AUnits[i]·g and τB_i = BUnits[i]·g.
type TauPair struct {
	AUnits []int
	BUnits []int
}

// K returns the number of unmatched (τB) layers.
func (t TauPair) K() int { return len(t.BUnits) }

// IsGood checks the six Table-1 constraints against p:
//
//	(A) |τA| ≤ MaxLayers,
//	(B) |τB| = |τA| − 1,
//	(C) entries are non-negative multiples of g (structural: units are ints),
//	(D) every τB entry and every interior τA entry is ≥ 2g,
//	(E) Στ_B ≤ SumCap,
//	(F) Στ_B − Στ_A ≥ g.
func (t TauPair) IsGood(p Params) bool {
	p = p.WithDefaults()
	maxU, capU := p.Units()
	if len(t.AUnits) < 2 || len(t.AUnits) > p.MaxLayers { // (A)
		return false
	}
	if len(t.BUnits) != len(t.AUnits)-1 { // (B)
		return false
	}
	sumA, sumB := 0, 0
	for i, a := range t.AUnits {
		if a < 0 || a > maxU { // (C) range
			return false
		}
		if i > 0 && i < len(t.AUnits)-1 && a < 2 { // (D) interior
			return false
		}
		sumA += a
	}
	for _, b := range t.BUnits {
		if b < 2 || b > maxU { // (C)+(D)
			return false
		}
		sumB += b
	}
	if sumB > capU { // (E)
		return false
	}
	return sumB-sumA >= 1 // (F)
}

// EnumerateGoodPairs generates every good (τA, τB) pair under p. The
// Table-1 constraints prune the space hard: Στ_B ≤ SumCap with every entry
// ≥ 2g bounds both the layer count and the per-layer choices.
func EnumerateGoodPairs(p Params) []TauPair {
	return EnumerateGoodPairsFiltered(p, nil, nil)
}

// EnumerateGoodPairsFiltered generates the good pairs whose every entry
// passes the given unit filters: aOK(u) must accept every τA entry and
// bOK(u) every τB entry (nil filters accept everything). Algorithm 4 uses
// the filters to enumerate only pairs whose weight windows contain at least
// one edge of the instance, collapsing the search space from all of Table 1
// to the populated buckets.
func EnumerateGoodPairsFiltered(p Params, aOK, bOK func(unit int) bool) []TauPair {
	return EnumerateGoodPairsLimited(p, aOK, bOK, 0)
}

// EnumerateGoodPairsLimited is EnumerateGoodPairsFiltered that stops after
// limit pairs (0 = unlimited). The generation order is deterministic, so
// the result is always a prefix of the unlimited enumeration; the recursion
// exits early instead of materialising a combinatorial list that the caller
// (bounded by MaxPairsPerClass) would truncate anyway — at fine granularity
// the full Table-1 space runs into millions of pairs.
func EnumerateGoodPairsLimited(p Params, aOK, bOK func(unit int) bool, limit int) []TauPair {
	p = p.WithDefaults()
	maxU, capU := p.Units()
	okA := func(u int) bool { return aOK == nil || aOK(u) }
	okB := func(u int) bool { return bOK == nil || bOK(u) }
	full := func() bool { return false }
	var out []TauPair
	if limit > 0 {
		full = func() bool { return len(out) >= limit }
	}

	for k := 1; k <= p.MaxLayers-1 && !full(); k++ {
		if 2*k > capU {
			break // (D)+(E): k layers need Στ_B >= 2k
		}
		bs := make([]int, k)
		var genB func(i, sumB int)
		as := make([]int, k+1)
		var genA func(i, sumA, budget int, emitB []int)

		genA = func(i, sumA, budget int, bUnits []int) {
			if sumA > budget || full() {
				return
			}
			if i == k+1 {
				a := make([]int, k+1)
				b := make([]int, k)
				copy(a, as)
				copy(b, bUnits)
				out = append(out, TauPair{AUnits: a, BUnits: b})
				return
			}
			lo := 0
			if i > 0 && i < k { // interior entries
				lo = 2
			}
			// Endpoint entries range over every multiple of g including 0
			// (free endpoint) and 1 (matched edge lighter than the bucket
			// width); Table 1 restricts only interior entries to >= 2g.
			for v := lo; v <= maxU && sumA+v <= budget; v++ {
				if !okA(v) {
					continue
				}
				as[i] = v
				genA(i+1, sumA+v, budget, bUnits)
			}
		}
		genB = func(i, sumB int) {
			if full() {
				return
			}
			if i == k {
				// (F): Στ_A ≤ Στ_B − 1 unit.
				genA(0, 0, sumB-1, bs)
				return
			}
			// Remaining layers each need ≥ 2 units.
			for v := 2; v <= maxU && sumB+v+2*(k-1-i) <= capU; v++ {
				if !okB(v) {
					continue
				}
				bs[i] = v
				genB(i+1, sumB+v)
			}
		}
		genB(0, 0)
	}
	return out
}

// SurvivalOracle answers, during pair generation, whether a single layer of
// a prospective (τA, τB) pair could contribute a Y edge. It is the
// enumeration-time form of the IncView survival probe: LayerRow(b, a) is the
// probe row of the unit-b unmatched window at matched-unit row a — bit la
// set when some unit-b unmatched crossing edge runs from an R endpoint of
// matched unit a (row 0: free R endpoint) to an L endpoint of matched unit
// la (bit FreeLBit: free L endpoint). The rows are exactly the per-(class,
// unit) crossing tables of IncIndex, so a pruned enumeration rejects
// precisely the pairs ProbeY would reject after generation.
type SurvivalOracle interface {
	LayerRow(bUnit, aUnit int) uint64
}

// FreeLBit is the probe-row bit marking a free L endpoint (the last-layer
// τA = 0 rule). Unit bits occupy 0..maxU, so oracle-guided enumeration
// requires maxU < FreeLBit.
const FreeLBit = freeLBit

// PairScratch is the reusable arena of EnumerateSurvivingPairs: the
// counting tables, recursion stacks, and the emitted pairs' unit storage are
// kept across calls, so the per-(round, class) enumeration stops allocating.
// The counting tables additionally persist across rounds (they depend only
// on the discretisation and aMask, not on the oracle's per-round rows) and
// are rebuilt only when those change. A PairScratch is not safe for
// concurrent use; use one per class context. Pairs returned through a
// scratch are valid until its next use.
type PairScratch struct {
	// dp[k-1][i*capU+s] counts the A-side completions of positions i..k
	// with sum ≤ s, per layer count k; valid while dpMask/dpMaxU/dpCapU
	// match the call.
	dp          [][]int
	dpMask      uint64
	dpMaxU      int
	dpCapU      int
	dpMaxLayers int
	// total is the number of good pairs under (aMask, bMask) — the
	// closed-form count of a fully dead class-round; valid while the
	// tot masks match the call's.
	total    int
	totAMask uint64
	totBMask uint64
	totOK    bool

	rowUnion  []pairUnions
	bs, as    []int
	canFree   []bool
	suffixAny []bool
	pairs     []TauPair
	units     []int // slab backing the emitted pairs' unit slices
	bcnt      []int // B-side counting scratch for ensureTotal
}

type pairUnions struct {
	end, interior uint64
	ok            bool
}

// NewPairScratch returns an empty arena.
func NewPairScratch() *PairScratch { return &PairScratch{} }

// EnumerateSurvivingPairs is EnumerateGoodPairsMasked with the survival
// probe pushed into the recursion: subtrees of the (τA, τB) generation whose
// every completion would fail the probe (no layer can contribute a Y edge)
// are pruned before their pairs materialise, instead of each pair being
// generated and then probed. The returned pairs are exactly the pairs of
// EnumerateGoodPairsMasked(p, aMask, bMask, limit) that pass oracle-backed
// ProbeY — same pairs, same order — and pruned counts the good pairs inside
// the limit window that were skipped as dead (the pairs the generate-then-
// probe loop would have built and rejected), so the two paths reconcile
// counter-for-counter. The limit window itself is measured in generated good
// pairs, pruned ones included: a pruned subtree's pair count is charged via
// a closed-form completion count, keeping the window — and therefore the
// surviving set — identical to the unpruned enumeration's prefix.
//
// The result is not memoised (the oracle's rows change every round), so
// callers pay one pruned recursion per (round, class); with a scratch the
// recursion reuses its arena and the returned pairs alias scratch storage
// (nil scratch allocates fresh).
func EnumerateSurvivingPairs(p Params, aMask, bMask uint64, limit int, o SurvivalOracle, s *PairScratch) (pairs []TauPair, pruned int) {
	p = p.WithDefaults()
	maxU, capU := p.Units()
	if maxU >= freeLBit {
		// Unit bits would collide with the free-L marker; the probe path
		// gates on this bound (IncView.Oracle), so reaching here is a
		// caller bug rather than a fallback case.
		panic("layered: discretisation too fine for survival-guided enumeration")
	}
	if s == nil {
		s = NewPairScratch()
	}
	okA := func(u int) bool { return aMask&(1<<uint(u)) != 0 }
	okB := func(u int) bool { return bMask&(1<<uint(u)) != 0 }

	// Column masks per position kind: bit v for a τA entry of unit v ≥ 1,
	// FreeLBit for a final entry of 0 (free L endpoint). Row masks mirror
	// them on the R side, where a first entry of 0 is probe row 0.
	unitBits := (uint64(1)<<uint(maxU+1) - 1)
	endRows := aMask & unitBits
	intRows := aMask & unitBits &^ 3 // interior entries are ≥ 2
	intCols := intRows
	endCols := aMask & unitBits &^ 1
	if okA(0) {
		endCols |= 1 << freeLBit
	}

	s.ensureDP(p, aMask, maxU, capU)

	// rowUnion[u] caches, per populated τB unit, the union of the oracle's
	// rows over the allowed row sets: what any layer of that unit could
	// reach with its R-side entry still free. The rows change every round,
	// so only the storage is reused.
	if cap(s.rowUnion) < maxU+1 {
		s.rowUnion = make([]pairUnions, maxU+1)
	}
	rowUnion := s.rowUnion[:maxU+1]
	for i := range rowUnion {
		rowUnion[i].ok = false
	}
	unionFor := func(u int) pairUnions {
		if !rowUnion[u].ok {
			var end, interior uint64
			for r := 0; r <= maxU; r++ {
				if endRows&(1<<uint(r)) == 0 && intRows&(1<<uint(r)) == 0 {
					continue
				}
				row := o.LayerRow(u, r)
				if endRows&(1<<uint(r)) != 0 {
					end |= row
				}
				if intRows&(1<<uint(r)) != 0 {
					interior |= row
				}
			}
			rowUnion[u] = pairUnions{end: end, interior: interior, ok: true}
		}
		return rowUnion[u]
	}

	s.pairs = s.pairs[:0]
	s.units = s.units[:0]
	generated := 0
	full := func() bool { return limit > 0 && generated >= limit }

	// Fast path for a fully dead class-round: if no populated τB unit can
	// contribute a Y edge in any (row kind, column kind) combination, every
	// good pair is dead — charge the closed-form good-pair count to the
	// window without recursing at all. On workloads where most classes see
	// no viable layer in most rounds, this collapses the per-(round, class)
	// enumeration to a handful of bit tests over the probe tables.
	anyAlive := false
	for u := 2; u <= maxU && !anyAlive; u++ {
		if bMask&(1<<uint(u)) == 0 {
			continue
		}
		un := unionFor(u)
		if (un.end|un.interior)&(endCols|intCols) != 0 {
			anyAlive = true
		}
	}
	if !anyAlive {
		s.ensureTotal(p, aMask, bMask, maxU, capU)
		n := s.total
		if limit > 0 && n > limit {
			n = limit
		}
		return s.pairs, n
	}

	maxK := p.MaxLayers - 1
	s.bs = growInts(s.bs, maxK)
	s.as = growInts(s.as, maxK+1)
	if cap(s.canFree) < maxK {
		s.canFree = make([]bool, maxK)
		s.suffixAny = make([]bool, maxK+2)
	}

	for k := 1; k <= maxK && !full(); k++ {
		if 2*k > capU {
			break // (D)+(E): k layers need Στ_B >= 2k
		}
		// ways[i*capU+s] counts the A-side completions of positions i..k
		// with sum ≤ s — the closed-form pair count of a pruned subtree.
		ways := s.dp[k-1]

		bs := s.bs[:k]
		as := s.as[:k+1]
		// colMask describes layer t's L-side freedom; it depends only on
		// the position kind, while canFree and suffixAny are recomputed per
		// τB assignment (they read the oracle's rows).
		colMask := func(t int) uint64 {
			if t+1 == k {
				return endCols
			}
			return intCols
		}
		canFree := s.canFree[:k]
		suffixAny := s.suffixAny[:k+2]

		var genA func(i, sumA, budget int, done bool)
		genA = func(i, sumA, budget int, done bool) {
			if sumA > budget || full() {
				return
			}
			// pending is the probe row of layer i−1, whose R-side entry
			// as[i−1] is already pinned while its L-side entry is the value
			// being chosen at this position.
			var pending uint64
			if !done && i >= 1 && i <= k {
				pending = o.LayerRow(bs[i-1], as[i-1])
			}
			if !done {
				// Could any completion still contribute a Y edge? Layer i−1
				// can reach only what pending allows; layers ≥ i are free.
				possible := suffixAny[i]
				if !possible && i >= 1 && i <= k {
					possible = pending&colMask(i-1) != 0
				}
				if !possible {
					// Dead subtree: charge its pairs to the limit window
					// without materialising them.
					n := ways[i*capU+budget-sumA]
					if limit > 0 && n > limit-generated {
						n = limit - generated
					}
					generated += n
					pruned += n
					return
				}
			}
			if i == k+1 {
				off := len(s.units)
				s.units = append(s.units, as...)
				s.units = append(s.units, bs...)
				s.pairs = append(s.pairs, TauPair{
					AUnits: s.units[off : off+k+1 : off+k+1],
					BUnits: s.units[off+k+1 : off+2*k+1 : off+2*k+1],
				})
				generated++
				return
			}
			lo := 0
			if i > 0 && i < k {
				lo = 2
			}
			for v := lo; v <= maxU && sumA+v <= budget && !full(); v++ {
				if !okA(v) {
					continue
				}
				nd := done
				if !nd && i >= 1 && i <= k {
					switch {
					case v > 0:
						nd = pending&(1<<uint(v)) != 0
					case i == k:
						nd = pending&(1<<freeLBit) != 0
					}
				}
				as[i] = v
				genA(i+1, sumA+v, budget, nd)
			}
		}
		var genB func(i, sumB int)
		genB = func(i, sumB int) {
			if full() {
				return
			}
			if i == k {
				for t := 0; t < k; t++ {
					un := unionFor(bs[t])
					rows := un.interior
					if t == 0 {
						rows = un.end
					}
					canFree[t] = rows&colMask(t) != 0
				}
				suffixAny[k] = false
				suffixAny[k+1] = false
				for t := k - 1; t >= 0; t-- {
					suffixAny[t] = canFree[t] || suffixAny[t+1]
				}
				genA(0, 0, sumB-1, false)
				return
			}
			for v := 2; v <= maxU && sumB+v+2*(k-1-i) <= capU; v++ {
				if !okB(v) {
					continue
				}
				bs[i] = v
				genB(i+1, sumB+v)
			}
		}
		genB(0, 0)
	}
	return s.pairs, pruned
}

// ensureDP (re)builds the per-k completion-count tables when the
// discretisation or the aMask changed since the last call: dp[k-1][i*capU+s]
// counts the ways to fill A-side positions i..k with sum ≤ s under the
// position constraints and the aMask filter.
func (s *PairScratch) ensureDP(p Params, aMask uint64, maxU, capU int) {
	if s.dpMask == aMask && s.dpMaxU == maxU && s.dpCapU == capU &&
		s.dpMaxLayers == p.MaxLayers {
		return
	}
	s.dpMask, s.dpMaxU, s.dpCapU, s.dpMaxLayers = aMask, maxU, capU, p.MaxLayers
	maxK := p.MaxLayers - 1
	if cap(s.dp) < maxK {
		s.dp = make([][]int, maxK)
	}
	s.dp = s.dp[:maxK]
	for k := 1; k <= maxK; k++ {
		ways := s.dp[k-1]
		if cap(ways) < (k+2)*capU {
			ways = make([]int, (k+2)*capU)
		}
		ways = ways[:(k+2)*capU]
		s.dp[k-1] = ways
		for sum := 0; sum < capU; sum++ {
			ways[(k+1)*capU+sum] = 1
		}
		for i := k; i >= 0; i-- {
			lo := 0
			if i > 0 && i < k {
				lo = 2
			}
			for sum := 0; sum < capU; sum++ {
				n := 0
				for v := lo; v <= maxU && v <= sum; v++ {
					if aMask&(1<<uint(v)) != 0 {
						n += ways[(i+1)*capU+sum-v]
					}
				}
				ways[i*capU+sum] = n
			}
		}
	}
}

// ensureTotal (re)computes the total good-pair count under the masks when
// they changed since the last call: the τB composition counts (one rolling
// DP pass per layer count) convolved with the A-side completion tables of
// ensureDP. It must be called after ensureDP with the same discretisation.
func (s *PairScratch) ensureTotal(p Params, aMask, bMask uint64, maxU, capU int) {
	if s.totOK && s.totAMask == aMask && s.totBMask == bMask {
		return
	}
	s.totOK, s.totAMask, s.totBMask = true, aMask, bMask
	maxK := p.MaxLayers - 1
	if cap(s.bcnt) < capU+1 {
		s.bcnt = make([]int, capU+1)
	}
	cur := s.bcnt[:capU+1]
	clear(cur)
	cur[0] = 1 // zero entries, sum 0
	total := 0
	for k := 1; k <= maxK && 2*k <= capU; k++ {
		// Advance the composition counts by one τB entry, in place: high
		// sums first, so cur[sum−v] still holds the (k−1)-entry counts.
		for sum := capU; sum >= 0; sum-- {
			n := 0
			for v := 2; v <= maxU && v <= sum; v++ {
				if bMask&(1<<uint(v)) != 0 {
					n += cur[sum-v]
				}
			}
			cur[sum] = n
		}
		ways := s.dp[k-1]
		for sum := 2 * k; sum <= capU; sum++ {
			if cur[sum] > 0 {
				total += cur[sum] * ways[sum-1] // A completions with Στ_A ≤ sum−1
			}
		}
	}
	s.total = total
}

func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// pairCacheKey identifies one filtered enumeration: the discretisation, the
// populated-unit bitmasks (bit u set when the filter accepts unit u), and
// the generation limit.
type pairCacheKey struct {
	maxU, capU, maxLayers, limit int
	aMask, bMask                 uint64
}

var pairCache sync.Map // pairCacheKey -> []TauPair

// pairCacheLimit bounds the memo; distinct masks are few in practice (they
// follow the populated weight buckets of the instance), so hitting the limit
// means a pathological workload and we simply stop inserting.
const pairCacheLimit = 1 << 14

var pairCacheSize atomic.Int64

// EnumerateGoodPairsMasked is EnumerateGoodPairsLimited with the unit
// filters given as bitmasks (bit u accepts unit u; callers need maxU ≤ 63,
// see BucketIndex.Masks), memoised globally: the reduction re-enumerates
// the same populated-bucket signature for every class of every round, so
// the recursion runs once per distinct signature. The returned slice is
// shared — callers must not mutate it.
func EnumerateGoodPairsMasked(p Params, aMask, bMask uint64, limit int) []TauPair {
	p = p.WithDefaults()
	maxU, capU := p.Units()
	key := pairCacheKey{maxU: maxU, capU: capU, maxLayers: p.MaxLayers, limit: limit,
		aMask: aMask, bMask: bMask}
	if v, ok := pairCache.Load(key); ok {
		return v.([]TauPair)
	}
	pairs := EnumerateGoodPairsLimited(p,
		func(u int) bool { return aMask&(1<<uint(u)) != 0 },
		func(u int) bool { return bMask&(1<<uint(u)) != 0 },
		limit,
	)
	if pairCacheSize.Load() < pairCacheLimit {
		if _, loaded := pairCache.LoadOrStore(key, pairs); !loaded {
			pairCacheSize.Add(1)
		}
	}
	return pairs
}
