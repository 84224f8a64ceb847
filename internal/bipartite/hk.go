// Package bipartite implements the unweighted bipartite matching substrates
// that the Section 4 reduction consumes as its Unw-Bip-Matching black box:
// exact Hopcroft–Karp, a bounded-phase (1−δ)-approximation, a multi-pass
// semi-streaming implementation (the [AG13]/[EKMS12] stand-in of Theorem
// 1.2(2)), and an MPC implementation with round counting (the [GGK+18]
// stand-in of Theorem 1.2(1)).
//
// # Incremental repair
//
// For the amortised pipeline the exact solver also runs retained:
// HopcroftKarpRetained keeps the adjacency CSR and result arena of each
// solve, and RepairHK patches that retained state into the next
// instance's solve when the caller proves (via layered.DeltaInfo, which
// names the baseline build and the byte-shared suffix of the L' edge
// list) that most of the instance is unchanged. The repaired solve is
// bit-identical to a fresh one — same matching, same phase count —
// because the patched CSR is byte-identical to the rebuilt one (Invariant
// 21). A baseline that is missing, foreign, or inconsistent is rejected
// with one of the three ErrRepair* sentinels (NoBase, Stale, Info) and
// the caller re-solves cold — the solver rung of core's degradation
// ladder; together with the five layered.ErrDelta* sentinels these are
// the ladder's eight recoverable sentinels.
package bipartite

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Bip is a bipartite graph view: vertices [0, n) split by side (false =
// left, true = right); edges all cross sides.
type Bip struct {
	N     int
	Side  []bool
	Edges []graph.Edge
}

// NewBip validates that every edge crosses the bipartition.
func NewBip(n int, side []bool, edges []graph.Edge) (*Bip, error) {
	if len(side) != n {
		return nil, fmt.Errorf("bipartite: side has %d entries for n=%d", len(side), n)
	}
	for _, e := range edges {
		if side[e.U] == side[e.V] {
			return nil, fmt.Errorf("bipartite: edge %v does not cross the bipartition", e)
		}
	}
	return &Bip{N: n, Side: side, Edges: edges}, nil
}

// leftAdjacency returns adjacency lists indexed by left vertices.
func (b *Bip) leftAdjacency() [][]graph.IncidentEdge {
	adj := make([][]graph.IncidentEdge, b.N)
	for i, e := range b.Edges {
		l, r := e.U, e.V
		if b.Side[l] {
			l, r = r, l
		}
		adj[l] = append(adj[l], graph.IncidentEdge{To: r, W: e.W, EdgeIndex: i})
	}
	return adj
}

// Result carries a matching together with the phase count the solver used
// (Hopcroft–Karp phases; each phase handles one shortest augmenting-path
// length).
type Result struct {
	M      *graph.Matching
	Phases int
}

// Scratch is a reusable arena for the Hopcroft–Karp solvers: the CSR
// adjacency and every per-vertex working array are kept across calls, so a
// hot loop solving many instances (the reduction tries hundreds of layered
// graphs per round) allocates only the returned matching. A Scratch is not
// safe for concurrent use; use one per worker.
type Scratch struct {
	off       []int32 // CSR offsets per left vertex, len N+1
	to        []int32 // CSR entry: right endpoint
	eidx      []int32 // CSR entry: index into b.Edges
	matchL    []int32 // left vertex -> matched right vertex, or -1
	matchR    []int32 // right vertex -> matched left vertex, or -1
	matchEdge []int32 // left vertex -> index of its matched edge in b.Edges
	dist      []int32
	iter      []int32 // per-phase adjacency cursor per left vertex (see run)
	queue     []int32

	// Repair retention (repair.go): token identifies the latest retained
	// solve (0 = none), prevN/prevM its instance shape; off2/to2/eidx2 are
	// the double-buffered CSR the patch writes into before swapping; out is
	// the arena-owned result matching retained solves hand back.
	token uint64
	prevN int
	prevM int
	off2  []int32
	to2   []int32
	eidx2 []int32
	out   *graph.Matching
}

// NewScratch returns an empty arena.
func NewScratch() *Scratch { return &Scratch{} }

// HopcroftKarp computes a maximum cardinality matching exactly. It is the
// δ = 0 oracle of the reduction.
func HopcroftKarp(b *Bip) Result {
	return boundedHK(b, math.MaxInt32, nil, nil)
}

// HopcroftKarpScratch is HopcroftKarp reusing the given arena's storage.
func HopcroftKarpScratch(b *Bip, s *Scratch) Result {
	return boundedHK(b, math.MaxInt32, s, nil)
}

// HopcroftKarpRescanScratch is HopcroftKarpScratch running the pre-PR 9
// cursor-free greedy DFS: every DFS entry rescans the vertex's adjacency
// from the start instead of resuming from the per-phase cursor. It is
// retained as the live reference of the iterator-per-phase DFS — the E19
// experiment and the CI micro-benchmark gate measure the iterator form
// against it in the same run, and the Invariant 26 differential
// (TestIteratorDFS*, internal/solvertest) asserts the two return
// bit-identical results — same matching, same phase count — on every
// family, because the cursor provably skips only edges already dead for
// the phase.
func HopcroftKarpRescanScratch(b *Bip, s *Scratch) Result {
	return boundedHKRescan(b, math.MaxInt32, s, nil)
}

// HopcroftKarpRescanSeeded is HopcroftKarpSeeded through the cursor-free
// reference DFS, so the iterator equivalence is checkable (and measurable)
// on seeded runs too.
func HopcroftKarpRescanSeeded(b *Bip, s *Scratch, seeds []Seed) Result {
	return boundedHKRescan(b, math.MaxInt32, s, seeds)
}

// Seed pre-matches one edge of a seeded solve: left vertex L matched to
// right vertex R via edge EdgeIndex of b.Edges.
type Seed struct {
	L, R      int32
	EdgeIndex int32
}

// HopcroftKarpSeeded is HopcroftKarpScratch started from a partial
// matching: the seeds are installed before the first phase, so when they
// approximate a maximum matching the search pays only the few phases that
// augment the difference instead of rebuilding from empty. Any valid
// matching seeds a correct run (augmenting-path search is indifferent to
// its starting point), and the result is still exactly maximum — though not
// necessarily the same maximum matching a cold run returns, since the seed
// shifts which augmenting paths are found first. Seeds that do not fit
// (vertex or edge index out of range, endpoint already seeded, edge not
// joining L and R) are skipped, so a stale seed degrades to a colder
// start, never to a wrong answer.
func HopcroftKarpSeeded(b *Bip, s *Scratch, seeds []Seed) Result {
	return boundedHK(b, math.MaxInt32, s, seeds)
}

// Approx computes a (1−δ)-approximate maximum matching by running
// Hopcroft–Karp phases only while the shortest augmenting path has length at
// most 2·ceil(1/δ)−1. By Fact 1.3 the result is (1 − δ)-approximate (a
// matching with no augmenting path shorter than 2ℓ−1 is (1−1/ℓ)-approximate).
func Approx(b *Bip, delta float64) Result {
	return ApproxScratch(b, delta, nil)
}

// ApproxScratch is Approx reusing the given arena's storage.
func ApproxScratch(b *Bip, delta float64, s *Scratch) Result {
	if delta <= 0 {
		return boundedHK(b, math.MaxInt32, s, nil)
	}
	ell := int(math.Ceil(1 / delta))
	return boundedHK(b, 2*ell-1, s, nil)
}

// sizeVerts sizes the per-vertex working arrays for n vertices, preserving
// no contents (every consumer reinitialises them).
func (s *Scratch) sizeVerts(n int) {
	if cap(s.matchL) < n {
		s.matchL = make([]int32, n)
		s.matchR = make([]int32, n)
		s.matchEdge = make([]int32, n)
		s.dist = make([]int32, n)
		s.iter = make([]int32, n)
	}
	s.matchL, s.matchR = s.matchL[:n], s.matchR[:n]
	s.matchEdge, s.dist = s.matchEdge[:n], s.dist[:n]
	s.iter = s.iter[:n]
}

// prepare sizes the arena for b and builds the CSR adjacency of the left
// vertices (entries keep b's edge order per vertex, matching the iteration
// order of the former slice-of-slices adjacency).
func (s *Scratch) prepare(b *Bip) {
	n, m := b.N, len(b.Edges)
	// The off gate is deliberately separate from the per-vertex arrays':
	// the repair path swaps the CSR buffers (patch), so their capacities
	// evolve independently and a coupled reallocation would leave one side
	// undersized.
	if cap(s.off) < n+1 {
		s.off = make([]int32, n+1)
	}
	s.off = s.off[:n+1]
	s.sizeVerts(n)
	if cap(s.to) < m {
		s.to = make([]int32, m)
		s.eidx = make([]int32, m)
	}
	s.to, s.eidx = s.to[:m], s.eidx[:m]
	s.queue = s.queue[:0]

	for i := range s.off {
		s.off[i] = 0
	}
	for _, e := range b.Edges {
		l := e.U
		if b.Side[l] {
			l = e.V
		}
		s.off[l+1]++
	}
	for v := 0; v < n; v++ {
		s.off[v+1] += s.off[v]
	}
	// Fill entries; s.dist doubles as the per-vertex cursor here and is
	// reinitialised by every BFS.
	cur := s.dist
	for v := 0; v < n; v++ {
		cur[v] = s.off[v]
	}
	for i, e := range b.Edges {
		l, r := e.U, e.V
		if b.Side[l] {
			l, r = r, l
		}
		s.to[cur[l]] = int32(r)
		s.eidx[cur[l]] = int32(i)
		cur[l]++
	}
}

// boundedHK runs HK phases while the shortest augmenting path length is at
// most maxLen, optionally starting from seeds. It invalidates any
// retained repair baseline: the arena's CSR now describes this instance,
// not the one a caller-held RepairInfo refers to.
func boundedHK(b *Bip, maxLen int, s *Scratch, seeds []Seed) Result {
	if s == nil {
		s = NewScratch()
	}
	s.token = 0
	s.prepare(b)
	phases := s.run(b, maxLen, seeds)
	m := new(graph.Matching)
	m.FillFromSolver(b.N, b.Side, s.matchL, s.matchR, s.matchEdge, b.Edges)
	return Result{M: m, Phases: phases}
}

// boundedHKRescan is boundedHK through the cursor-free reference DFS
// (see HopcroftKarpRescanScratch).
func boundedHKRescan(b *Bip, maxLen int, s *Scratch, seeds []Seed) Result {
	if s == nil {
		s = NewScratch()
	}
	s.token = 0
	s.prepare(b)
	phases := s.runLoop(b, maxLen, seeds, true)
	m := new(graph.Matching)
	m.FillFromSolver(b.N, b.Side, s.matchL, s.matchR, s.matchEdge, b.Edges)
	return Result{M: m, Phases: phases}
}

// run executes the Hopcroft–Karp phase loop over the arena's current CSR
// (left behind by prepare or patch), starting from the empty matching,
// optionally installing seeds first. It returns the phase count; the
// matching is left in the arena's matchL/matchR/matchEdge state.
func (s *Scratch) run(b *Bip, maxLen int, seeds []Seed) int {
	return s.runLoop(b, maxLen, seeds, false)
}

// runLoop is run with the DFS strategy explicit: rescan = true restores the
// pre-PR 9 cursor-free greedy DFS (every entry rescans the adjacency from
// off[u]). It exists as the live reference the iterator-per-phase DFS is
// measured and equivalence-checked against (HopcroftKarpRescanScratch);
// production callers always pass false.
func (s *Scratch) runLoop(b *Bip, maxLen int, seeds []Seed, rescan bool) int {
	nLeft := 0
	for i := range s.matchL {
		s.matchL[i] = -1
		s.matchR[i] = -1
		s.matchEdge[i] = -1
		if !b.Side[i] {
			nLeft++
			s.dist[i] = 0 // the phase-1 BFS state, see the first-phase shortcut
		}
	}
	for _, sd := range seeds {
		if sd.L < 0 || int(sd.L) >= b.N || sd.R < 0 || int(sd.R) >= b.N {
			continue
		}
		if sd.EdgeIndex < 0 || int(sd.EdgeIndex) >= len(b.Edges) {
			continue
		}
		if e := b.Edges[sd.EdgeIndex]; !(e.U == int(sd.L) && e.V == int(sd.R)) &&
			!(e.U == int(sd.R) && e.V == int(sd.L)) {
			continue
		}
		if b.Side[sd.L] || !b.Side[sd.R] || s.matchL[sd.L] != -1 || s.matchR[sd.R] != -1 {
			continue
		}
		s.matchL[sd.L] = sd.R
		s.matchR[sd.R] = sd.L
		s.matchEdge[sd.L] = sd.EdgeIndex
	}
	const inf = math.MaxInt32

	bfs := func() int32 {
		// The queue is a head-indexed window over a buffer reused across
		// phases; the former queue = queue[1:] pop kept the whole backing
		// array alive and shifted it O(n) times per phase.
		queue := s.queue[:0]
		for v := 0; v < b.N; v++ {
			s.dist[v] = inf
			if !b.Side[v] && s.matchL[v] == -1 {
				s.dist[v] = 0
				queue = append(queue, int32(v))
			}
		}
		s.queue = queue
		var shortest int32 = inf
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			if s.dist[u] >= shortest {
				continue
			}
			for j := s.off[u]; j < s.off[u+1]; j++ {
				w := s.matchR[s.to[j]]
				if w == -1 {
					// Augmenting path of length 2·dist[u]+1 found.
					if 2*s.dist[u]+1 < shortest {
						shortest = 2*s.dist[u] + 1
					}
					continue
				}
				if s.dist[w] == inf {
					s.dist[w] = s.dist[u] + 1
					queue = append(queue, w)
				}
			}
		}
		s.queue = queue[:0]
		return shortest
	}

	// Iterator-per-phase DFS (the classic HK73/Dinic amortisation, PR 9):
	// each left vertex keeps a cursor into its adjacency, reset at the top
	// of every phase, and the greedy DFS resumes from it instead of
	// rescanning from off[u]. Within a phase an edge that failed once is
	// dead for good — its right endpoint can only stay matched (augmenting
	// rematches right vertices, never frees them) and dist only ever moves
	// to inf — so skipping the scanned prefix drops exactly the re-entrant
	// rescans an interior vertex pays when several paths route through it,
	// and nothing else: the same augmenting paths are found in the same
	// order, so the result and phase count are bit-identical to the
	// cursor-free reference (runRescan; Invariant 26 pins the equivalence,
	// TestIteratorDFS* and the solvertest families assert it).
	//
	// On success the cursor parks on the taken edge j: a re-entry re-checks
	// j, finds r matched to u itself (dist[u] == dist[u]+1 fails), and
	// advances — the same position the dead-prefix argument leaves the
	// reference scan at.
	var dfs func(u int32) bool
	if rescan {
		dfs = func(u int32) bool {
			for j := s.off[u]; j < s.off[u+1]; j++ {
				r := s.to[j]
				w := s.matchR[r]
				if w == -1 || (s.dist[w] == s.dist[u]+1 && dfs(w)) {
					s.matchL[u] = r
					s.matchR[r] = u
					s.matchEdge[u] = s.eidx[j]
					return true
				}
			}
			s.dist[u] = inf
			return false
		}
	} else {
		// The cursor is written back once at exit, not per step: u cannot
		// be re-entered while on the DFS stack (an in-edge would need
		// dist[u] == dist[w']+1 for a deeper w', impossible in a layered
		// search), so no reader can observe the cursor mid-scan.
		dfs = func(u int32) bool {
			end := s.off[u+1]
			for j := s.iter[u]; j < end; j++ {
				r := s.to[j]
				w := s.matchR[r]
				if w == -1 || (s.dist[w] == s.dist[u]+1 && dfs(w)) {
					s.iter[u] = j
					s.matchL[u] = r
					s.matchR[r] = u
					s.matchEdge[u] = s.eidx[j]
					return true
				}
			}
			s.iter[u] = end
			s.dist[u] = inf
			return false
		}
	}

	// Saturation counters: once every left (or every right) vertex is
	// matched, no augmenting path exists, so the terminal BFS that would
	// discover that is provably a no-op and is skipped. The phase count is
	// unchanged (a terminal BFS never counts as a phase), so results stay
	// bit-identical; on the reduction's layered graphs most solves saturate
	// a side, making this the common exit.
	nRight, size := b.N-nLeft, 0
	if len(seeds) > 0 {
		for _, r := range s.matchL {
			if r != -1 {
				size++
			}
		}
	}

	// First-phase shortcut: from the empty matching every left vertex is a
	// free BFS source at distance 0 and every right vertex is unmatched, so
	// the first BFS provably returns 1 when any edge exists (and inf
	// otherwise) while writing exactly the dist state the init loop above
	// already produced — phase-1 DFS reads dist only at left vertices,
	// which are all 0. Skipping it is bit-identical; seeded runs start from
	// a non-empty matching and take the real BFS from the first iteration.
	first := size == 0

	phases := 0
	for size < nLeft && size < nRight {
		var shortest int32
		if first {
			first = false
			shortest = 1
			if len(b.Edges) == 0 {
				shortest = inf
			}
		} else {
			shortest = bfs()
		}
		if shortest == inf || int(shortest) > maxLen {
			break
		}
		phases++
		if !rescan {
			copy(s.iter, s.off[:b.N]) // reset every adjacency cursor for the phase
		}
		for v := 0; v < b.N; v++ {
			if !b.Side[v] && s.matchL[v] == -1 {
				if dfs(int32(v)) {
					size++
				}
			}
		}
	}

	return phases
}
