package bipartite

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// sameResult fails unless two solver results are bit-identical: same edge
// set (with weights, in Edges() order) and same phase count — the
// repair-equals-fresh contract (Invariant 21).
func sameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Phases != want.Phases {
		t.Fatalf("%s: phases %d, want %d", label, got.Phases, want.Phases)
	}
	ge, we := got.M.Edges(), want.M.Edges()
	if len(ge) != len(we) {
		t.Fatalf("%s: %d edges, want %d", label, len(ge), len(we))
	}
	for i := range ge {
		if ge[i] != we[i] {
			t.Fatalf("%s: edge %d is %v, want %v", label, i, ge[i], we[i])
		}
	}
}

// mutateSuffix returns a variant of b sharing the first ke edges: the
// suffix is regenerated as fresh crossing edges over the same vertex set.
// Every shared-prefix edge keeps its endpoints, so any kv above the prefix
// endpoints satisfies the RepairInfo contract.
func mutateSuffix(b *Bip, ke int, rng *rand.Rand) *Bip {
	edges := append([]graph.Edge(nil), b.Edges[:ke]...)
	extra := rng.Intn(len(b.Edges) + 2)
	var lefts, rights []int
	for v := 0; v < b.N; v++ {
		if b.Side[v] {
			rights = append(rights, v)
		} else {
			lefts = append(lefts, v)
		}
	}
	for i := 0; i < extra && len(lefts) > 0 && len(rights) > 0; i++ {
		edges = append(edges, graph.Edge{
			U: lefts[rng.Intn(len(lefts))],
			V: rights[rng.Intn(len(rights))],
			W: graph.Weight(1 + rng.Intn(16)),
		})
	}
	return &Bip{N: b.N, Side: b.Side, Edges: edges}
}

// prefixVerts returns the smallest valid KeptVerts for a shared prefix: one
// past the largest endpoint of the kept edges.
func prefixVerts(edges []graph.Edge, ke int) int {
	kv := 0
	for _, e := range edges[:ke] {
		if e.U >= kv {
			kv = e.U + 1
		}
		if e.V >= kv {
			kv = e.V + 1
		}
	}
	return kv
}

// TestRepairHKMatchesCold drives chains of suffix mutations through the
// repair path and asserts every repaired solve is bit-identical — matching
// and phase count — to a from-scratch solve of the same instance.
func TestRepairHKMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		base, _ := fuzzBip(int64(trial))
		s := NewScratch()
		prev := HopcroftKarpRetained(base, s)
		sameResult(t, "retained", prev, HopcroftKarp(base))
		cur := base
		for step := 0; step < 6; step++ {
			ke := rng.Intn(len(cur.Edges) + 1)
			next := mutateSuffix(cur, ke, rng)
			kv := prefixVerts(next.Edges, ke)
			if extra := rng.Intn(3); kv+extra <= next.N { // any valid bound works
				kv += extra
			}
			tok := s.SolveToken()
			got, err := RepairHK(next, s, RepairInfo{BaseToken: tok, KeptVerts: kv, KeptEdges: ke})
			if err != nil {
				t.Fatalf("trial %d step %d: RepairHK: %v", trial, step, err)
			}
			sameResult(t, "repair", got, HopcroftKarpScratch(next, NewScratch()))
			cur = next
		}
	}
}

// TestRepairHKHazards pins the checked-sentinel contract: a missing, stale,
// or foreign baseline and an inconsistent info must return an ErrRepair*
// error — never a wrong matching — and leave the scratch usable.
func TestRepairHKHazards(t *testing.T) {
	b, rng := fuzzBip(3)
	info := func(s *Scratch, ke int) RepairInfo {
		return RepairInfo{BaseToken: s.SolveToken(), KeptVerts: prefixVerts(b.Edges, ke), KeptEdges: ke}
	}

	t.Run("no base", func(t *testing.T) {
		s := NewScratch()
		if _, err := RepairHK(b, s, RepairInfo{}); !errors.Is(err, ErrRepairNoBase) {
			t.Fatalf("fresh scratch: err = %v, want ErrRepairNoBase", err)
		}
	})
	t.Run("plain solve clears retention", func(t *testing.T) {
		s := NewScratch()
		HopcroftKarpRetained(b, s)
		i := info(s, len(b.Edges))
		HopcroftKarpScratch(b, s) // non-retained solve overwrites the arena
		if _, err := RepairHK(b, s, i); !errors.Is(err, ErrRepairNoBase) {
			t.Fatalf("after plain solve: err = %v, want ErrRepairNoBase", err)
		}
	})
	t.Run("stale token", func(t *testing.T) {
		s := NewScratch()
		HopcroftKarpRetained(b, s)
		old := info(s, len(b.Edges))
		HopcroftKarpRetained(mutateSuffix(b, 1, rng), s) // a later retained solve
		if _, err := RepairHK(b, s, old); !errors.Is(err, ErrRepairStale) {
			t.Fatalf("stale: err = %v, want ErrRepairStale", err)
		}
	})
	t.Run("foreign scratch", func(t *testing.T) {
		s1, s2 := NewScratch(), NewScratch()
		HopcroftKarpRetained(b, s1)
		HopcroftKarpRetained(b, s2)
		// Tokens are globally unique, so s1's info can never validate on s2.
		if _, err := RepairHK(b, s2, info(s1, len(b.Edges))); !errors.Is(err, ErrRepairStale) {
			t.Fatalf("foreign: err = %v, want ErrRepairStale", err)
		}
	})
	t.Run("inconsistent info", func(t *testing.T) {
		s := NewScratch()
		HopcroftKarpRetained(b, s)
		for _, bad := range []RepairInfo{
			{BaseToken: s.SolveToken(), KeptVerts: 0, KeptEdges: len(b.Edges) + 1},
			{BaseToken: s.SolveToken(), KeptVerts: b.N + 1, KeptEdges: 0},
			{BaseToken: s.SolveToken(), KeptVerts: -1, KeptEdges: 0},
			{BaseToken: s.SolveToken(), KeptVerts: 0, KeptEdges: -1},
		} {
			if _, err := RepairHK(b, s, bad); !errors.Is(err, ErrRepairInfo) {
				t.Fatalf("info %+v: err = %v, want ErrRepairInfo", bad, err)
			}
		}
	})
	t.Run("recoverable after error", func(t *testing.T) {
		s := NewScratch()
		HopcroftKarpRetained(b, s)
		if _, err := RepairHK(b, s, RepairInfo{BaseToken: 0}); err == nil {
			t.Fatal("want error")
		}
		// The arena still holds the baseline: a valid repair still works.
		got, err := RepairHK(b, s, info(s, len(b.Edges)))
		if err != nil {
			t.Fatalf("after rejected call: %v", err)
		}
		sameResult(t, "recovered", got, HopcroftKarp(b))
	})
}

// TestRetainedMatchingOwnership documents the arena ownership of retained
// results: the next solve on the same scratch overwrites the previously
// returned matching.
func TestRetainedMatchingOwnership(t *testing.T) {
	b, rng := fuzzBip(5)
	s := NewScratch()
	first := HopcroftKarpRetained(b, s)
	m1 := first.M
	sizeBefore := m1.Size()
	next := mutateSuffix(b, 0, rng)
	second := HopcroftKarpRetained(next, s)
	if second.M != m1 {
		t.Fatal("retained solves should reuse the arena matching")
	}
	_ = sizeBefore // the overwrite is the point; nothing else to assert
}

// TestBuildKeptPrefixMatchesFresh holds the one CSR builder to Invariant
// 21 at the array level: over chains of random instances, a repair that
// keeps a contract-respecting prefix must leave off, to and eidx equal to
// an empty-prefix build of the same instance on a fresh arena. The
// matching-level differentials can miss an entry-order slip that happens
// to yield the same matching; this cannot. Every chain step reuses the
// arena's spare buffers with stale contents, and the test fails unless the
// cases below all occur: wholly and partly kept rows, KeptVerts > 0 with
// KeptEdges == 0 (the build writes the primary arrays in place, so it must
// not read offsets it has already overwritten), and a baseline larger than
// the new instance.
func TestBuildKeptPrefixMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	randBip := func(n int, side []bool, edges []graph.Edge, extra int) *Bip {
		for len(side) < n {
			side = append(side, rng.Intn(2) == 1)
		}
		for i := 0; i < extra; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if side[u] != side[v] {
				edges = append(edges, graph.Edge{U: u, V: v, W: graph.Weight(1 + rng.Intn(9))})
			}
		}
		return &Bip{N: n, Side: side, Edges: edges}
	}
	var whole, partial, vertsOnly, larger int
	for trial := 0; trial < 300; trial++ {
		cur := randBip(2+rng.Intn(30), nil, nil, rng.Intn(120))
		s := NewScratch()
		HopcroftKarpRetained(cur, s)
		for step := 0; step < 5; step++ {
			ke := 0
			if rng.Intn(4) > 0 {
				ke = rng.Intn(len(cur.Edges) + 1)
			}
			kv := prefixVerts(cur.Edges, ke)
			kv += rng.Intn(cur.N - kv + 1) // any bound up to the baseline's N
			n := max(kv, 1+rng.Intn(40))
			next := randBip(n, append([]bool(nil), cur.Side[:kv]...),
				append([]graph.Edge(nil), cur.Edges[:ke]...), rng.Intn(120))

			for v := 0; v < kv; v++ {
				lo, hi := s.off[v], s.off[v+1]
				switch {
				case lo == hi:
				case s.eidx[hi-1] < int32(ke):
					whole++
				case s.eidx[lo] < int32(ke):
					partial++
				}
			}
			if kv > 0 && ke == 0 {
				vertsOnly++
			}
			if cur.N > next.N && len(cur.Edges) > len(next.Edges) {
				larger++
			}

			if _, err := RepairHK(next, s, RepairInfo{BaseToken: s.SolveToken(), KeptVerts: kv, KeptEdges: ke}); err != nil {
				t.Fatalf("trial %d step %d: RepairHK: %v", trial, step, err)
			}
			fresh := NewScratch()
			fresh.build(next, 0, 0)
			for _, arr := range []struct {
				name      string
				got, want []int32
			}{{"off", s.off, fresh.off}, {"to", s.to, fresh.to}, {"eidx", s.eidx, fresh.eidx}} {
				if !slices.Equal(arr.got, arr.want) {
					t.Fatalf("trial %d step %d (kv %d, ke %d): %s = %v, want %v",
						trial, step, kv, ke, arr.name, arr.got, arr.want)
				}
			}
			cur = next
		}
	}
	if whole == 0 || partial == 0 || vertsOnly == 0 || larger == 0 {
		t.Fatalf("cases not all covered: whole rows %d, partial rows %d, KeptVerts-only %d, larger baseline %d",
			whole, partial, vertsOnly, larger)
	}
	t.Logf("whole rows %d, partial rows %d, KeptVerts-only builds %d, larger baselines %d",
		whole, partial, vertsOnly, larger)
}
