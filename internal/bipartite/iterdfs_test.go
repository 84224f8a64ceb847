package bipartite

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// TestIteratorDFSMatchesRescan is the solver half of Invariant 26: the
// iterator-per-phase DFS must return the bit-identical result — same
// matching edges, same weight, same phase count — as the retained
// cursor-free reference on every instance shape. The equivalence is not
// statistical: within a phase the cursor skips only edges already proven
// dead (right endpoints can only stay matched, dist only moves to inf),
// so both forms find the same augmenting paths in the same order.
func TestIteratorDFSMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	shapes := []struct {
		name       string
		nl, nr, m  int
		iterations int
	}{
		{"tiny", 4, 4, 8, 50},
		{"square-sparse", 24, 24, 60, 40},
		{"square-dense", 24, 24, 300, 40},
		{"wide", 12, 40, 160, 40},
		{"tall", 40, 12, 160, 40},
		{"near-perfect", 64, 64, 512, 20},
		{"supersparse", 50, 50, 25, 40},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for it := 0; it < sh.iterations; it++ {
				b := randomBip(t, sh.nl, sh.nr, sh.m, rng)
				fast := HopcroftKarpScratch(b, NewScratch())
				ref := HopcroftKarpRescanScratch(b, NewScratch())
				if fast.Phases != ref.Phases {
					t.Fatalf("iteration %d: phases %d (iterator) vs %d (rescan)",
						it, fast.Phases, ref.Phases)
				}
				fe, re := fast.M.Edges(), ref.M.Edges()
				if len(fe) != len(re) {
					t.Fatalf("iteration %d: %d matched edges (iterator) vs %d (rescan)",
						it, len(fe), len(re))
				}
				for i := range fe {
					if fe[i] != re[i] {
						t.Fatalf("iteration %d: edge %d differs: %v (iterator) vs %v (rescan)",
							it, i, fe[i], re[i])
					}
				}
			}
		})
	}
}

// TestIteratorDFSScratchReuse re-solves a sequence of different-shaped
// instances through one arena: the per-phase cursor array is resized and
// reset with the rest of the scratch state, so a stale cursor from a
// larger previous instance can never leak into a smaller one.
func TestIteratorDFSScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s, sRef := NewScratch(), NewScratch()
	for it := 0; it < 60; it++ {
		nl := 2 + rng.Intn(40)
		nr := 2 + rng.Intn(40)
		m := 1 + rng.Intn(6*(nl+nr))
		b := randomBip(t, nl, nr, m, rng)
		fast := HopcroftKarpScratch(b, s)
		ref := HopcroftKarpRescanScratch(b, sRef)
		if fast.Phases != ref.Phases || fast.M.Weight() != ref.M.Weight() {
			t.Fatalf("iteration %d: (phases, weight) = (%d, %d) iterator vs (%d, %d) rescan",
				it, fast.Phases, fast.M.Weight(), ref.Phases, ref.M.Weight())
		}
		fe, re := fast.M.Edges(), ref.M.Edges()
		for i := range fe {
			if fe[i] != re[i] {
				t.Fatalf("iteration %d: edge %d differs: %v vs %v", it, i, fe[i], re[i])
			}
		}
	}
}

// TestFunnelBip pins the gadget's intended structure — every source
// augments in ONE phase, so the whole instance saturates with Phases == 1
// and the rescan form demonstrably pays its Θ(m·p) re-entry bill inside
// that phase — and extends the iterator ≡ rescan differential to the
// seeded entry points.
func TestFunnelBip(t *testing.T) {
	for _, mp := range [][2]int{{3, 3}, {8, 2}, {2, 8}, {64, 64}} {
		m, p := mp[0], mp[1]
		bip, seeds := FunnelInstance(m, p)
		fast := HopcroftKarpSeeded(bip, NewScratch(), seeds)
		ref := HopcroftKarpRescanSeeded(bip, NewScratch(), seeds)
		if fast.Phases != 1 || ref.Phases != 1 {
			t.Fatalf("funnel(%d,%d): phases %d (iterator) / %d (rescan), want 1 — the gadget no longer funnels every source through one phase",
				m, p, fast.Phases, ref.Phases)
		}
		want := 1 + p + m // c, the a-blockers, every source
		if got := len(fast.M.Edges()); got != want {
			t.Fatalf("funnel(%d,%d): %d matched edges, want %d (saturated left side)", m, p, got, want)
		}
		fe, re := fast.M.Edges(), ref.M.Edges()
		if len(fe) != len(re) {
			t.Fatalf("funnel(%d,%d): %d edges (iterator) vs %d (rescan)", m, p, len(fe), len(re))
		}
		for i := range fe {
			if fe[i] != re[i] {
				t.Fatalf("funnel(%d,%d): edge %d differs: %v vs %v", m, p, i, fe[i], re[i])
			}
		}
	}
}

// BenchmarkHKIterDFS and BenchmarkHKRescanDFS are the per-candidate
// micro-benchmark pair of the PR 9 solver pass, gated same-run in CI
// (benchguard -speedup BenchmarkHKIterDFS/BenchmarkHKRescanDFS>=1.15):
// identical instances, identical seeds, identical arenas, the DFS
// strategy the only difference.
func BenchmarkHKIterDFS(b *testing.B) {
	bip, seeds := FunnelInstance(512, 512)
	s := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HopcroftKarpSeeded(bip, s, seeds)
	}
}

func BenchmarkHKRescanDFS(b *testing.B) {
	bip, seeds := FunnelInstance(512, 512)
	s := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HopcroftKarpRescanSeeded(bip, s, seeds)
	}
}

// The random-tier pair records the honest flat case alongside the funnel
// gate: without re-entrant interiors the two DFS forms should tie (the
// deferred cursor write keeps the iterator's bookkeeping off the scan
// loop), so this pair is uploaded in the artifact but not gated.
func BenchmarkHKIterDFSRandom(b *testing.B) {
	bip := randomDenseBip(2048, 8, 3)
	s := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HopcroftKarpScratch(bip, s)
	}
}

func BenchmarkHKRescanDFSRandom(b *testing.B) {
	bip := randomDenseBip(2048, 8, 3)
	s := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HopcroftKarpRescanScratch(bip, s)
	}
}

// randomDenseBip is a plain random near-square instance (no adversarial
// structure) for the flat-case pair above.
func randomDenseBip(n, degree int, seed int64) *Bip {
	rng := rand.New(rand.NewSource(seed))
	side := make([]bool, 2*n)
	for i := n; i < 2*n; i++ {
		side[i] = true
	}
	b := &Bip{N: 2 * n, Side: side}
	seen := make(map[[2]int]bool, n*degree)
	for len(b.Edges) < n*degree {
		u := rng.Intn(n)
		v := n + rng.Intn(n)
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		b.Edges = append(b.Edges, graph.Edge{U: u, V: v, W: 1})
	}
	return b
}
