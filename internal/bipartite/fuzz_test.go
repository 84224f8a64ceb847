package bipartite

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// fuzzBip decodes a small random bipartite instance from a seed.
func fuzzBip(seed int64) (*Bip, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	nl, nr := 2+rng.Intn(10), 2+rng.Intn(10)
	inst := graph.RandomBipartite(nl, nr, 2+rng.Intn(3*(nl+nr)), 16, rng)
	side := make([]bool, nl+nr)
	for v := nl; v < nl+nr; v++ {
		side[v] = true
	}
	return &Bip{N: nl + nr, Side: side, Edges: inst.G.Edges()}, rng
}

// FuzzWarmStartHK feeds the seeded solver arbitrary — including invalid —
// seeds and checks the seeding contract: the result is always a valid
// matching of the instance with exactly the cold solver's cardinality
// (both are maximum), regardless of how stale or malformed the seed list
// is. The script bytes select seed edges, corrupt endpoints, and mismatch
// or negate edge indices, modelling a previous matching whose edges
// partially survived.
func FuzzWarmStartHK(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2})
	f.Add(int64(2), []byte{0xff, 0x01, 0x80, 0x40})
	f.Add(int64(3), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		b, _ := fuzzBip(seed)
		if len(b.Edges) == 0 {
			t.Skip()
		}
		var seeds []Seed
		for i := 0; i+1 < len(script); i += 2 {
			ei := int(script[i]) % len(b.Edges)
			e := b.Edges[ei]
			l, r := e.U, e.V
			if b.Side[l] {
				l, r = r, l
			}
			sd := Seed{L: int32(l), R: int32(r), EdgeIndex: int32(ei)}
			// Corrupt a fraction of the seeds: wrong edge index, swapped
			// sides, out-of-range ids, and negative edge indices, which the
			// solver must skip whatever the endpoints.
			switch script[i+1] % 7 {
			case 1:
				sd.EdgeIndex = int32(script[i+1]) // likely mismatched
			case 2:
				sd.L, sd.R = sd.R, sd.L
			case 3:
				sd.L = int32(b.N) + int32(script[i+1])
			case 4:
				sd.R = -1
			case 5:
				sd.EdgeIndex = -1 // negative index on a real edge: must be skipped
			case 6:
				sd.EdgeIndex = -1 // negative index, likely non-adjacent pair: must be skipped
				sd.R = int32(b.Edges[int(script[i+1])%len(b.Edges)].V)
				if !b.Side[sd.R] {
					sd.R = sd.L
				}
			}
			seeds = append(seeds, sd)
		}

		cold := HopcroftKarp(b)
		warm := HopcroftKarpSeeded(b, NewScratch(), seeds)
		if warm.M.Size() != cold.M.Size() {
			t.Fatalf("warm cardinality %d != cold %d (seeds %v)",
				warm.M.Size(), cold.M.Size(), seeds)
		}
		if err := warm.M.Validate(); err != nil {
			t.Fatalf("warm matching invalid: %v", err)
		}
		// Every matched edge must be a real edge of the instance with the
		// instance's weight (the seed's EdgeIndex feeds weight recovery).
		have := map[graph.Key]graph.Weight{}
		for _, e := range b.Edges {
			have[e.EdgeKey()] = e.W
		}
		for _, e := range warm.M.Edges() {
			w, ok := have[e.EdgeKey()]
			if !ok {
				t.Fatalf("warm matching contains non-edge %v", e)
			}
			if w != e.W {
				t.Fatalf("warm matching edge %v carries weight %d, instance has %d", e, e.W, w)
			}
		}
	})
}

// TestSeededHKWarmStartSavesPhases seeds the solver with the full cold
// solution and checks the re-solve pays zero phases: a seed that is already
// maximum leaves no augmenting path to search for.
func TestSeededHKWarmStartSavesPhases(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		b, _ := fuzzBip(seed)
		cold := HopcroftKarpScratch(b, NewScratch())
		var seeds []Seed
		for i, e := range b.Edges {
			l, r := e.U, e.V
			if b.Side[l] {
				l, r = r, l
			}
			if cold.M.Has(e.U, e.V) {
				seeds = append(seeds, Seed{L: int32(l), R: int32(r), EdgeIndex: int32(i)})
			}
		}
		warm := HopcroftKarpSeeded(b, NewScratch(), seeds)
		if warm.M.Size() != cold.M.Size() {
			t.Fatalf("seed %d: warm size %d != cold %d", seed, warm.M.Size(), cold.M.Size())
		}
		if warm.Phases != 0 {
			t.Errorf("seed %d: full seed still ran %d phases", seed, warm.Phases)
		}
	}
}

// TestSeededHKEmptySeedIsCold checks a nil seed list reproduces the cold
// solver exactly (same matching, same phase count): cold is the zero point
// of the seeding axis, which the differential suite relies on.
func TestSeededHKEmptySeedIsCold(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		b, _ := fuzzBip(seed)
		cold := HopcroftKarpScratch(b, NewScratch())
		warm := HopcroftKarpSeeded(b, NewScratch(), nil)
		if warm.Phases != cold.Phases || warm.M.Size() != cold.M.Size() {
			t.Fatalf("seed %d: nil-seed run (size %d, phases %d) != cold (size %d, phases %d)",
				seed, warm.M.Size(), warm.Phases, cold.M.Size(), cold.Phases)
		}
		ce, we := cold.M.Edges(), warm.M.Edges()
		for i := range ce {
			if ce[i] != we[i] {
				t.Fatalf("seed %d: edge %d differs: %v vs %v", seed, i, ce[i], we[i])
			}
		}
	}
}

// FuzzRepairHK is the differential fuzzer of the incremental repair: from
// each (seed, script) it derives a chain of instances sharing edge-list
// prefixes, solves the chain through RepairHK, and checks bit-identity —
// matching and phase count — against a from-scratch solve of every
// instance (Invariant 21). Script bytes pick the shared-prefix cuts and
// the regenerated suffix edges; occasional corrupted infos assert that a
// broken baseline surfaces as a checked ErrRepair*, never a wrong result.
func FuzzRepairHK(f *testing.F) {
	f.Add(int64(1), []byte{4, 7, 2})
	f.Add(int64(2), []byte{0xff, 0x00, 0x80, 0x13, 0x44})
	f.Add(int64(3), []byte{})
	f.Add(int64(9), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		cur, rng := fuzzBip(seed)
		s := NewScratch()
		prev := HopcroftKarpRetained(cur, s)
		cold := HopcroftKarp(cur)
		if prev.Phases != cold.Phases || prev.M.Size() != cold.M.Size() {
			t.Fatalf("retained differs from cold: phases %d/%d size %d/%d",
				prev.Phases, cold.Phases, prev.M.Size(), cold.M.Size())
		}
		for i := 0; i+1 < len(script); i += 2 {
			ke := int(script[i]) % (len(cur.Edges) + 1)
			next := &Bip{N: cur.N, Side: cur.Side, Edges: append([]graph.Edge(nil), cur.Edges[:ke]...)}
			for j := 0; j < int(script[i+1])%6; j++ {
				u, v := rng.Intn(next.N), rng.Intn(next.N)
				if next.Side[u] == next.Side[v] {
					continue
				}
				next.Edges = append(next.Edges, graph.Edge{U: u, V: v, W: graph.Weight(1 + rng.Intn(9))})
			}
			kv := 0
			for _, e := range next.Edges[:ke] {
				kv = max(kv, max(e.U, e.V)+1)
			}
			info := RepairInfo{BaseToken: s.SolveToken(), KeptVerts: kv, KeptEdges: ke}
			if script[i+1]&0x80 != 0 {
				// Corrupt the baseline token: must be rejected, and the
				// retained baseline must survive for the real call below.
				if _, err := RepairHK(next, s, RepairInfo{BaseToken: info.BaseToken + 1, KeptVerts: kv, KeptEdges: ke}); err == nil {
					t.Fatal("corrupted token accepted")
				}
			}
			got, err := RepairHK(next, s, info)
			if err != nil {
				t.Fatalf("step %d: RepairHK: %v", i/2, err)
			}
			want := HopcroftKarpScratch(next, NewScratch())
			if got.Phases != want.Phases {
				t.Fatalf("step %d: phases %d, want %d", i/2, got.Phases, want.Phases)
			}
			ge, we := got.M.Edges(), want.M.Edges()
			if len(ge) != len(we) {
				t.Fatalf("step %d: %d edges, want %d", i/2, len(ge), len(we))
			}
			for k := range ge {
				if ge[k] != we[k] {
					t.Fatalf("step %d: edge %d is %v, want %v", i/2, k, ge[k], we[k])
				}
			}
			if err := got.M.Validate(); err != nil {
				t.Fatalf("step %d: invalid matching: %v", i/2, err)
			}
			cur = next
		}
	})
}
