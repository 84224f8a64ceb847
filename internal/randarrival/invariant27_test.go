package randarrival

// Invariant 27 (per-arrival half): the arena-backed hot path —
// WgtAugPaths' flat 65-slot class table, stack-parallel origW, and the
// Arena-reused processor — is bit-identical to the retained naive forms
// for every stream: same matching edges, same branch, same diagnostics,
// same accountant peaks. The naive forms are not test doubles but the
// executable reference: NaiveWgtAugPaths lives in wgtaug_naive_test.go,
// and whole Algorithm 2 runs reach it through randArrMatching's newFeeder
// seam, so production code carries only the arena form.

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/localratio"
	"repro/internal/solvertest"
	"repro/internal/stream"
)

func assertSameMatching(t *testing.T, label string, a, b *graph.Matching) {
	t.Helper()
	if a.Weight() != b.Weight() || a.Size() != b.Size() {
		t.Fatalf("%s: weight/size diverge: %d/%d vs %d/%d",
			label, a.Weight(), a.Size(), b.Weight(), b.Size())
	}
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("%s: edge %d diverges: %v vs %v", label, i, ae[i], be[i])
		}
	}
}

func runBoth(t *testing.T, n int, edges []graph.Edge, seed int64, arena *Arena) (WeightedResult, WeightedResult) {
	t.Helper()
	var acctA, acctN stream.Accountant
	flat := RandArrMatching(n, stream.FromEdges(edges), WeightedOptions{
		Rng: rand.New(rand.NewSource(seed)), Account: &acctA, Arena: arena,
	})
	naive := randArrMatching(n, stream.FromEdges(edges), WeightedOptions{
		Rng: rand.New(rand.NewSource(seed)), Account: &acctN,
	}, newNaiveFeeder)
	if acctA.Peak() != acctN.Peak() {
		t.Fatalf("accountant peaks diverge: arena %d naive %d", acctA.Peak(), acctN.Peak())
	}
	return flat, naive
}

// TestRandArrArenaNaiveBitIdentical runs Algorithm 2 with the arena forms
// against the naive forms over every solvertest family, reusing one Arena
// across all of them (so cross-run arena pollution would be caught), in
// random and adversarial order.
func TestRandArrArenaNaiveBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	arena := &Arena{}
	for _, w := range solvertest.Workloads(rng) {
		for _, order := range []string{"arrival", "random"} {
			edges := w.G.Edges()
			if order == "random" {
				edges = stream.RandomOrder(w.G, rng).Edges()
			}
			for seed := int64(0); seed < 3; seed++ {
				flat, naive := runBoth(t, w.G.N(), edges, seed, arena)
				label := w.Name + "/" + order
				assertSameMatching(t, label, flat.M, naive.M)
				if flat.Branch != naive.Branch {
					t.Fatalf("%s: branch %q vs %q", label, flat.Branch, naive.Branch)
				}
				if flat.M0Weight != naive.M0Weight || flat.StackSize != naive.StackSize ||
					flat.TSize != naive.TSize || flat.PeakWords != naive.PeakWords {
					t.Fatalf("%s: diagnostics diverge: %+v vs %+v", label, flat, naive)
				}
				if flat.Passes != 1 || naive.Passes != 1 {
					t.Fatalf("%s: Algorithm 2 must be single-pass, got %d/%d",
						label, flat.Passes, naive.Passes)
				}
			}
		}
	}
}

// TestWgtAugPathsArenaNaiveBitIdentical drives the two Wgt-Aug-Paths forms
// directly (outside Algorithm 2) with a shared M0 and identical rng
// streams, reusing the flat form's arenas across rounds via Init.
func TestWgtAugPathsArenaNaiveBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	flat := &WgtAugPaths{}
	for round := 0; round < 6; round++ {
		inst := graph.RandomGraph(60+10*round, 400, 1<<uint(6+round), rng)
		edges := stream.RandomOrder(inst.G, rng).Edges()
		m0 := localratio.Run(inst.G.N(), edges[:len(edges)/10])

		seed := int64(100 + round)
		var acctA, acctN stream.Accountant
		flat.Init(m0, 0.3, rand.New(rand.NewSource(seed)), &acctA)
		naive := NewNaiveWgtAugPaths(m0, 0.3, rand.New(rand.NewSource(seed)), &acctN)
		for _, e := range edges[len(edges)/10:] {
			flat.Feed(e)
			naive.Feed(e)
		}
		assertSameMatching(t, "finalize", flat.Finalize(), naive.Finalize())
		if flat.MarkedCount() == 0 && m0.Size() > 4 {
			t.Logf("round %d: no marked edges (legal but unlikely)", round)
		}
		if acctA.Peak() != acctN.Peak() {
			t.Fatalf("round %d: accountant peaks diverge: %d vs %d", round, acctA.Peak(), acctN.Peak())
		}
	}
}

// TestRandArrResetsReusedStream is the PR 10 regression for the reused
// stream seam: a stream another consumer already advanced (or fully
// drained) must produce exactly the run a fresh stream produces —
// RandArrMatching owns its pass structure and Resets at entry.
func TestRandArrResetsReusedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	inst := graph.PlantedMatching(80, 400, 100, 200, rng)
	edges := stream.RandomOrder(inst.G, rng).Edges()

	fresh := RandArrMatching(inst.G.N(), stream.FromEdges(edges),
		WeightedOptions{Rng: rand.New(rand.NewSource(1))})

	for _, consume := range []int{1, len(edges) / 2, len(edges)} {
		s := stream.FromEdges(edges)
		for i := 0; i < consume; i++ {
			s.Next()
		}
		reused := RandArrMatching(inst.G.N(), s, WeightedOptions{Rng: rand.New(rand.NewSource(1))})
		assertSameMatching(t, "reused-stream", fresh.M, reused.M)
		if reused.M0Weight != fresh.M0Weight || reused.Branch != fresh.Branch {
			t.Fatalf("consume=%d: run diverged from fresh stream (%+v vs %+v)",
				consume, reused, fresh)
		}
		if reused.Passes != 1 {
			t.Fatalf("consume=%d: Passes = %d, want 1", consume, reused.Passes)
		}
	}
}

// TestRandArrFileStreamDifferential: Algorithm 2 over a disk-backed stream
// is bit-identical to the same run over the in-RAM stream (Invariant 27,
// stream half at the algorithm level).
func TestRandArrFileStreamDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, w := range solvertest.Workloads(rng) {
		edges := stream.RandomOrder(w.G, rng).Edges()
		path := t.TempDir() + "/" + w.Name + ".estream"
		if err := stream.WriteFileEdges(path, w.G.N(), edges); err != nil {
			t.Fatalf("%s: WriteFileEdges: %v", w.Name, err)
		}
		fs, err := stream.OpenFile(path)
		if err != nil {
			t.Fatalf("%s: OpenFile: %v", w.Name, err)
		}
		var acctF, acctS stream.Accountant
		fromFile := RandArrMatching(w.G.N(), fs, WeightedOptions{
			Rng: rand.New(rand.NewSource(9)), Account: &acctF,
		})
		fs.Close()
		fromSlice := RandArrMatching(w.G.N(), stream.FromEdges(edges), WeightedOptions{
			Rng: rand.New(rand.NewSource(9)), Account: &acctS,
		})
		assertSameMatching(t, w.Name, fromFile.M, fromSlice.M)
		if fromFile.PeakWords != fromSlice.PeakWords || acctF.Peak() != acctS.Peak() {
			t.Fatalf("%s: peaks diverge: %d/%d vs %d/%d",
				w.Name, fromFile.PeakWords, acctF.Peak(), fromSlice.PeakWords, acctS.Peak())
		}
		if fromFile.Passes != fromSlice.Passes {
			t.Fatalf("%s: passes diverge: %d vs %d", w.Name, fromFile.Passes, fromSlice.Passes)
		}
	}
}

// FuzzRandArrEquivalence fuzzes the arena/naive equivalence over random
// instances: any (seed, n, m) triple must produce bit-identical runs.
func FuzzRandArrEquivalence(f *testing.F) {
	f.Add(int64(1), 20, 60)
	f.Add(int64(42), 50, 300)
	f.Add(int64(7), 8, 8)
	f.Add(int64(99), 2, 1)
	f.Fuzz(func(t *testing.T, seed int64, n, m int) {
		if n < 2 || n > 200 || m < 0 || m > 2000 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		inst := graph.RandomGraph(n, m, 1<<16, rng)
		edges := stream.RandomOrder(inst.G, rng).Edges()
		flat, naive := runBoth(t, n, edges, seed, &Arena{})
		assertSameMatching(t, "fuzz", flat.M, naive.M)
		if flat.Branch != naive.Branch || flat.StackSize != naive.StackSize ||
			flat.TSize != naive.TSize || flat.PeakWords != naive.PeakWords {
			t.Fatalf("diagnostics diverge: %+v vs %+v", flat, naive)
		}
	})
}

// randArrBenchEdges builds the per-arrival benchmark stream: a random-order
// weighted stream big enough that the per-arrival hot path (class routing
// + local-ratio pushes) dominates setup.
func randArrBenchEdges() (int, []graph.Edge) {
	rng := rand.New(rand.NewSource(20))
	inst := graph.PlantedMatching(2000, 15000, 1000, 2000, rng)
	return inst.G.N(), stream.RandomOrder(inst.G, rng).Edges()
}

// BenchmarkRandArrArena runs Algorithm 2 on the arena-backed hot path —
// flat 65-slot class table, stack-parallel origW, reused Arena — the
// numerator of the per-arrival A/B. Output is bit-identical to
// BenchmarkRandArrNaive (Invariant 27; gated ≥1.15x in CI, committed
// margin in BENCH_pr10.json).
func BenchmarkRandArrArena(b *testing.B) {
	n, edges := randArrBenchEdges()
	arena := &Arena{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := RandArrMatching(n, stream.FromEdges(edges),
			WeightedOptions{Rng: rand.New(rand.NewSource(7)), Arena: arena})
		if res.M.Size() == 0 {
			b.Fatal("empty matching")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(edges)), "ns/arrival")
}

// BenchmarkRandArrNaive is the same whole run on the map-backed reference
// form with no Arena — the A/B denominator.
func BenchmarkRandArrNaive(b *testing.B) {
	n, edges := randArrBenchEdges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := randArrMatching(n, stream.FromEdges(edges),
			WeightedOptions{Rng: rand.New(rand.NewSource(7))}, newNaiveFeeder)
		if res.M.Size() == 0 {
			b.Fatal("empty matching")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(edges)), "ns/arrival")
}
