package randarrival

// Invariant 27 (per-arrival half): the arena-backed hot path —
// WgtAugPaths' packed per-vertex records and shared support table, the
// fused phase-2 step, and the Arena-reused processor — is bit-identical
// to the retained naive forms for every stream: same matching edges, same
// branch, same diagnostics, same accountant peaks, and the same M1 and M2
// from Wgt-Aug-Paths' Finalize. The naive forms are not test doubles but
// the executable reference: NaiveWgtAugPaths (one unwaug.Finder per class)
// lives in wgtaug_naive_test.go, and whole Algorithm 2 runs reach it
// through randArrMatching's newFeeder seam, so production code carries
// only the arena form.

import (
	"math/rand"
	"testing"
	"unsafe"

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

// checkWgtAugPathsBranches drives the record form (reused through Init)
// and the naive form of Wgt-Aug-Paths over one M0 and suffix with
// identical rng streams, and compares both of Finalize's candidates, M1
// and M2, plus the accountant peaks. With a frozen proc the record form
// runs Algorithm 2's phase-2 step on the copied potentials, and every
// residual it returns must equal proc's; with a nil proc it runs the
// public Feed.
func checkWgtAugPathsBranches(t *testing.T, label string, flat *WgtAugPaths, proc *localratio.Processor,
	m0 *graph.Matching, suffix []graph.Edge, beta float64, seed int64) {
	t.Helper()
	var acctA, acctN stream.Accountant
	flat.Init(m0, beta, rand.New(rand.NewSource(seed)), &acctA)
	naive := NewNaiveWgtAugPaths(m0, beta, rand.New(rand.NewSource(seed)), &acctN)
	if proc != nil {
		flat.loadPotentials(proc)
	}
	for _, e := range suffix {
		if proc == nil {
			flat.Feed(e)
		} else if got, want := flat.feedResidual(e), proc.Residual(e); got != want {
			t.Fatalf("%s: residual of %v is %d, want %d", label, e, got, want)
		}
		naive.Feed(e)
	}
	m1, m2 := flat.finalize()
	n1, n2 := naive.finalize()
	assertSameMatching(t, label+"/M1", m1, n1)
	assertSameMatching(t, label+"/M2", m2, n2)
	if acctA.Peak() != acctN.Peak() {
		t.Fatalf("%s: accountant peaks diverge: %d vs %d", label, acctA.Peak(), acctN.Peak())
	}
}

// checkPrefixBranches freezes a local-ratio processor on the first tenth
// of edges, takes M0 from its stack, and checks both Wgt-Aug-Paths forms
// branch by branch over the rest, through the public Feed and through the
// phase-2 step, at β = 0.3 and β = 1.
func checkPrefixBranches(t *testing.T, label string, flat *WgtAugPaths, n int, edges []graph.Edge, seed int64) {
	t.Helper()
	proc := localratio.New(n)
	prefix := len(edges) / 10
	for _, e := range edges[:prefix] {
		proc.Process(e)
	}
	m0 := proc.Unwind()
	proc.Freeze()
	for _, beta := range []float64{0.3, 1} {
		checkWgtAugPathsBranches(t, label+"/Feed", flat, nil, m0, edges[prefix:], beta, seed)
		checkWgtAugPathsBranches(t, label+"/phase2", flat, proc, m0, edges[prefix:], beta, seed)
	}
}

// TestWgtAugPathsArenaNaiveBitIdentical drives the two Wgt-Aug-Paths forms
// directly (outside Algorithm 2) over every solvertest family in both
// arrival orders, reusing the record form's arrays across all runs, and
// compares M1 and M2 separately: a defect in the branch that loses
// Finalize's comparison would not show in the returned matching.
func TestWgtAugPathsArenaNaiveBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	flat := &WgtAugPaths{}
	for _, w := range solvertest.Workloads(rng) {
		for _, order := range []string{"arrival", "random"} {
			edges := w.G.Edges()
			if order == "random" {
				edges = stream.RandomOrder(w.G, rng).Edges()
			}
			for seed := int64(0); seed < 3; seed++ {
				checkPrefixBranches(t, w.Name+"/"+order, flat, w.G.N(), edges, seed)
			}
		}
	}
}

// TestWgtAugPathsHubCaps pins the support caps where they bind. M0 is k
// disjoint edges (u_i, v_i) of weight 16, all in one class. A hub vertex
// offers each u_i an edge, latest i first, so more than λ of them reach
// the class, and each v_i is offered three free neighbours, one more than
// a marked vertex keeps. The walk in ascending U gives the hub to the
// lowest u_i whose support kept it, so a wrong cap on either side moves
// M2, not only the accountant peak.
func TestWgtAugPathsHubCaps(t *testing.T) {
	const k = 128
	n := 1 + 5*k
	hub := 0
	m0 := graph.NewMatching(n)
	var edges []graph.Edge
	for i := k - 1; i >= 0; i-- {
		u := 1 + 5*i
		mustAdd(m0, graph.Edge{U: u, V: u + 1, W: 16})
		edges = append(edges, graph.Edge{U: hub, V: u, W: 12})
	}
	for i := 0; i < k; i++ {
		v := 2 + 5*i
		for b := 1; b <= 3; b++ {
			edges = append(edges, graph.Edge{U: v, V: v + b, W: graph.Weight(10 + b)})
		}
	}
	flat := &WgtAugPaths{}
	for _, beta := range []float64{1, 0.3} {
		for seed := int64(0); seed < 4; seed++ {
			checkWgtAugPathsBranches(t, "hub", flat, nil, m0, edges, beta, seed)
			if deg := flat.deg[WeightClass(16)][hub]; deg != flat.lambda {
				t.Fatalf("β=%v seed %d: hub keeps %d support edges, want the cap %d", beta, seed, deg, flat.lambda)
			}
		}
	}
}

// TestVertexRecFitsHalfALine pins the record size the per-arrival path
// is laid out for: at most 32 bytes, so two records share a cache line.
func TestVertexRecFitsHalfALine(t *testing.T) {
	if size := unsafe.Sizeof(vertexRec{}); size > 32 {
		t.Fatalf("vertexRec is %d bytes, want at most 32", size)
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

// TestUnweightedResetsReusedStream is the same regression for the
// unweighted algorithm and the greedy baseline: a half-consumed or
// drained stream must give the run a fresh stream gives, in one pass.
func TestUnweightedResetsReusedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	inst := graph.PlantedMatching(80, 400, 100, 200, rng)
	edges := stream.RandomOrder(inst.G, rng).Edges()
	n := inst.G.N()

	fresh := UnweightedRandomArrival(n, stream.FromEdges(edges), UnweightedOptions{})
	freshGreedy := GreedyRandomArrival(n, stream.FromEdges(edges))
	for _, consume := range []int{1, len(edges) / 2, len(edges)} {
		s := stream.FromEdges(edges)
		for i := 0; i < consume; i++ {
			s.Next()
		}
		passes := s.Passes()
		reused := UnweightedRandomArrival(n, s, UnweightedOptions{})
		assertSameMatching(t, "unweighted", fresh.M, reused.M)
		if reused.Branch != fresh.Branch || reused.StoredEdges != fresh.StoredEdges {
			t.Fatalf("consume=%d: run diverged from fresh stream (%+v vs %+v)", consume, reused, fresh)
		}
		if got := s.Passes() - passes; got != 1 {
			t.Fatalf("consume=%d: unweighted run took %d passes, want 1", consume, got)
		}

		s = stream.FromEdges(edges)
		for i := 0; i < consume; i++ {
			s.Next()
		}
		assertSameMatching(t, "greedy", freshGreedy, GreedyRandomArrival(n, s))
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
// instances: any (seed, n, m) triple must produce bit-identical runs, and
// bit-identical M1 and M2 when Wgt-Aug-Paths is driven directly.
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
		checkPrefixBranches(t, "fuzz", &WgtAugPaths{}, n, edges, seed)
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
// packed per-vertex records, shared support table, reused Arena — the
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
