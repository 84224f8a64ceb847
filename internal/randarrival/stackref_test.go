package randarrival

// Invariant 27(c): the radix-ordered T-set greedy is observation-free.
// The arena and naive forms of Invariant 27(b) share buildStackMatching,
// so they cannot catch a wrong greedy order; the comparison-sort form it
// replaced is kept here as the reference, and both the stack matching and
// whole Algorithm 2 runs are pinned to it bit for bit.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/localratio"
	"repro/internal/solvertest"
	"repro/internal/stream"
)

// referenceStackMatching is the comparison-sort stack matching: T kept as
// edges, each paired with its residual and ordered by (residual desc, U,
// V) with slices.SortFunc.
func referenceStackMatching(n int, proc *localratio.Processor, tSet []graph.Edge) *graph.Matching {
	type resEdge struct {
		e graph.Edge
		r graph.Weight
	}
	byResidual := make([]resEdge, len(tSet))
	for i, e := range tSet {
		byResidual[i] = resEdge{e, proc.Residual(e)}
	}
	slices.SortFunc(byResidual, func(a, b resEdge) int {
		if a.r != b.r {
			if a.r > b.r {
				return -1
			}
			return 1
		}
		if a.e.U != b.e.U {
			return a.e.U - b.e.U
		}
		return a.e.V - b.e.V
	})
	m1 := graph.NewMatching(n)
	for _, re := range byResidual {
		if !m1.IsMatched(re.e.U) && !m1.IsMatched(re.e.V) {
			mustAdd(m1, re.e)
		}
	}
	proc.UnwindInto(m1)
	return m1
}

// referenceRandArrMatching is Algorithm 2 with T stored as edges and
// finalized by referenceStackMatching, on a fresh processor and
// Wgt-Aug-Paths. It also returns the frozen processor and T, so a caller
// can rebuild M1, which the result shows only when the stack branch wins.
func referenceRandArrMatching(n int, s stream.EdgeStream, opts WeightedOptions) (WeightedResult, *localratio.Processor, []graph.Edge) {
	opts.defaults()
	s.Reset()
	passes0 := s.Passes()
	acct := opts.Account
	prefix := int(opts.PrefixFraction * float64(s.Len()))

	proc := localratio.New(n)
	proc.SetAccountant(acct)
	for i := 0; i < prefix; i++ {
		e, ok := s.Next()
		if !ok {
			break
		}
		proc.Process(e)
	}
	m0 := proc.Unwind()
	proc.Freeze()
	wap := &WgtAugPaths{}
	wap.Init(m0, opts.Beta, opts.Rng, acct)

	var tSet []graph.Edge
	for e, ok := s.Next(); ok; e, ok = s.Next() {
		if proc.Residual(e) > 0 {
			tSet = append(tSet, e)
			if acct != nil {
				acct.Hold(1)
			}
		}
		wap.Feed(e)
	}
	m1 := referenceStackMatching(n, proc, tSet)
	m2 := wap.Finalize()

	res := WeightedResult{
		M: m1, Branch: "stack",
		M0Weight:  m0.Weight(),
		StackSize: proc.PeakStackLen(),
		TSize:     len(tSet),
		Passes:    s.Passes() - passes0,
	}
	if acct != nil {
		res.PeakWords = acct.Peak()
	}
	if m2.Weight() > m1.Weight() {
		res.M, res.Branch = m2, "augment"
	}
	return res, proc, tSet
}

// checkStackMatching builds T's sort records into arena the way the
// frozen-potential filter does and pins buildStackMatching to the
// reference on the same processor and T.
func checkStackMatching(t *testing.T, label string, n int, proc *localratio.Processor, tSet []graph.Edge, arena *Arena) {
	t.Helper()
	arena.tKeys = arena.tKeys[:0]
	for _, e := range tSet {
		arena.tKeys = append(arena.tKeys, graph.MakeOrderKey(proc.Residual(e), e.U, e.V))
	}
	assertSameMatching(t, label+"/M1", buildStackMatching(n, proc, arena), referenceStackMatching(n, proc, tSet))
}

// TestRandArrRadixMatchesReference runs Algorithm 2 against the
// comparison-sort reference over every solvertest family in both arrival
// orders, reusing one Arena across all runs, and compares the matchings
// (equal edge lists are equal mates), branch and diagnostics, plus M1
// itself on the run's frozen state.
func TestRandArrRadixMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	arena := &Arena{}
	for _, w := range solvertest.Workloads(rng) {
		for _, order := range []string{"arrival", "random"} {
			edges := w.G.Edges()
			if order == "random" {
				edges = stream.RandomOrder(w.G, rng).Edges()
			}
			for seed := int64(0); seed < 3; seed++ {
				label := w.Name + "/" + order
				var acctR, acctW stream.Accountant
				got := RandArrMatching(w.G.N(), stream.FromEdges(edges), WeightedOptions{
					Rng: rand.New(rand.NewSource(seed)), Account: &acctR, Arena: arena,
				})
				want, proc, tSet := referenceRandArrMatching(w.G.N(), stream.FromEdges(edges), WeightedOptions{
					Rng: rand.New(rand.NewSource(seed)), Account: &acctW,
				})
				assertSameMatching(t, label, got.M, want.M)
				if got.Branch != want.Branch || got.M0Weight != want.M0Weight || got.StackSize != want.StackSize ||
					got.TSize != want.TSize || got.PeakWords != want.PeakWords || got.Passes != want.Passes {
					t.Fatalf("%s: diagnostics diverge: %+v vs %+v", label, got, want)
				}
				checkStackMatching(t, label, w.G.N(), proc, tSet, arena)
			}
		}
	}
}

// TestStackMatchingRadixEdgeCases pins the radix stack matching to the
// reference where the sort has least to go on: no T edge, one, residuals
// all equal (every order decided by U and V), and residuals next to
// math.MaxInt64 (the top key digits vary).
func TestStackMatchingRadixEdgeCases(t *testing.T) {
	var unit []graph.Edge
	for u := 7; u >= 0; u-- {
		for v := 0; v < u; v++ {
			if (u+v)%2 == 0 {
				unit = append(unit, graph.Edge{U: u, V: v, W: 1})
			} else {
				unit = append(unit, graph.Edge{U: v, V: u, W: 1})
			}
		}
	}
	const top = math.MaxInt64
	cases := []struct {
		name         string
		n            int
		prefix, tSet []graph.Edge
	}{
		{"empty T", 4, []graph.Edge{{U: 0, V: 1, W: 5}}, nil},
		{"single T edge", 4, []graph.Edge{{U: 0, V: 1, W: 5}}, []graph.Edge{{U: 3, V: 2, W: 7}}},
		{"unit residuals", 8, nil, unit},
		{"residuals near MaxInt64", 6, []graph.Edge{{U: 0, V: 5, W: 1}}, []graph.Edge{
			{U: 0, V: 2, W: top}, {U: 0, V: 1, W: top}, {U: 0, V: 3, W: top - 1},
			{U: 4, V: 0, W: top}, {U: 0, V: 4, W: top - 2}, {U: 2, V: 0, W: top - 1},
		}},
	}
	arena := &Arena{}
	for _, c := range cases {
		proc := localratio.New(c.n)
		for _, e := range c.prefix {
			proc.Process(e)
		}
		proc.Freeze()
		for _, e := range c.tSet {
			if proc.Residual(e) <= 0 {
				t.Fatalf("%s: %v is not a T edge", c.name, e)
			}
		}
		checkStackMatching(t, c.name, c.n, proc, c.tSet, arena)
	}
}
