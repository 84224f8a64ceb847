package main

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/localratio"
	"repro/internal/randarrival"
	"repro/internal/stream"
)

func TestPrefixLenAtDefaultFraction(t *testing.T) {
	for _, c := range []struct{ m, want int }{
		{0, 0}, {19, 0}, {20, 1}, {39, 1}, {60, 3}, {1000, 50}, {arrM, 50_000},
	} {
		if got := prefixLen(c.m); got != c.want {
			t.Errorf("prefixLen(%d) = %d, want %d", c.m, got, c.want)
		}
	}
}

// randomStream is a small random-order stream for the wrapper tests.
func randomStream(n, m int, seed int64) []graph.Edge {
	next := graph.RandomEdgeSource(n, m, 1000, rand.New(rand.NewSource(seed)))
	var edges []graph.Edge
	for e, ok := next(); ok; e, ok = next() {
		edges = append(edges, e)
	}
	return edges
}

func TestStampStreamBoundaries(t *testing.T) {
	edges := randomStream(50, 60, 1)
	w := &stampStream{s: stream.FromEdges(edges), prefix: prefixLen(len(edges))}
	w.Reset()
	for i := 0; i < w.prefix; i++ {
		if _, ok := w.Next(); !ok || !w.prefixAt.IsZero() {
			t.Fatalf("edge %d of the prefix: ok %v, stamped early %v", i, ok, !w.prefixAt.IsZero())
		}
	}
	got := 0
	for _, ok := w.Next(); ok; _, ok = w.Next() {
		got++
	}
	if w.prefixAt.IsZero() || w.endAt.IsZero() || w.endAt.Before(w.prefixAt) {
		t.Fatalf("stamps prefix %v end %v", w.prefixAt, w.endAt)
	}
	if got != len(edges)-w.prefix || w.calls != len(edges)+1 {
		t.Fatalf("suffix delivered %d edges, %d calls in all", got, w.calls)
	}
}

// TestStampStreamSplitsRandArrMatching checks that the wrapper's prefix is
// Algorithm 2's phase 1: the run's local-ratio stack is exactly that of
// the first prefixLen(m) edges, and the run drains the pass once.
func TestStampStreamSplitsRandArrMatching(t *testing.T) {
	for _, m := range []int{20, 333, 2000} {
		edges := randomStream(200, m, int64(m))
		w := &stampStream{s: stream.FromEdges(edges), prefix: prefixLen(m)}
		res := randarrival.RandArrMatching(200, w, randarrival.WeightedOptions{Rng: rand.New(rand.NewSource(1))})
		p := localratio.New(200)
		for _, e := range edges[:prefixLen(m)] {
			p.Process(e)
		}
		if res.StackSize != p.PeakStackLen() {
			t.Errorf("m=%d: run stack %d, prefix of %d edges stacks %d", m, res.StackSize, prefixLen(m), p.PeakStackLen())
		}
		if w.calls != m+1 || res.Passes != 1 || w.prefixAt.IsZero() || w.endAt.Before(w.prefixAt) {
			t.Errorf("m=%d: %d calls, %d passes, stamps %v %v", m, w.calls, res.Passes, w.prefixAt, w.endAt)
		}
	}
}

func TestStreamReplayMatchesRun(t *testing.T) {
	edges := randomStream(500, 5000, 3)
	path := filepath.Join(t.TempDir(), "s.estream")
	if err := stream.WriteFileEdges(path, arrN, edges); err != nil {
		t.Fatal(err)
	}
	fs, err := stream.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	a := &arrival{fs: fs, seed: 9}
	rep := newReport()
	res, _, _ := a.run(fs)
	a.check(rep, res)
	again, _, _ := a.run(&stampStream{s: fs, prefix: prefixLen(fs.Len())})
	a.check(rep, again)
	if !rep.correct() {
		t.Fatalf("checks failed: %v", rep.failures)
	}
	if _, err := a.replayStream(res); err != nil {
		t.Fatal(err)
	}
}

func TestCheckMatchingRejectsForeignPair(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1, W: 5}, {U: 2, V: 3, W: 7}}
	m := graph.NewMatching(4)
	if err := m.Add(graph.Edge{U: 0, V: 1, W: 5}); err != nil {
		t.Fatal(err)
	}
	if err := checkMatching(m, 4, slices.Values(edges)); err != nil {
		t.Errorf("valid matching rejected: %v", err)
	}
	bad := graph.NewMatching(4)
	if err := bad.Add(graph.Edge{U: 2, V: 3, W: 8}); err != nil {
		t.Fatal(err)
	}
	if err := checkMatching(bad, 4, slices.Values(edges)); err == nil {
		t.Error("a pair carrying the wrong weight was accepted")
	}
}
