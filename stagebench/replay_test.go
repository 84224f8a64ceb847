package main

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// traceTicks drives a traced runner through a converge and every batch —
// each round replayed and checked inside tracedRunner — and returns it.
func traceTicks(t *testing.T, g *graph.Graph, opts core.Options, seed int64, batches []*core.MutationBatch) *tracedRunner {
	t.Helper()
	var op opTrace
	tr := newTracedRunner(g.Clone(), g.Clone(), opts, seed, &op)
	if err := tr.tick(nil, &op); err != nil {
		t.Fatalf("converge: %v", err)
	}
	for i, b := range batches {
		if err := tr.tick(b, &op); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if op.rounds == 0 {
		t.Fatal("no round was replayed")
	}
	return tr
}

// plainTicks runs the same work through Runner.Tick.
func plainTicks(t *testing.T, g *graph.Graph, opts core.Options, batches []*core.MutationBatch) (*graph.Matching, core.Stats) {
	t.Helper()
	g = g.Clone()
	m := graph.NewMatching(g.N())
	var stats core.Stats
	r := core.NewRunner(g, opts)
	for _, b := range append([]*core.MutationBatch{nil}, batches...) {
		if _, err := r.Tick(m, b, &stats); err != nil {
			t.Fatal(err)
		}
	}
	return m, stats
}

func smallBandOptions(seed int64) core.Options {
	o := bandOptions(seed)
	o.MaxPairsPerClass = 300
	return o
}

// ladderBatches returns two batches that each move the class ladder: an
// insert below the band's minimum weight on a free pair, then its delete.
func ladderBatches(g *graph.Graph) []*core.MutationBatch {
	for a := 0; a < g.N(); a++ {
		for b := a + 1; b < g.N(); b++ {
			if _, ok := g.FindEdge(a, b); !ok {
				return []*core.MutationBatch{
					(&core.MutationBatch{}).InsertEdge(a, b, 1),
					(&core.MutationBatch{}).DeleteEdge(a, b),
				}
			}
		}
	}
	return nil
}

// TestReplayBandBitIdentical replays a band-edits instance at full size
// across two ladder moves; every round and counter must match.
func TestReplayBandBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a full-size band instance")
	}
	const seed = 5
	g := graph.BandedWeights(bandN, bandM, bandLow, rand.New(rand.NewSource(1))).G
	batches, err := bandEdits(g, 2, bandBatchEdits, bandLow, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	batches = append(batches, ladderBatches(g)...)

	tr := traceTicks(t, g, bandOptions(seed), seed, batches)
	if tr.stats.MutationIndexResets != 2 || tr.tw.c.MutationIndexResets != 2 {
		t.Errorf("ladder resets: runner %d, twin %d, want 2", tr.stats.MutationIndexResets, tr.tw.c.MutationIndexResets)
	}
	if tr.stats.RepairSolves == 0 || tr.stats.CrossRoundDeltaBuilds == 0 || tr.stats.EnumPruned == 0 {
		t.Errorf("the instance does not exercise repair/chaining/pruning: %+v", tr.stats)
	}
	m, stats := plainTicks(t, g, bandOptions(seed), batches)
	if !sameMatching(m, tr.m) || stats != tr.stats {
		t.Errorf("driven loop differs from Runner.Tick: weight %d vs %d", tr.m.Weight(), m.Weight())
	}
}

// TestReplayAcrossCacheHits replays a small band whose classes share
// layered graphs, so the real runner serves pairs from its cache and skips
// their builds: the twin must skip the same pairs to keep every counter.
func TestReplayAcrossCacheHits(t *testing.T) {
	const seed = 5
	g := graph.BandedWeights(40, 320, bandLow, rand.New(rand.NewSource(1))).G
	batches, err := bandEdits(g, 6, bandBatchEdits, bandLow, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	batches = append(batches, ladderBatches(g)...)

	tr := traceTicks(t, g, smallBandOptions(seed), seed, batches)
	if tr.stats.CacheHits == 0 || tr.tw.c.CacheHits != tr.stats.CacheHits {
		t.Errorf("cache hits: runner %d, twin %d; the test needs some", tr.stats.CacheHits, tr.tw.c.CacheHits)
	}
	if tr.stats.MutationIndexResets < 2 || tr.tw.c.MutationIndexResets != tr.stats.MutationIndexResets {
		t.Errorf("ladder resets: runner %d, twin %d, want equal and ≥ 2",
			tr.stats.MutationIndexResets, tr.tw.c.MutationIndexResets)
	}

	// The call-by-call loop is Runner.Tick: same matching, same counters.
	m, stats := plainTicks(t, g, smallBandOptions(seed), batches)
	if !sameMatching(m, tr.m) || stats != tr.stats {
		t.Errorf("driven loop differs from Runner.Tick: weight %d vs %d", tr.m.Weight(), m.Weight())
	}
}

func TestReplayUniformBitIdentical(t *testing.T) {
	const seed = 3
	g := graph.UniformWeights(300, 1500, 16, rand.New(rand.NewSource(7))).G
	opts := uniformOptions(seed)
	var op opTrace
	tr := newTracedRunner(g, g, opts, seed, &op)
	for range opts.MaxRounds {
		if _, err := tr.round(&op); err != nil {
			t.Fatal(err)
		}
	}
	res, err := core.Solve(g, nil, uniformOptions(seed))
	if err != nil {
		t.Fatal(err)
	}
	if !sameMatching(res.M, tr.m) || res.Stats != tr.stats {
		t.Errorf("traced solve differs from core.Solve: weight %d vs %d", tr.m.Weight(), res.M.Weight())
	}
	if tr.stats.SolverCalls == 0 || tr.stats.RepairSolves == 0 {
		t.Errorf("the instance does not exercise the solver and its repair: %+v", tr.stats)
	}
}

func TestReplayDetectsDivergence(t *testing.T) {
	const seed = 5
	g := graph.BandedWeights(40, 320, bandLow, rand.New(rand.NewSource(1))).G
	var op opTrace
	tr := newTracedRunner(g.Clone(), g.Clone(), smallBandOptions(seed), seed, &op)
	tr.tw.rng = rand.New(rand.NewSource(seed + 1)) // a twin off the runner's Rng stream
	var err error
	for i := 0; i < 5 && err == nil; i++ {
		_, err = tr.round(&op)
	}
	if !errors.Is(err, errReplay) {
		t.Fatalf("a twin on another Rng stream was not caught: %v", err)
	}
}

func TestCheckCounts(t *testing.T) {
	real := core.Stats{LayeredBuilt: 9, SolverCalls: 4, CacheHits: 2, RepairSolves: 3}
	if err := checkCounts(real, replayCounts{LayeredBuilt: 9, SolverCalls: 4, CacheHits: 2, RepairSolves: 3}); err != nil {
		t.Errorf("equal counters rejected: %v", err)
	}
	if err := checkCounts(real, replayCounts{LayeredBuilt: 9, SolverCalls: 6, RepairSolves: 3}); !errors.Is(err, errReplay) {
		t.Errorf("cache hits replayed as solves not caught: %v", err)
	}
	if err := checkCounts(core.Stats{FallbackBuilds: 1}, replayCounts{}); !errors.Is(err, errReplay) {
		t.Errorf("a real fallback not caught: %v", err)
	}
}

func TestAddFields(t *testing.T) {
	a := core.Stats{Rounds: 5, SolverCalls: 7, Gain: 10}
	b := core.Stats{Rounds: 2, SolverCalls: 3, Gain: 4}
	if got := addFields(a, b, -1); got != (core.Stats{Rounds: 3, SolverCalls: 4, Gain: 6}) {
		t.Errorf("delta %+v", got)
	}
	if got := addFields(a, b, 1); got != (core.Stats{Rounds: 7, SolverCalls: 10, Gain: 14}) {
		t.Errorf("sum %+v", got)
	}
	if got := fallbacks(core.Stats{FallbackSolves: 2, FallbackResets: 1, Rounds: 9}); got != 3 {
		t.Errorf("fallbacks = %d, want 3", got)
	}
}
