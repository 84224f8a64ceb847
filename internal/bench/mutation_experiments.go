package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// genUpdates pre-generates count single-op mutation batches of the given
// regime, validated against a scratch clone so deletes and reweights always
// name a live edge. Pre-generation (rather than drawing per side) keeps the
// persistent and rebuild configurations on the identical update stream.
func genUpdates(g *graph.Graph, regime string, count int, maxW graph.Weight, rng *rand.Rand) []*core.MutationBatch {
	sim := g.Clone()
	updates := make([]*core.MutationBatch, 0, count)
	for len(updates) < count {
		b := &core.MutationBatch{}
		op := regime
		if regime == "mixed" {
			op = []string{"insert", "delete", "reweight"}[rng.Intn(3)]
		}
		if sim.M() == 0 {
			op = "insert"
		}
		switch op {
		case "insert":
			u, v := rng.Intn(sim.N()), rng.Intn(sim.N())
			if u == v {
				continue
			}
			w := 1 + graph.Weight(rng.Int63n(int64(maxW)))
			b.InsertEdge(u, v, w)
			if err := sim.AddEdge(graph.Edge{U: u, V: v, W: w}); err != nil {
				panic(err)
			}
		case "delete":
			e := sim.EdgeAt(rng.Intn(sim.M()))
			b.DeleteEdge(e.U, e.V)
			i, _ := sim.FindEdge(e.U, e.V)
			if _, err := sim.RemoveEdgeAt(i); err != nil {
				panic(err)
			}
		case "reweight":
			e := sim.EdgeAt(rng.Intn(sim.M()))
			w := 1 + graph.Weight(rng.Int63n(int64(maxW)))
			b.ReweightEdge(e.U, e.V, w)
			i, _ := sim.FindEdge(e.U, e.V)
			if err := sim.SetEdgeWeight(i, w); err != nil {
				panic(err)
			}
		}
		updates = append(updates, b)
	}
	return updates
}

// editStreamResult is one configuration's run over an update stream.
type editStreamResult struct {
	p50, p99 time.Duration
	stats    core.Stats
	weight   graph.Weight
}

// runEditStream converges a matching on g, then applies the update stream
// one batch per tick, timing each ApplyMutations+re-converge cycle. With
// persistent=false the Runner — and with it the whole amortised context —
// is rebuilt from scratch before every update: the from-scratch dynamic
// baseline the mutation-diff layer is measured against. Both configurations
// are bit-identical by the rebuild-twin equivalence, so the latency ratio
// isolates what absorbing the edit in place is worth.
func runEditStream(g *graph.Graph, opts core.Options, seed int64, updates []*core.MutationBatch, persistent bool) (editStreamResult, error) {
	gc := g.Clone()
	o := opts
	o.Rng = rand.New(rand.NewSource(seed))
	m := graph.NewMatching(gc.N())
	var stats core.Stats
	runner := core.NewRunner(gc, o)
	if _, err := runner.Tick(m, nil, &stats); err != nil {
		return editStreamResult{}, err
	}
	lats := make([]time.Duration, 0, len(updates))
	for _, b := range updates {
		start := time.Now()
		if !persistent {
			runner = core.NewRunner(gc, o)
		}
		if _, err := runner.Tick(m, b, &stats); err != nil {
			return editStreamResult{}, err
		}
		lats = append(lats, time.Since(start))
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p int) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		return lats[(len(lats)-1)*p/100]
	}
	return editStreamResult{p50: pct(50), p99: pct(99), stats: stats, weight: m.Weight()}, nil
}

// E18EditStream measures the PR 8 tentpole: the fully-dynamic mutation
// stream over the epoch-keyed pipeline. The bed is the E13 banded tier
// with a converged matching absorbing a stream of single-edit updates —
// insert-only, delete-only, reweight-only, and mixed regimes — where each
// update is one ApplyMutations plus the rounds to re-converge. The
// persistent configuration absorbs each edit through the index's edit
// protocol (the same change clocks BeginRound stamps); the rebuild baseline
// reconstructs the amortised context from scratch per update. Outputs are
// bit-identical by construction (the edit-stream differential suite in
// internal/solvertest asserts it per family), so the p50/p99 update-latency
// columns isolate the mutation-diff layer's worth; the counter columns show
// the edits riding the cross-round chains (MutationDeltaBuilds) instead of
// resetting them.
func E18EditStream(cfg Config) []Table {
	cfg = cfg.WithDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	nBand, count := 240, 50
	if cfg.Quick {
		nBand, count = 60, 10
	}
	g := graph.BandedWeights(nBand, 8*nBand, 100, rng).G
	opts := core.Options{Amortize: true, MaxPairsPerClass: 2000}
	seed := cfg.Seed + int64(rng.Intn(1<<20))

	t := Table{
		ID:    "E18",
		Title: "fully-dynamic edit stream over the amortised pipeline",
		Claim: "absorbing an edit through the index's change clocks beats rebuilding the context per update",
		Header: []string{"regime", "config", "updates", "p50 ms", "p99 ms",
			"mut delta builds", "index resets", "final weight"},
	}
	for _, regime := range []string{"insert", "delete", "reweight", "mixed"} {
		updates := genUpdates(g, regime, count, 100, rand.New(rand.NewSource(cfg.Seed+int64(len(regime)))))
		var weights []graph.Weight
		for _, c := range []struct {
			label      string
			persistent bool
		}{{"persistent", true}, {"rebuild", false}} {
			r, err := runEditStream(g, opts, seed, updates, c.persistent)
			if err != nil {
				continue
			}
			weights = append(weights, r.weight)
			t.Rows = append(t.Rows, []string{
				regime,
				c.label,
				fi(count),
				fmt.Sprintf("%.2f", float64(r.p50.Microseconds())/1000),
				fmt.Sprintf("%.2f", float64(r.p99.Microseconds())/1000),
				fi(r.stats.MutationDeltaBuilds),
				fi(r.stats.MutationIndexResets),
				fi64(int64(r.weight)),
			})
		}
		// The two configurations are one algorithm: a weight divergence is a
		// harness bug worth surfacing in the table rather than hiding.
		if len(weights) == 2 && weights[0] != weights[1] {
			t.Rows = append(t.Rows, []string{regime, "DIVERGED", "", "", "", "", "", ""})
		}
	}
	return []Table{t}
}
