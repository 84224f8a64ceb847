package solvertest

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/graph"
)

// TestEditStreamBitIdenticalAllFamilies is the edit-stream extension of
// the Invariant-24 differential family: every workload family, driven with
// a mixed insert/delete/reweight batch every other round, must stay
// bit-identical — matching, weight, phases — to a cold Solve on the
// post-edit graph, round by round. The default configuration exercises the
// cache's hit-rate gate (whose whole-Solve lookup counts make phase totals
// a lifecycle observable, so only gain and matching are compared there);
// the gate-off configuration pins the full triple including cumulative
// solver phases.
func TestEditStreamBitIdenticalAllFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for wi, w := range Workloads(rng) {
		w, wi := w, wi
		t.Run(w.Name, func(t *testing.T) {
			AssertEditStreamBitIdentical(t, w, core.Options{Amortize: true}, 100+int64(wi), 10, 2, 3)
		})
		t.Run(w.Name+"/phases-strict", func(t *testing.T) {
			AssertEditStreamBitIdentical(t, w,
				core.Options{Amortize: true, CacheGate: -1}, 100+int64(wi), 10, 2, 3)
		})
	}
}

// TestEditStreamCounters gates the edit regime's headline counters on the
// build-bound tier: edits were applied, the delta chains crossed redraws
// (links dominate builds is only possible if links exist at all), and at
// least one chain link crossed a mutation boundary — the baseline predated
// the batch and survived it through the stability gates. The band has 160
// vertices at the tier's 8n density: on the 32-vertex bandeddense workload
// too few pairs fill every Y gap for any link to cross a batch.
func TestEditStreamCounters(t *testing.T) {
	w := Workload{Name: "bandeddense160",
		G: graph.BandedWeights(160, 8*160, 100, rand.New(rand.NewSource(55))).G}
	sA, _ := AssertEditStreamBitIdentical(t, w, core.Options{Amortize: true}, 200, 12, 2, 2)
	if sA.MutationsApplied == 0 {
		t.Error("edit stream applied no mutations")
	}
	if sA.CrossRoundDeltaBuilds == 0 {
		t.Errorf("edit tier produced no cross-round delta builds: %+v", sA)
	}
	if sA.MutationDeltaBuilds == 0 {
		t.Errorf("no delta build crossed a mutation boundary: %+v", sA)
	}
}

// TestEditStreamMutationEdgeCases pins the three documented edge cases,
// each at Workers=4 (the CI race job re-runs this under -race): a delete
// of a currently-matched edge, a reweight that crosses class-window
// boundaries (in both the in-place regime and the ladder-moving regime
// that forces an index rebuild), and an empty batch, which must be a
// strict no-op.
func TestEditStreamMutationEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var w Workload
	for _, c := range Workloads(rng) {
		if c.Name == "banded" {
			w = c
		}
	}
	opts := core.Options{Amortize: true, Workers: 4}

	t.Run("delete-matched-edge", func(t *testing.T) {
		h := NewEditHarness(t, w, opts, 51)
		h.Step(nil)
		h.Step(nil)
		me := h.Matching().Edges()
		if len(me) == 0 {
			t.Fatal("no matched edges after two rounds")
		}
		b := &core.MutationBatch{}
		b.DeleteEdge(me[0].U, me[0].V)
		b.DeleteEdge(me[len(me)-1].U, me[len(me)-1].V)
		h.Step(b)
		h.Step(nil)
		sA, _ := h.Stats()
		if sA.MutationsApplied != 2 {
			t.Errorf("MutationsApplied = %d, want 2", sA.MutationsApplied)
		}
	})

	t.Run("reweight-across-window-boundary", func(t *testing.T) {
		h := NewEditHarness(t, w, opts, 52)
		h.Step(nil)
		g := h.Graph()
		// In-place regime: move an interior-weight edge to a different
		// interior weight — its per-class units (window membership) change
		// while the ladder's min/max witnesses stay put.
		minW, maxW := g.EdgeAt(0).W, g.MaxWeight()
		for i := 0; i < g.M(); i++ {
			if w := g.EdgeAt(i).W; w < minW {
				minW = w
			}
		}
		pick := -1
		for i := 0; i < g.M(); i++ {
			if w := g.EdgeAt(i).W; w > minW && w < maxW {
				pick = i
				break
			}
		}
		if pick < 0 {
			t.Fatal("no interior-weight edge to reweight")
		}
		e := g.EdgeAt(pick)
		newW := minW + (maxW-minW)/2
		if newW == e.W {
			newW++
		}
		b := &core.MutationBatch{}
		b.ReweightEdge(e.U, e.V, newW)
		h.Step(b)
		h.Step(nil)

		// Ladder-moving regime: push one edge far above the old maximum;
		// the class ladder is derived from min/max, so the amortised
		// context must rebuild (MutationIndexResets) — and stay
		// bit-identical through it.
		e2 := h.Graph().EdgeAt(0)
		b2 := &core.MutationBatch{}
		b2.ReweightEdge(e2.U, e2.V, 4*maxW)
		h.Step(b2)
		h.Step(nil)
		sA, sB := h.Stats()
		if sA.MutationIndexResets == 0 {
			t.Errorf("ladder-moving reweight forced no index reset: %+v", sA)
		}
		if sA.MutationIndexResets != sB.MutationIndexResets {
			t.Errorf("index resets diverge: %d (mutated) vs %d (cold twin)",
				sA.MutationIndexResets, sB.MutationIndexResets)
		}
	})

	t.Run("empty-batch-tick", func(t *testing.T) {
		h := NewEditHarness(t, w, opts, 53)
		h.Step(nil)
		pre, _ := h.Stats()
		h.Step(&core.MutationBatch{})
		h.Step(nil)
		post, _ := h.Stats()
		if post.MutationsApplied != pre.MutationsApplied {
			t.Errorf("empty batch applied mutations: %d -> %d", pre.MutationsApplied, post.MutationsApplied)
		}
		if post.MutationIndexResets != pre.MutationIndexResets || post.FallbackResets != pre.FallbackResets {
			t.Errorf("empty batch disturbed the amortised context: %+v", post)
		}
	})
}

// TestEditStreamDeleteThenReweightSwapSlot is the swap-remove moved-index
// regression (PR 9 audit of the graph/mutate.go contract): a batch that
// deletes an edge and then reweights the edge that swap-remove moved into
// the freed slot must hit the moved edge, not the slot. The contract held
// at every call site because ops never carry indices across each other —
// ApplyMutations re-resolves FindEdge per op against the post-edit slice —
// and this test keeps it that way: it scripts exactly the batch that would
// misfire if anyone "optimised" the per-op resolution into a pre-resolved
// index list.
func TestEditStreamDeleteThenReweightSwapSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var w Workload
	for _, c := range Workloads(rng) {
		if c.Name == "banded" {
			w = c
		}
	}
	h := NewEditHarness(t, w, core.Options{Amortize: true, Workers: 4}, 54)
	h.Step(nil)
	g := h.Graph()
	// The victim is the last edge (the one swap-remove relocates); the
	// deleted edge is the earliest one whose endpoint pair is unique and
	// differs from the victim's, so both endpoint addresses are unambiguous.
	last := g.M() - 1
	victim := g.EdgeAt(last)
	if i, _ := g.FindEdge(victim.U, victim.V); i != last {
		t.Skipf("last edge has a parallel twin at %d; endpoint addressing would not isolate the moved edge", i)
	}
	del, delAt := victim, -1
	for i := 0; i < last; i++ {
		e := g.EdgeAt(i)
		if first, _ := g.FindEdge(e.U, e.V); first == i &&
			!(e.U == victim.U && e.V == victim.V) && !(e.U == victim.V && e.V == victim.U) {
			del, delAt = e, i
			break
		}
	}
	if delAt < 0 {
		t.Fatal("no uniquely-addressed edge to delete")
	}
	newW := victim.W + 1
	b := &core.MutationBatch{}
	b.DeleteEdge(del.U, del.V)
	b.ReweightEdge(victim.U, victim.V, newW)
	h.Step(b) // bit-identity vs the cold twin asserts the pipeline half

	// Direct half: the victim now lives in the freed slot with the new
	// weight, and the deleted endpoints resolve to nothing (or to a
	// different edge — never the victim's slot with the old weight).
	i, ok := g.FindEdge(victim.U, victim.V)
	if !ok {
		t.Fatalf("victim edge (%d,%d) vanished with the deleted slot", victim.U, victim.V)
	}
	if i != delAt {
		t.Fatalf("victim edge at index %d, want the freed slot %d", i, delAt)
	}
	if got := g.EdgeAt(i).W; got != newW {
		t.Fatalf("victim weight %d after reweight-by-endpoints, want %d — the reweight hit the slot, not the moved edge", got, newW)
	}
	h.Step(nil)
	sA, _ := h.Stats()
	if sA.MutationsApplied != 2 {
		t.Errorf("MutationsApplied = %d, want 2", sA.MutationsApplied)
	}
}

// TestChaosEditStream extends the chaos matrix with an edit-stream family:
// mutation batches flow through the amortised runner while the injector
// fires in its rounds, and the run must neither error nor panic and must
// stay bit-identical to the injection-free naive reference absorbing the
// same batches.
func TestChaosEditStream(t *testing.T) {
	defer faultinject.Deactivate()
	rng := rand.New(rand.NewSource(61))
	ws := Workloads(rng)
	var fired uint64
	for wi, w := range ws {
		if w.Name != "banded" && w.Name != "bandeddense" {
			continue // the chain-heavy tiers, where edits meet live baselines
		}
		inj := faultinject.New(int64(300+wi), 0.10)
		refOpts := core.Options{Rng: rand.New(rand.NewSource(19 + int64(wi)))}
		chaosOpts := core.Options{Amortize: true, Rng: rand.New(rand.NewSource(19 + int64(wi)))}
		gR, gC := w.G.Clone(), w.G.Clone()
		mR, mC := w.cloneInitial(), w.cloneInitial()
		rR := core.NewRunner(gR, refOpts)
		rC := core.NewRunner(gC, chaosOpts)
		editRng := rand.New(rand.NewSource(91 + int64(wi)))
		var sR, sC core.Stats
		for round := 0; round < 6; round++ {
			if round > 0 && round%2 == 0 {
				batch := RandomBatch(gR, 3, gR.MaxWeight(), editRng)
				if err := rR.ApplyMutations(batch, mR, &sR); err != nil {
					t.Fatalf("%s round %d: reference batch: %v", w.Name, round, err)
				}
				faultinject.Activate(inj)
				err := rC.ApplyMutations(batch, mC, &sC)
				faultinject.Deactivate()
				if err != nil {
					t.Fatalf("%s round %d: chaos batch must absorb faults, got %v", w.Name, round, err)
				}
			}
			gainR, err := rR.Round(mR, &sR)
			if err != nil {
				t.Fatalf("%s round %d (reference): %v", w.Name, round, err)
			}
			faultinject.Activate(inj)
			gainC, err := chaosRound(rC, &sC, mC)
			faultinject.Deactivate()
			if err != nil {
				t.Fatalf("%s round %d (chaos): %v", w.Name, round, err)
			}
			if gainR != gainC {
				t.Fatalf("%s round %d: gain %d (reference) vs %d (chaos)", w.Name, round, gainR, gainC)
			}
			if err := equalMatchings(mR, mC); err != nil {
				t.Fatalf("%s round %d: %v", w.Name, round, err)
			}
		}
		fired += inj.FiredTotal()
	}
	if fired == 0 {
		t.Error("injector never fired across the edit-stream chaos family")
	}
}
