package main

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

func TestBandEditsStayInBandAndNameLiveEdges(t *testing.T) {
	g := graph.BandedWeights(60, 480, bandLow, rand.New(rand.NewSource(1))).G
	batches, err := bandEdits(g, 50, bandBatchEdits, bandLow, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	again, err := bandEdits(g, 50, bandBatchEdits, bandLow, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	sim := g.Clone()
	kinds := map[core.MutationOp]int{}
	for i, b := range batches {
		if b.Len() != bandBatchEdits || !slices.Equal(b.Ops(), again[i].Ops()) {
			t.Fatalf("batch %d: %d edits, reproducible %v", i, b.Len(), slices.Equal(b.Ops(), again[i].Ops()))
		}
		for _, op := range b.Ops() {
			kinds[op.Op]++
			if op.Op != core.MutDelete && (op.W < bandLow || op.W >= 2*bandLow) {
				t.Fatalf("batch %d: weight %d outside [%d, %d)", i, op.W, bandLow, 2*bandLow)
			}
			idx, live := sim.FindEdge(op.U, op.V)
			switch op.Op {
			case core.MutInsert:
				if live || op.U == op.V {
					t.Fatalf("batch %d: insert of existing pair or loop (%d,%d)", i, op.U, op.V)
				}
				if err := sim.AddEdge(graph.Edge{U: op.U, V: op.V, W: op.W}); err != nil {
					t.Fatal(err)
				}
			case core.MutDelete:
				if !live {
					t.Fatalf("batch %d: delete of absent (%d,%d)", i, op.U, op.V)
				}
				if _, err := sim.RemoveEdgeAt(idx); err != nil {
					t.Fatal(err)
				}
			case core.MutReweight:
				if !live {
					t.Fatalf("batch %d: reweight of absent (%d,%d)", i, op.U, op.V)
				}
				if err := sim.SetEdgeWeight(idx, op.W); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, k := range []core.MutationOp{core.MutInsert, core.MutDelete, core.MutReweight} {
		if kinds[k] == 0 {
			t.Errorf("no edit of kind %d in %d batches", k, len(batches))
		}
	}
	if g.M() != 480 {
		t.Errorf("the generator edited its input graph: m = %d", g.M())
	}
}
