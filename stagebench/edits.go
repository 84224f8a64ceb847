package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
)

// bandEdits pre-generates count batches of size mixed edits (insert,
// delete and reweight drawn with equal odds) against a private copy of g,
// so the stream is fixed by rng before anything is timed. Inserts join a
// pair with no edge yet, and inserts and reweights draw their weight from
// the band [low, 2·low) the graph was generated in, so the instance stays
// simple and in band however long the stream runs. Deletes and reweights
// name only edges live at that point of the stream.
//
// In-band weights never extend the weight range, but a delete or reweight
// can still remove the last edge at the band's minimum or maximum weight,
// which moves the class ladder; Stats.MutationIndexResets counts those.
func bandEdits(g *graph.Graph, count, size int, low graph.Weight, rng *rand.Rand) ([]*core.MutationBatch, error) {
	if g.N() < 2 {
		return nil, fmt.Errorf("band edits: graph has %d vertices", g.N())
	}
	sim := g.Clone()
	out := make([]*core.MutationBatch, 0, count)
	for len(out) < count {
		b := &core.MutationBatch{}
		for b.Len() < size {
			op := rng.Intn(3)
			if sim.M() == 0 {
				op = 0
			}
			switch op {
			case 0:
				u, v := rng.Intn(sim.N()), rng.Intn(sim.N())
				if u == v {
					continue
				}
				if _, dup := sim.FindEdge(u, v); dup {
					continue
				}
				w := low + graph.Weight(rng.Int63n(int64(low)))
				if err := sim.AddEdge(graph.Edge{U: u, V: v, W: w}); err != nil {
					return nil, err
				}
				b.InsertEdge(u, v, w)
			case 1:
				i := rng.Intn(sim.M())
				e := sim.EdgeAt(i)
				if _, err := sim.RemoveEdgeAt(i); err != nil {
					return nil, err
				}
				b.DeleteEdge(e.U, e.V)
			default:
				i := rng.Intn(sim.M())
				e := sim.EdgeAt(i)
				w := low + graph.Weight(rng.Int63n(int64(low)))
				if err := sim.SetEdgeWeight(i, w); err != nil {
					return nil, err
				}
				b.ReweightEdge(e.U, e.V, w)
			}
		}
		out = append(out, b)
	}
	return out, nil
}
