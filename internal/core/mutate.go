package core

// Fully-dynamic mutation stream (PR 8): between rounds, a Runner's graph
// may gain, lose, and reweight edges. ApplyMutations applies a batch in
// order, keeping the three stateful parties in lockstep per edit — the
// graph's edge store (append / swap-remove / in-place, the order semantics
// of graph/mutate.go), the matching for edits that touch a matched pair,
// and the incremental index via its edit protocol, which charges the
// touched buckets to the same per-(class, unit) change clocks BeginRound
// stamps for bipartition redraws. An edit is therefore "just another epoch
// bump": BuildDelta's stability gates and the grouped-Y revalidation
// absorb it with no new invariants, and the next Round is bit-identical to
// a cold Solve round on the post-edit graph — the property the edit-stream
// differential suite in internal/solvertest pins for every workload
// family.
//
// The one edit the index cannot absorb in place is a move of the
// class-weight ladder itself (the graph's minimum or maximum edge weight
// changed): every band, bucket, and class view derives from the ladder, so
// ApplyMutations detects the move by recomputing ClassWeights and rebuilds
// the amortised context from scratch (Stats.MutationIndexResets) — the
// same rebuild-twin equivalence the degradation ladder's reset rung relies
// on, so bit-identity is preserved by construction.

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

// ErrNoSuchEdge: a delete or reweight named an endpoint pair with no edge
// in the graph. The batch stops at the failing op; earlier ops stay
// applied (each op leaves the graph/matching/index trio consistent).
var ErrNoSuchEdge = errors.New("core: mutation names a nonexistent edge")

// MutationOp is the kind of one graph edit.
type MutationOp uint8

const (
	// MutInsert appends a new edge (u, v, w).
	MutInsert MutationOp = iota
	// MutDelete removes the edge (u, v); a matched pair is unmatched first.
	MutDelete
	// MutReweight sets the weight of the edge (u, v) to w, updating the
	// matching's stored weight when the pair is matched.
	MutReweight
)

// Mutation is one graph edit. Endpoints identify the edge for delete and
// reweight (first match wins among parallel edges, graph.FindEdge order).
type Mutation struct {
	Op   MutationOp
	U, V int
	W    graph.Weight // insert and reweight; ignored for delete
}

// MutationBatch is an ordered list of edits applied atomically between two
// rounds. The zero value is an empty batch; the builder methods append and
// return the receiver for chaining.
type MutationBatch struct {
	ops []Mutation
}

// InsertEdge appends an edge-insert to the batch.
func (b *MutationBatch) InsertEdge(u, v int, w graph.Weight) *MutationBatch {
	b.ops = append(b.ops, Mutation{Op: MutInsert, U: u, V: v, W: w})
	return b
}

// DeleteEdge appends an edge-delete to the batch.
func (b *MutationBatch) DeleteEdge(u, v int) *MutationBatch {
	b.ops = append(b.ops, Mutation{Op: MutDelete, U: u, V: v})
	return b
}

// ReweightEdge appends a weight change to the batch.
func (b *MutationBatch) ReweightEdge(u, v int, w graph.Weight) *MutationBatch {
	b.ops = append(b.ops, Mutation{Op: MutReweight, U: u, V: v, W: w})
	return b
}

// Extend appends another batch's edits in their application order —
// the all-or-nothing splice a service queue needs once a request has been
// validated in full (cmd/augserve rejects a bad request without queueing
// its valid prefix).
func (b *MutationBatch) Extend(ops []Mutation) *MutationBatch {
	b.ops = append(b.ops, ops...)
	return b
}

// Len returns the number of edits in the batch.
func (b *MutationBatch) Len() int {
	if b == nil {
		return 0
	}
	return len(b.ops)
}

// Ops returns the batch's edits in application order (aliased, not copied).
func (b *MutationBatch) Ops() []Mutation {
	if b == nil {
		return nil
	}
	return b.ops
}

// ApplyMutations applies the batch to the runner's graph (and to m, for
// edits touching matched pairs) between rounds, maintaining the amortised
// state through the index's edit protocol. On success the next Round is
// bit-identical to a cold round on the post-edit graph; matched-side
// effects (a deleted or reweighted matched edge) ride the same merge-diff
// path an augmentation does, so they need no special casing here beyond
// the matching update itself.
//
// A failing op (ErrNoSuchEdge, a graph validation error) stops the batch;
// the ops before it remain applied and the runner stays consistent. An
// empty or nil batch is a strict no-op.
func (r *Runner) ApplyMutations(batch *MutationBatch, m *graph.Matching, stats *Stats) error {
	if batch.Len() == 0 {
		return nil
	}
	// Open the index's edit window. A busy index (the misuse sentinel)
	// means its clocks cannot absorb this batch: fall through with note
	// disabled and rebuild the context wholesale below — the ladder's
	// reset rung, bit-identical by the rebuild-twin equivalence.
	note := false
	if r.am != nil {
		if err := r.am.inc.BeginEdits(); err != nil {
			stats.FallbackResets++
		} else {
			note = true
		}
	}
	var firstErr error
	for _, op := range batch.ops {
		if err := r.applyOne(op, m, note); err != nil {
			firstErr = err
			break
		}
		stats.MutationsApplied++
	}
	if note {
		r.am.inc.EndEdits()
	}
	r.mutPending = true

	// Ladder check: if the batch moved the class-weight ladder, the index
	// geometry is stale and the amortised context must be rebuilt on the
	// post-edit graph (the naive path just adopts the new ladder).
	ws := ClassWeights(r.g, r.opts.ClassBase, r.opts.Layered)
	switch {
	case !note && r.am != nil:
		r.am = newAmortizer(r.g, r.opts)
		r.weights = r.am.weights
	case !floatsEqual(ws, r.weights):
		stats.MutationIndexResets++
		if r.am != nil {
			r.am = newAmortizer(r.g, r.opts)
			r.weights = r.am.weights
		} else {
			r.weights = ws
		}
	}
	return firstErr
}

// applyOne applies a single edit to the graph, matching, and (when note is
// set) the incremental index, in that order.
func (r *Runner) applyOne(op Mutation, m *graph.Matching, note bool) error {
	g := r.g
	switch op.Op {
	case MutInsert:
		if err := g.AddEdge(graph.Edge{U: op.U, V: op.V, W: op.W}); err != nil {
			return err
		}
		if note {
			r.am.inc.NoteInsert(g.Edges())
		}
	case MutDelete:
		i, ok := g.FindEdge(op.U, op.V)
		if !ok {
			return fmt.Errorf("%w: delete (%d,%d)", ErrNoSuchEdge, op.U, op.V)
		}
		if m != nil && m.Has(op.U, op.V) {
			if err := m.Remove(op.U, op.V); err != nil {
				return err
			}
		}
		moved, err := g.RemoveEdgeAt(i)
		if err != nil {
			return err
		}
		if note {
			r.am.inc.NoteRemove(i, moved, g.Edges())
		}
	case MutReweight:
		i, ok := g.FindEdge(op.U, op.V)
		if !ok {
			return fmt.Errorf("%w: reweight (%d,%d)", ErrNoSuchEdge, op.U, op.V)
		}
		if err := g.SetEdgeWeight(i, op.W); err != nil {
			return err
		}
		if m != nil && m.Has(op.U, op.V) {
			if err := m.Reweight(op.U, op.V, op.W); err != nil {
				return err
			}
		}
		if note {
			r.am.inc.NoteReweight(i, g.Edges())
		}
	default:
		return fmt.Errorf("core: unknown mutation op %d", op.Op)
	}
	return nil
}

// Tick is the service loop step: apply one mutation batch, then run rounds
// until the matching re-converges (Patience consecutive zero-gain rounds)
// or the round budget is exhausted — Solve's stopping rule (converge). It
// returns the total gain of the tick's rounds; note that a delete of a
// matched edge lowers the matching weight outside this total (gains count
// augmentations, not edits).
func (r *Runner) Tick(m *graph.Matching, batch *MutationBatch, stats *Stats) (graph.Weight, error) {
	if err := r.ApplyMutations(batch, m, stats); err != nil {
		return 0, err
	}
	return r.converge(m, stats, 0, 0, nil)
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
