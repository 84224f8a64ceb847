package layered

import (
	"repro/internal/graph"
)

// ReferenceLayered is the output of BuildReference: the layered graph in the
// dense id space (layer t, vertex v) ↦ t·n+v, built by the direct
// transcription of Definition 4.10. It is the oracle for property tests of
// the bucketed, compact-id Build (Invariant 10) and lives in test code.
type ReferenceLayered struct {
	K, N int
	// Removed marks dense layered ids deleted by the Definition 4.10
	// filtering steps.
	Removed []bool
	// X, Y, InteriorX are the surviving edges in dense layered ids.
	X, Y, InteriorX []graph.Edge
}

// ID returns the dense layered id of vertex v in layer t.
func (r *ReferenceLayered) ID(t, v int) int { return t*r.N + v }

// Orig returns the original vertex of a dense layered id.
func (r *ReferenceLayered) Orig(id int) int { return id % r.N }

// LayerOf returns the layer of a dense layered id.
func (r *ReferenceLayered) LayerOf(id int) int { return id / r.N }

// BuildReference constructs the layered graph by scanning the full edge
// lists once per layer and filtering with a dense Removed array — the
// pre-optimisation construction, kept as the semantics oracle. Window
// membership uses the same unit arithmetic as the bucket index (AUnitOf /
// BUnitOf), so the two builders agree exactly, including on weights that
// fall on window boundaries.
func BuildReference(par *Parametrized, tau TauPair, w float64, prm Params) *ReferenceLayered {
	prm = prm.WithDefaults()
	k := tau.K()
	n := par.N
	r := &ReferenceLayered{K: k, N: n, Removed: make([]bool, (k+1)*n)}

	// G_P's A and B, read off the matching and the edge list: the crossing
	// matched edges and the crossing unmatched ones.
	var a, b []graph.Edge
	for _, e := range par.M.Edges() {
		if par.Side[e.U] != par.Side[e.V] {
			a = append(a, e)
		}
	}
	for _, e := range par.edges {
		if par.Side[e.U] != par.Side[e.V] && !par.M.Has(e.U, e.V) {
			b = append(b, e)
		}
	}

	// Stage 1: edge filters.
	hasX := make([]bool, (k+1)*n)
	for t := 0; t <= k; t++ {
		if tau.AUnits[t] == 0 {
			continue // window ((0−g)W, 0] holds no positive weight
		}
		for _, e := range a {
			if AUnitOf(e.W, w, prm) != tau.AUnits[t] {
				continue
			}
			le := graph.Edge{U: r.ID(t, e.U), V: r.ID(t, e.V), W: e.W}
			r.X = append(r.X, le)
			hasX[le.U] = true
			hasX[le.V] = true
		}
	}
	for t := 0; t < k; t++ {
		for _, e := range b {
			if BUnitOf(e.W, w, prm) != tau.BUnits[t] {
				continue
			}
			// Orient from the R endpoint in layer t to the L endpoint in
			// layer t+1.
			rv, lv := e.U, e.V
			if !par.Side[rv] {
				rv, lv = lv, rv
			}
			r.Y = append(r.Y, graph.Edge{U: r.ID(t, rv), V: r.ID(t+1, lv), W: e.W})
		}
	}

	// Stage 2: vertex filters.
	for v := 0; v < n; v++ {
		for t := 1; t < k; t++ {
			if !hasX[r.ID(t, v)] {
				r.Removed[r.ID(t, v)] = true
			}
		}
		if !hasX[r.ID(0, v)] {
			keep := par.Side[v] && !par.M.IsMatched(v) && tau.AUnits[0] == 0
			if !keep {
				r.Removed[r.ID(0, v)] = true
			}
		}
		if !hasX[r.ID(k, v)] {
			keep := !par.Side[v] && !par.M.IsMatched(v) && tau.AUnits[k] == 0
			if !keep {
				r.Removed[r.ID(k, v)] = true
			}
		}
	}

	// Drop edges incident to removed vertices; collect interior X.
	r.X = r.filterEdges(r.X)
	r.Y = r.filterEdges(r.Y)
	for _, e := range r.X {
		t := r.LayerOf(e.U)
		if t >= 1 && t <= k-1 {
			r.InteriorX = append(r.InteriorX, e)
		}
	}
	return r
}

func (r *ReferenceLayered) filterEdges(edges []graph.Edge) []graph.Edge {
	out := edges[:0]
	for _, e := range edges {
		if !r.Removed[e.U] && !r.Removed[e.V] {
			out = append(out, e)
		}
	}
	return out
}
