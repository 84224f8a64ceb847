package layered

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
)

// This file implements the constructive content of Lemma 4.12: given a
// short weighted augmentation (an alternating path, or a cycle presented as
// its blown-up walk, Section 1.1.2), produce the bipartition, the good
// (τA, τB) pair, and verify that the resulting layered graph contains the
// walk. The package tests use it to check that every structured
// augmentation is capturable, which is the coverage half of Theorem 4.8
// (Invariant 8). The E8 experiment measures capture end to end instead,
// through core.FindClassAugmentations.

// Witness is a constructed Lemma 4.12 certificate.
type Witness struct {
	Side []bool
	Tau  TauPair
	W    float64
	// Layered is the graph built from the witness; it contains every edge
	// of the walk in its designated layer.
	Layered *Layered
}

var (
	// ErrNotAlternating is returned when the walk does not alternate
	// matched/unmatched edges.
	ErrNotAlternating = errors.New("layered: walk does not alternate")
	// ErrSideConflict is returned when no bipartition orients every
	// unmatched edge forward (cannot happen for simple alternating paths
	// and even-cycle blow-ups; it guards malformed inputs).
	ErrSideConflict = errors.New("layered: inconsistent side assignment")
	// ErrNotGood is returned when the derived τ pair violates Table 1 —
	// at coarse granularity the rounding slack of the walk is too small
	// (the paper's fine granularity makes this vanish).
	ErrNotGood = errors.New("layered: derived tau pair is not good")
	// ErrNotCaptured is returned when an edge of the walk is filtered out
	// of its designated layer.
	ErrNotCaptured = errors.New("layered: walk edge missing from layered graph")
)

// BlowUp repeats an alternating cycle d times and closes with its first
// matched edge, producing the repeated walk of Section 1.1.2 whose layered
// representation captures the augmenting cycle. The input walk must start
// with a matched edge and have even length (an alternating cycle
// m, u, m, u, ...), with Vertices listing the cycle once without repeating
// the start.
func BlowUp(cycle Walk, d int) (Walk, error) {
	t := cycle.Len()
	if t == 0 || t%2 != 0 {
		return Walk{}, fmt.Errorf("%w: cycle length %d", ErrNotAlternating, t)
	}
	if !cycle.Matched[0] {
		return Walk{}, fmt.Errorf("%w: cycle must start with a matched edge", ErrNotAlternating)
	}
	var out Walk
	out.Vertices = append(out.Vertices, cycle.Vertices[0])
	for rep := 0; rep < d; rep++ {
		for i := 0; i < t; i++ {
			out.Vertices = append(out.Vertices, cycle.Vertices[(i+1)%len(cycle.Vertices)])
			out.Matched = append(out.Matched, cycle.Matched[i])
			out.Weights = append(out.Weights, cycle.Weights[i])
		}
	}
	// Close with the first matched edge once more: e1 o1 e2 o2 ... e1.
	out.Vertices = append(out.Vertices, cycle.Vertices[1])
	out.Matched = append(out.Matched, cycle.Matched[0])
	out.Weights = append(out.Weights, cycle.Weights[0])
	return out, nil
}

// BuildWitness derives the Lemma 4.12 certificate for an alternating walk
// at class weight w: the bipartition that orients every unmatched edge
// forward, the τ pair obtained by rounding matched weights up and unmatched
// weights down to the granularity grid, and the layered graph built from
// them. The walk must alternate and begin and end with matched edges
// (pad free endpoints by omission: a walk starting with an unmatched edge
// gets τA_1 = 0, which requires its first vertex to be free in m).
func BuildWitness(n int, edges []graph.Edge, m *graph.Matching, walk Walk, w float64, prm Params) (*Witness, error) {
	prm = prm.WithDefaults()
	if walk.Len() == 0 {
		return nil, fmt.Errorf("%w: empty walk", ErrNotAlternating)
	}
	for i := 1; i < walk.Len(); i++ {
		if walk.Matched[i] == walk.Matched[i-1] {
			return nil, fmt.Errorf("%w: edges %d and %d", ErrNotAlternating, i-1, i)
		}
	}

	side, err := orientSides(n, walk)
	if err != nil {
		return nil, err
	}
	tau, err := deriveTau(walk, w, prm)
	if err != nil {
		return nil, err
	}
	if !tau.IsGood(prm) {
		return nil, fmt.Errorf("%w: %+v at W=%v", ErrNotGood, tau, w)
	}

	par := ParametrizeWithSide(n, edges, m, side)
	lay := Build(par, tau, w, prm)
	if err := verifyCaptured(lay, walk, tau); err != nil {
		return nil, err
	}
	return &Witness{Side: side, Tau: tau, W: w, Layered: lay}, nil
}

// orientSides assigns L/R so every unmatched edge runs R→L in walk order
// (the proof's alternating assignment). Vertices off the walk default to L.
func orientSides(n int, walk Walk) ([]bool, error) {
	side := make([]bool, n)
	assigned := make(map[int]bool, len(walk.Vertices))
	set := func(v int, r bool) error {
		if prev, ok := assigned[v]; ok {
			if prev != r {
				return fmt.Errorf("%w: vertex %d", ErrSideConflict, v)
			}
			return nil
		}
		assigned[v] = r
		side[v] = r
		return nil
	}
	for i := 0; i < walk.Len(); i++ {
		u, v := walk.Vertices[i], walk.Vertices[i+1]
		if walk.Matched[i] {
			continue // matched edges only need to cross; fixed by others
		}
		if err := set(u, true); err != nil { // tail in R
			return nil, err
		}
		if err := set(v, false); err != nil { // head in L
			return nil, err
		}
	}
	// Matched edges must cross: fix any endpoint not yet assigned.
	for i := 0; i < walk.Len(); i++ {
		if !walk.Matched[i] {
			continue
		}
		u, v := walk.Vertices[i], walk.Vertices[i+1]
		au, okU := assigned[u]
		av, okV := assigned[v]
		switch {
		case okU && okV:
			if au == av {
				return nil, fmt.Errorf("%w: matched edge %d-%d", ErrSideConflict, u, v)
			}
		case okU:
			if err := set(v, !au); err != nil {
				return nil, err
			}
		case okV:
			if err := set(u, !av); err != nil {
				return nil, err
			}
		default:
			if err := set(u, false); err != nil {
				return nil, err
			}
			if err := set(v, true); err != nil {
				return nil, err
			}
		}
	}
	return side, nil
}

// deriveTau rounds the walk's matched weights up and unmatched weights down
// to the grid, as in the Lemma 4.12 proof. Leading/trailing unmatched edges
// get flanking τA = 0 entries (free endpoints).
func deriveTau(walk Walk, w float64, prm Params) (TauPair, error) {
	gw := prm.Granularity * w
	var tau TauPair
	if !walk.Matched[0] {
		tau.AUnits = append(tau.AUnits, 0)
	}
	for i := 0; i < walk.Len(); i++ {
		if walk.Matched[i] {
			tau.AUnits = append(tau.AUnits, int(math.Ceil(float64(walk.Weights[i])/gw)))
		} else {
			tau.BUnits = append(tau.BUnits, int(math.Floor(float64(walk.Weights[i])/gw)))
		}
	}
	if !walk.Matched[walk.Len()-1] {
		tau.AUnits = append(tau.AUnits, 0)
	}
	if len(tau.AUnits) != len(tau.BUnits)+1 {
		return tau, fmt.Errorf("%w: %d matched vs %d unmatched layers",
			ErrNotAlternating, len(tau.AUnits), len(tau.BUnits))
	}
	return tau, nil
}

// verifyCaptured checks that every walk edge survives the filters in its
// designated layer of lay.
func verifyCaptured(lay *Layered, walk Walk, tau TauPair) error {
	hasX := make(map[graph.Edge]bool, len(lay.X))
	for _, e := range lay.X {
		hasX[e.Canonical()] = true
	}
	hasY := make(map[graph.Edge]bool, len(lay.Y))
	for _, e := range lay.Y {
		hasY[e.Canonical()] = true
	}
	// Matched edges live inside the current layer; each unmatched edge
	// advances to the next layer. A walk starting with an unmatched edge
	// leaves the implicit τA_1 = 0 layer, which holds no matched edges.
	layer := 0
	for i := 0; i < walk.Len(); i++ {
		u, v := walk.Vertices[i], walk.Vertices[i+1]
		if walk.Matched[i] {
			le := graph.Edge{U: lay.ID(layer, u), V: lay.ID(layer, v), W: walk.Weights[i]}.Canonical()
			if !hasX[le] {
				return fmt.Errorf("%w: matched edge %d-%d in layer %d", ErrNotCaptured, u, v, layer)
			}
		} else {
			le := graph.Edge{U: lay.ID(layer, u), V: lay.ID(layer+1, v), W: walk.Weights[i]}.Canonical()
			if !hasY[le] {
				return fmt.Errorf("%w: unmatched edge %d-%d between layers %d,%d",
					ErrNotCaptured, u, v, layer, layer+1)
			}
			layer++
		}
	}
	return nil
}
