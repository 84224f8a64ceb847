package graph

import (
	"errors"
	"slices"
)

// Augmentation describes a modification of a matching: remove the Remove
// edges (which must all be matched) and then add the Add edges (whose
// endpoints must be free after the removals). This is the "applying an
// augmentation" operation of Definition 4.4 in the paper, generalised to
// arbitrary edge sets so that alternating paths, alternating cycles, and
// single-edge insertions share one representation.
type Augmentation struct {
	Remove []Edge
	Add    []Edge
}

// Gain returns w(Add) - w(Remove), the weight increase of applying the
// augmentation (Definition 4.5).
func (a Augmentation) Gain() Weight {
	var g Weight
	for _, e := range a.Add {
		g += e.W
	}
	for _, e := range a.Remove {
		g -= e.W
	}
	return g
}

// ErrInvalidAugmentation is returned by Apply when the augmentation does not
// fit the matching (see Applies).
var ErrInvalidAugmentation = errors.New("graph: invalid augmentation")

// Apply applies a to m, returning the realised gain. It returns
// ErrInvalidAugmentation, with m unchanged, exactly when Applies refuses a.
func Apply(m *Matching, a Augmentation) (Weight, error) {
	if !Applies(m, a) {
		return 0, ErrInvalidAugmentation
	}
	return apply(m, a), nil
}

// Applies reports whether a fits m (every Remove edge matched and listed
// once, Add edges of positive weight, vertex-disjoint and free after the
// removals) — the one fit rule of Apply and ApplyDisjoint. The greedy
// conflict-resolution loops reject most of their candidates, so the
// rejection path must not allocate; augmentations are short (bounded by the
// layer count), so the quadratic endpoint scans beat building sets.
func Applies(m *Matching, a Augmentation) bool {
	for i, e := range a.Remove {
		if !m.Has(e.U, e.V) {
			return false
		}
		// A pair listed twice would make the second removal fail mid-apply
		// (distinct matched pairs cannot share an endpoint, so duplicate
		// pairs are the only overlap to guard).
		for _, prev := range a.Remove[:i] {
			if KeyOf(prev.U, prev.V) == KeyOf(e.U, e.V) {
				return false
			}
		}
	}
	freed := func(v int) bool {
		for _, e := range a.Remove {
			if e.U == v || e.V == v {
				return true
			}
		}
		return false
	}
	for i, e := range a.Add {
		if e.U == e.V || e.W <= 0 {
			return false
		}
		for _, v := range [2]int{e.U, e.V} {
			for _, prev := range a.Add[:i] {
				if prev.U == v || prev.V == v {
					return false
				}
			}
			if m.IsMatched(v) && !freed(v) {
				return false
			}
		}
	}
	return true
}

// ApplyDisjoint applies each augmentation that does not conflict with the
// current matching state (greedily, in order), skipping those that fail
// validation. It returns the total realised gain and the number applied.
// This is the greedy conflict-resolution step shared by Algorithm 1's
// Finalize and Algorithm 3's final loop.
func ApplyDisjoint(m *Matching, augs []Augmentation) (Weight, int) {
	var total Weight
	applied := 0
	for _, a := range augs {
		if !Applies(m, a) {
			continue
		}
		total += apply(m, a)
		applied++
	}
	return total, applied
}

// apply applies an augmentation Applies accepted and returns its gain.
func apply(m *Matching, a Augmentation) Weight {
	var gain Weight
	for _, e := range a.Remove {
		gain -= e.W
		// Applies verified membership; Remove cannot fail.
		if err := m.Remove(e.U, e.V); err != nil {
			panic(err)
		}
	}
	for _, e := range a.Add {
		gain += e.W
		if err := m.Add(e); err != nil {
			panic(err)
		}
	}
	return gain
}

// PathAugmentation builds the augmentation corresponding to an alternating
// path or cycle C (a sequence of edges alternating between non-matching and
// matching edges of m), together with the matching neighbourhood CM of
// Definition 4.3: every matched edge incident to a vertex of C is removed,
// and the non-matching edges of C are added.
//
// The caller supplies only the edges to add (the non-matching edges); the
// removals are derived from m, in the order the add list first touches
// them, so equal inputs give equal slices. The add edges must be vertex
// disjoint. Add lists are short (bounded by the layer count), so the
// duplicate check is a linear scan over the removals found so far, and an
// augmentation that removes nothing allocates nothing.
func PathAugmentation(m *Matching, add []Edge) Augmentation {
	var remove []Edge
	for _, e := range add {
		for _, v := range [2]int{e.U, e.V} {
			u := m.Mate(v)
			if u == Unmatched {
				continue
			}
			me := Edge{U: v, V: u, W: m.EdgeWeightAt(v)}.Canonical()
			if slices.Contains(remove, me) {
				continue
			}
			if remove == nil {
				remove = make([]Edge, 0, 2*len(add))
			}
			remove = append(remove, me)
		}
	}
	return Augmentation{Remove: remove, Add: add}
}
