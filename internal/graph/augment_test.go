package graph

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestAugmentationGain(t *testing.T) {
	a := Augmentation{
		Remove: []Edge{{U: 0, V: 1, W: 5}},
		Add:    []Edge{{U: 1, V: 2, W: 4}, {U: 0, V: 3, W: 3}},
	}
	if g := a.Gain(); g != 2 {
		t.Errorf("Gain = %d, want 2", g)
	}
}

func TestApplyPath(t *testing.T) {
	// 3-augmentation: matching {1-2}; add {0-1, 2-3}; remove {1-2}.
	m := NewMatching(4)
	mustAdd(m, Edge{U: 1, V: 2, W: 5})
	a := Augmentation{
		Remove: []Edge{{U: 1, V: 2, W: 5}},
		Add:    []Edge{{U: 0, V: 1, W: 4}, {U: 2, V: 3, W: 4}},
	}
	gain, err := Apply(m, a)
	if err != nil {
		t.Fatal(err)
	}
	if gain != 3 {
		t.Errorf("gain = %d, want 3", gain)
	}
	if m.Weight() != 8 || m.Size() != 2 {
		t.Errorf("weight=%d size=%d", m.Weight(), m.Size())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyRejectsInvalid(t *testing.T) {
	m := NewMatching(4)
	mustAdd(m, Edge{U: 0, V: 1, W: 5})

	tests := []struct {
		name string
		a    Augmentation
	}{
		{"remove missing", Augmentation{Remove: []Edge{{U: 2, V: 3, W: 1}}}},
		{"add conflicts", Augmentation{Add: []Edge{{U: 1, V: 2, W: 9}}}},
		{"add self loop", Augmentation{Add: []Edge{{U: 2, V: 2, W: 9}}}},
		{"adds share vertex", Augmentation{Add: []Edge{{U: 2, V: 3, W: 1}, {U: 3, V: 2, W: 1}}}},
		{"remove listed twice", Augmentation{
			Remove: []Edge{{U: 0, V: 1, W: 5}, {U: 0, V: 1, W: 5}},
			Add:    []Edge{{U: 2, V: 3, W: 1}},
		}},
		{"add non-positive weight", Augmentation{Add: []Edge{{U: 2, V: 3, W: -4}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			before, size := m.Weight(), m.Size()
			if _, err := Apply(m, tt.a); !errors.Is(err, ErrInvalidAugmentation) {
				t.Errorf("Apply = %v, want ErrInvalidAugmentation", err)
			}
			if Applies(m, tt.a) {
				t.Error("Applies accepts what Apply refused")
			}
			if m.Weight() != before || m.Size() != size {
				t.Error("failed Apply mutated the matching")
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestApplyCycle(t *testing.T) {
	// The paper's 4-cycle (3,4,3,4): swap the 3s for the 4s.
	inst := WeightedCycle(2, 3, 4)
	m := NewMatching(4)
	mustAdd(m, Edge{U: 0, V: 1, W: 3})
	mustAdd(m, Edge{U: 2, V: 3, W: 3})
	a := Augmentation{
		Remove: []Edge{{U: 0, V: 1, W: 3}, {U: 2, V: 3, W: 3}},
		Add:    []Edge{{U: 1, V: 2, W: 4}, {U: 3, V: 0, W: 4}},
	}
	gain, err := Apply(m, a)
	if err != nil {
		t.Fatal(err)
	}
	if gain != 2 {
		t.Errorf("gain = %d, want 2", gain)
	}
	if m.Weight() != inst.OptWeight {
		t.Errorf("weight = %d, want %d", m.Weight(), inst.OptWeight)
	}
}

func TestApplyDisjointSkipsConflicts(t *testing.T) {
	m := NewMatching(6)
	augs := []Augmentation{
		{Add: []Edge{{U: 0, V: 1, W: 5}}},
		{Add: []Edge{{U: 1, V: 2, W: 9}}}, // conflicts with first
		{Add: []Edge{{U: 3, V: 4, W: 2}}},
	}
	gain, applied := ApplyDisjoint(m, augs)
	if applied != 2 || gain != 7 {
		t.Errorf("applied=%d gain=%d, want 2, 7", applied, gain)
	}
}

func TestApplyDisjointSkipsDuplicateRemove(t *testing.T) {
	// A Remove pair listed twice must be skipped as invalid (the legacy
	// Apply-based loop rejected it with an error), not crash mid-apply.
	m := NewMatching(4)
	mustAdd(m, Edge{U: 0, V: 1, W: 3})
	augs := []Augmentation{
		{
			Remove: []Edge{{U: 0, V: 1, W: 3}, {U: 1, V: 0, W: 3}},
			Add:    []Edge{{U: 1, V: 2, W: 9}},
		},
		{Add: []Edge{{U: 2, V: 3, W: 4}}},
	}
	gain, applied := ApplyDisjoint(m, augs)
	if applied != 1 || gain != 4 {
		t.Errorf("applied=%d gain=%d, want 1, 4", applied, gain)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPathAugmentationDerivesRemovals(t *testing.T) {
	m := NewMatching(6)
	mustAdd(m, Edge{U: 1, V: 2, W: 5})
	mustAdd(m, Edge{U: 3, V: 4, W: 6})
	// Adding 2-3 must evict both matched edges.
	a := PathAugmentation(m, []Edge{{U: 2, V: 3, W: 20}})
	if len(a.Remove) != 2 {
		t.Fatalf("removals = %v", a.Remove)
	}
	if a.Gain() != 20-11 {
		t.Errorf("gain = %d, want 9", a.Gain())
	}
	gain, err := Apply(m, a)
	if err != nil {
		t.Fatal(err)
	}
	if gain != 9 {
		t.Errorf("realised gain = %d", gain)
	}
}

// TestPathAugmentationRemoveOrder: the removals come back in the order the
// add list first touches them, identically on every call. A matched edge
// reached from both of its endpoints (4-5 below) is listed once.
func TestPathAugmentationRemoveOrder(t *testing.T) {
	m := NewMatching(20)
	for _, e := range []Edge{{U: 10, V: 11, W: 3}, {U: 0, V: 1, W: 4}, {U: 4, V: 5, W: 5},
		{U: 8, V: 9, W: 6}, {U: 2, V: 3, W: 7}, {U: 15, V: 14, W: 8}, {U: 6, V: 7, W: 9}} {
		mustAdd(m, e)
	}
	add := []Edge{{U: 11, V: 14, W: 20}, {U: 9, V: 4, W: 20}, {U: 5, V: 1, W: 20},
		{U: 3, V: 12, W: 20}, {U: 7, V: 13, W: 20}}
	want := []Edge{{U: 10, V: 11, W: 3}, {U: 14, V: 15, W: 8}, {U: 8, V: 9, W: 6},
		{U: 4, V: 5, W: 5}, {U: 0, V: 1, W: 4}, {U: 2, V: 3, W: 7}, {U: 6, V: 7, W: 9}}
	for call := 0; call < 50; call++ {
		if got := PathAugmentation(m, add).Remove; !slices.Equal(got, want) {
			t.Fatalf("call %d: Remove = %v, want %v", call, got, want)
		}
	}
}

// quick-check invariant 2 of DESIGN.md: Apply either errors (leaving m
// intact) or increases weight by exactly the augmentation's Gain and keeps
// the matching valid.
func TestApplyGainExactQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16
		m := NewMatching(n)
		for i := 0; i < 5; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				_ = m.Add(Edge{U: u, V: v, W: Weight(1 + rng.Intn(9))})
			}
		}
		// Random candidate augmentation from random add edges.
		var add []Edge
		for i := 0; i < 3; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				add = append(add, Edge{U: u, V: v, W: Weight(1 + rng.Intn(9))})
			}
		}
		a := PathAugmentation(m, add)
		before := m.Weight()
		snapshot := m.Clone()
		gain, err := Apply(m, a)
		if err != nil {
			// m must be unchanged.
			if m.Weight() != before {
				return false
			}
			for v := 0; v < n; v++ {
				if m.Mate(v) != snapshot.Mate(v) {
					return false
				}
			}
			return m.Validate() == nil
		}
		if gain != a.Gain() {
			return false
		}
		if m.Weight() != before+gain {
			return false
		}
		return m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
