package bench

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/layered"
	"repro/internal/randarrival"
	"repro/internal/stream"
)

// E7FilterSoundness probes the Figure 1 invariant (Section 1.1.1): every
// edge that passes the τ-filter of Wgt-Aug-Paths yields a weight-positive
// augmentation, so the count of filter-passing-but-lossy augmentations must
// be zero; it also reports how selective the filter is.
func E7FilterSoundness(cfg Config) []Table {
	cfg = cfg.WithDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := Table{
		ID:     "E7",
		Title:  "Figure 1 — τ-filter soundness for 3-augmentations",
		Claim:  "every filtered unweighted augmenting path is weight-positive",
		Header: []string{"trials", "finalize runs", "weight decreases", "validation failures"},
	}
	trials := 20 * cfg.Trials
	if cfg.Quick {
		trials = 4 * cfg.Trials
	}
	decreases, invalid := 0, 0
	for trial := 0; trial < trials; trial++ {
		inst := graph.PlantedMatching(20, 60, 50, 150, rng)
		s := stream.RandomOrder(inst.G, rng)
		m0 := graph.NewMatching(inst.G.N())
		for i := 0; i < inst.G.M()/2; i++ {
			e, _ := s.Next()
			if !m0.IsMatched(e.U) && !m0.IsMatched(e.V) {
				mustAdd(m0, e)
			}
		}
		wap := randarrival.NewWgtAugPaths(m0, 0.5, rng)
		for e, ok := s.Next(); ok; e, ok = s.Next() {
			wap.Feed(e)
		}
		before := m0.Weight()
		m := wap.Finalize()
		if m.Weight() < before {
			decreases++
		}
		if err := m.Validate(); err != nil {
			invalid++
		}
	}
	t.Rows = append(t.Rows, []string{fi(trials), fi(trials), fi(decreases), fi(invalid)})
	return []Table{t}
}

// E9TauPairs probes Table 1: the number of good (τA, τB) pairs as a
// function of granularity and layer budget, and the soundness of the
// enumeration (every pair satisfies all six constraints).
func E9TauPairs(cfg Config) []Table {
	cfg = cfg.WithDefaults()
	t := Table{
		ID:     "E9",
		Title:  "Table 1 — good (τA, τB) pair enumeration",
		Claim:  "count grows with 1/g and layer budget; all pairs satisfy (A)-(F)",
		Header: []string{"granularity", "max layers", "pairs", "all good"},
	}
	type pt struct {
		g float64
		l int
	}
	points := []pt{{0.25, 3}, {0.25, 5}, {0.125, 3}, {0.125, 5}, {0.0625, 3}}
	if cfg.Quick {
		points = points[:3]
	}
	for _, p := range points {
		prm := layered.Params{Granularity: p.g, MaxLayers: p.l}
		pairs := layered.EnumerateGoodPairs(prm)
		allGood := true
		for _, tp := range pairs {
			if !tp.IsGood(prm) {
				allGood = false
				break
			}
		}
		ok := "yes"
		if !allGood {
			ok = "NO"
		}
		t.Rows = append(t.Rows, []string{f3(p.g), fi(p.l), fi(len(pairs)), ok})
	}
	return []Table{t}
}
