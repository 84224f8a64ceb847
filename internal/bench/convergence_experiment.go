package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
)

// E12Convergence records the per-round convergence curve of the Theorem 1.2
// driver: the expected-gain argument of Theorem 4.8 implies geometric
// convergence toward the optimum (each round closes a constant expected
// fraction of the remaining gap while the matching is not (1−ε)-optimal).
func E12Convergence(cfg Config) []Table {
	cfg = cfg.WithDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := 120
	if cfg.Quick {
		n = 50
	}
	inst := graph.PlantedMatching(n, 5*n, 100, 200, rng)

	t := Table{
		ID:     "E12",
		Title:  "Theorem 4.8 — per-round convergence of the reduction",
		Claim:  "each round closes a constant expected fraction of the remaining gap",
		Header: []string{"round", "weight", "ratio", "remaining gap"},
	}
	// Exactly 12 rounds, no stall rule: the curve is the matching weight
	// after each one.
	m := graph.NewMatching(inst.G.N())
	var stats core.Stats
	runner := core.NewRunner(inst.G, core.Options{Rng: rng, Amortize: true})
	for round := 1; round <= 12; round++ {
		if _, err := runner.Round(m, &stats); err != nil {
			return []Table{t}
		}
		w := m.Weight()
		t.Rows = append(t.Rows, []string{
			fi(round),
			fi64(int64(w)),
			f3(float64(w) / float64(inst.OptWeight)),
			fi64(int64(inst.OptWeight - w)),
		})
	}

	// The amortised-pipeline ledger: how much of the round work the
	// cross-round machinery absorbed. The builds column counts
	// probe-pruned pairs too, and solver calls plus cache hits equal the
	// naive path's calls (bit-identical matchings, see internal/solvertest).
	// The columns come from core.Stats itself (Stats.Fields), so a counter
	// added by a future PR appears here without anyone remembering to add
	// it — TestE12bCountersComplete pins the correspondence.
	counters := Table{
		ID:    "E12b",
		Title: "amortised-pipeline counters over the E12 run",
		Claim: "probe-guided enumeration prunes most pairs before generation; matchings stay bit-identical",
	}
	var row []string
	for _, f := range stats.Fields() {
		counters.Header = append(counters.Header, f.Name)
		row = append(row, fmt.Sprintf("%d", f.Value))
	}
	counters.Header = append(counters.Header, "final weight")
	row = append(row, fi64(int64(m.Weight())))
	counters.Rows = append(counters.Rows, row)
	return []Table{t, counters}
}
