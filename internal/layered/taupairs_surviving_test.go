package layered

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// tableOracle is a synthetic SurvivalOracle over explicit probe rows:
// rows[bUnit][aUnit] exactly as IncIndex.probeRows would lay them out. It
// lets the differential and fuzz tests mutate crossing tables freely,
// covering corners no graph instance reaches easily (every bit pattern is a
// legal table).
type tableOracle struct {
	rows [][]uint64
}

func (o tableOracle) LayerRow(bUnit, aUnit int) uint64 { return o.rows[bUnit][aUnit] }

// refSurvives is the generate-then-probe twin of the pruned enumeration's
// gap test: a pair survives when every gap t has a table bit connecting its
// τA entries — the ProbeY predicate restated over an explicit table.
func refSurvives(tau TauPair, rows [][]uint64) bool {
	k := tau.K()
	for t := 0; t < k; t++ {
		ua, ub := tau.AUnits[t], tau.AUnits[t+1]
		var row uint64
		if ua > 0 || t == 0 {
			row = rows[tau.BUnits[t]][ua]
		}
		switch {
		case ub > 0:
			if row&(1<<uint(ub)) == 0 {
				return false
			}
		case t+1 == k:
			if row&(1<<freeLBit) == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// assertSurvivingMatchesNaive checks the contract of EnumerateSurvivingPairs
// against the naive twin: same pairs in the same order as the masked
// enumeration filtered by the probe, with the pruned count reconciling the
// limit window pair-for-pair.
func assertSurvivingMatchesNaive(t *testing.T, p Params, aMask, bMask uint64, limit int, o tableOracle) {
	t.Helper()
	naive := EnumerateGoodPairsLimited(p,
		func(u int) bool { return aMask&(1<<uint(u)) != 0 },
		func(u int) bool { return bMask&(1<<uint(u)) != 0 },
		limit,
	)
	var want []TauPair
	for _, tau := range naive {
		if refSurvives(tau, o.rows) {
			want = append(want, tau)
		}
	}
	got, pruned := EnumerateSurvivingPairs(p, aMask, bMask, limit, o, nil)
	if len(got) != len(want) {
		t.Fatalf("aMask=%b bMask=%b limit=%d: %d surviving pairs, want %d",
			aMask, bMask, limit, len(got), len(want))
	}
	for i := range got {
		if !equalUnits(got[i].AUnits, want[i].AUnits) || !equalUnits(got[i].BUnits, want[i].BUnits) {
			t.Fatalf("pair %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if pruned != len(naive)-len(want) {
		t.Fatalf("pruned = %d, want %d (%d naive window − %d survivors)",
			pruned, len(naive)-len(want), len(naive), len(want))
	}
}

func equalUnits(a, b []int) bool {
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

func randomTable(maxU int, rng *rand.Rand, density float64) tableOracle {
	rows := make([][]uint64, maxU+1)
	for u := range rows {
		rows[u] = make([]uint64, maxU+1)
		for r := range rows[u] {
			if rng.Float64() < density {
				rows[u][r] = rng.Uint64() & ((1 << uint(maxU+1)) - 1)
				if rng.Intn(4) == 0 {
					rows[u][r] |= 1 << freeLBit
				}
			}
		}
	}
	return tableOracle{rows: rows}
}

// TestEnumerateSurvivingPairsRandomTables sweeps granularities, masks,
// limits, and table densities: sparse tables force deep pruning, dense ones
// keep most gaps alive down to the leaves, and tight limits exercise the
// window-charging arithmetic at subtree boundaries.
func TestEnumerateSurvivingPairsRandomTables(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, gran := range []float64{0.5, 0.25, 0.125} {
		p := Params{Granularity: gran}.WithDefaults()
		maxU, _ := p.Units()
		for _, density := range []float64{0, 0.05, 0.3, 1} {
			for trial := 0; trial < 40; trial++ {
				o := randomTable(maxU, rng, density)
				aMask := (rng.Uint64() & ((1 << uint(maxU+1)) - 1)) | 1
				bMask := rng.Uint64() & ((1 << uint(maxU+1)) - 1) &^ 3
				limit := 0
				if trial%3 != 0 {
					limit = 1 + rng.Intn(60)
				}
				assertSurvivingMatchesNaive(t, p, aMask, bMask, limit, o)
			}
		}
	}
}

// TestEnumerateSurvivingPairsExtremes pins the two degenerate tables: the
// all-ones table must reproduce the masked enumeration verbatim with zero
// pruning, the all-zero table must prune every good pair.
func TestEnumerateSurvivingPairsExtremes(t *testing.T) {
	p := defaultParams()
	maxU, _ := p.Units()
	aMask := uint64(1<<uint(maxU+1)) - 1
	bMask := aMask &^ 3

	full := make([][]uint64, maxU+1)
	for u := range full {
		full[u] = make([]uint64, maxU+1)
		for r := range full[u] {
			full[u][r] = (1 << uint(maxU+1)) - 1 | 1<<freeLBit
		}
	}
	naive := EnumerateGoodPairsMasked(p, aMask, bMask, 0)
	got, pruned := EnumerateSurvivingPairs(p, aMask, bMask, 0, tableOracle{rows: full}, nil)
	if pruned != 0 || len(got) != len(naive) {
		t.Fatalf("all-ones table: %d pairs (%d pruned), want %d (0 pruned)",
			len(got), pruned, len(naive))
	}

	empty := make([][]uint64, maxU+1)
	for u := range empty {
		empty[u] = make([]uint64, maxU+1)
	}
	got, pruned = EnumerateSurvivingPairs(p, aMask, bMask, 0, tableOracle{rows: empty}, nil)
	if len(got) != 0 || pruned != len(naive) {
		t.Fatalf("all-zero table: %d pairs (%d pruned), want 0 (%d pruned)",
			len(got), pruned, len(naive))
	}
}

// TestEnumerateSurvivingPairsScratchReuse runs different tables, masks and
// discretisations through one scratch and checks no result is corrupted by
// an earlier one: the pairs alias scratch storage, and the scratch caches
// counting tables keyed on the masks and the discretisation. Each mask pair
// runs at two granularities in a row, so a count cached under the first
// must not be charged under the second; every third table is all zero,
// which takes the fully dead path and charges that count.
func TestEnumerateSurvivingPairsScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	coarse, fine := Params{Granularity: 0.25}.WithDefaults(), Params{Granularity: 0.125}.WithDefaults()
	// Masks draw from the coarse units, which both granularities accept;
	// tables cover the fine ones.
	maxU, _ := coarse.Units()
	fineU, _ := fine.Units()
	s := NewPairScratch()
	for trial := 0; trial < 30; trial++ {
		density := 0.2
		if trial%3 == 0 {
			density = 0
		}
		o := randomTable(fineU, rng, density)
		aMask := (rng.Uint64() & ((1 << uint(maxU+1)) - 1)) | 1
		bMask := rng.Uint64() & ((1 << uint(maxU+1)) - 1) &^ 3
		limit := 0
		if trial%2 == 1 {
			limit = 1 + rng.Intn(40)
		}
		grans := []Params{coarse, fine}
		if trial%4 >= 2 {
			grans = []Params{fine, coarse}
		}
		for _, p := range grans {
			naive := EnumerateGoodPairsLimited(p,
				func(u int) bool { return aMask&(1<<uint(u)) != 0 },
				func(u int) bool { return bMask&(1<<uint(u)) != 0 },
				limit,
			)
			var want []TauPair
			for _, tau := range naive {
				if refSurvives(tau, o.rows) {
					want = append(want, tau)
				}
			}
			got, pruned := EnumerateSurvivingPairs(p, aMask, bMask, limit, o, s)
			if len(got) != len(want) {
				t.Fatalf("trial %d granularity %v: %d pairs, want %d", trial, p.Granularity, len(got), len(want))
			}
			for i := range got {
				if !equalUnits(got[i].AUnits, want[i].AUnits) || !equalUnits(got[i].BUnits, want[i].BUnits) {
					t.Fatalf("trial %d granularity %v pair %d: got %+v want %+v", trial, p.Granularity, i, got[i], want[i])
				}
			}
			if pruned != len(naive)-len(want) {
				t.Fatalf("trial %d granularity %v aMask=%b bMask=%b: pruned %d, want %d",
					trial, p.Granularity, aMask, bMask, pruned, len(naive)-len(want))
			}
		}
	}
}

// TestEnumerateSurvivingPairsIncView closes the loop on the real oracle: an
// IncIndex over a random graph under a mutating matching must yield, per
// class, exactly the masked enumeration filtered by its own ProbeY.
func TestEnumerateSurvivingPairsIncView(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 6; trial++ {
		n := 14 + rng.Intn(12)
		inst := graph.RandomGraph(n, 3*n, 64, rng)
		edges := inst.G.Edges()
		prm := Params{Granularity: []float64{0.5, 0.25, 0.125}[trial%3]}.WithDefaults()
		ws := testClassWeights(edges, prm)
		inc := NewIncIndex(n, edges, ws, prm)
		m := graph.NewMatching(n)
		for round := 0; round < 3; round++ {
			for i := 0; i < 6; i++ {
				mutateMatching(m, edges[rng.Intn(len(edges))], byte(rng.Intn(256)))
			}
			par := Parametrize(n, edges, m, rng)
			inc.BeginRound(par)
			for c := 0; c < inc.Classes(); c++ {
				view := inc.View(c)
				aMask, bMask, _ := view.Masks()
				for _, limit := range []int{0, 7} {
					naive := EnumerateGoodPairsMasked(prm, aMask, bMask, limit)
					var want []TauPair
					for _, tau := range naive {
						if view.ProbeY(tau) {
							want = append(want, tau)
						}
					}
					got, pruned := EnumerateSurvivingPairs(prm, aMask, bMask, limit, view, nil)
					if len(got) != len(want) || pruned != len(naive)-len(want) {
						t.Fatalf("class %d limit %d: %d pairs (%d pruned), want %d (%d)",
							c, limit, len(got), pruned, len(want), len(naive)-len(want))
					}
					for i := range got {
						if !equalUnits(got[i].AUnits, want[i].AUnits) || !equalUnits(got[i].BUnits, want[i].BUnits) {
							t.Fatalf("class %d pair %d: got %+v want %+v", c, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// FuzzEnumerateGoodPairs mutates the crossing tables, masks, and limit and
// holds the pruned enumeration to its naive twin: identical surviving pairs
// in identical order, and a pruned count that reconciles the limit window.
func FuzzEnumerateGoodPairs(f *testing.F) {
	f.Add(int64(1), uint8(2), uint16(20), []byte{1, 2, 3})
	f.Add(int64(2), uint8(0), uint16(0), []byte{0xff, 0x80})
	f.Add(int64(3), uint8(1), uint16(5), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, granSel uint8, limit uint16, table []byte) {
		rng := rand.New(rand.NewSource(seed))
		p := Params{Granularity: []float64{0.5, 0.25, 0.125, 0.0625}[granSel%4]}.WithDefaults()
		maxU, _ := p.Units()

		// The table bytes seed the probe rows; remaining bits are drawn from
		// the rng so every (bUnit, aUnit) cell gets a value.
		rows := make([][]uint64, maxU+1)
		bi := 0
		for u := range rows {
			rows[u] = make([]uint64, maxU+1)
			for r := range rows[u] {
				v := rng.Uint64()
				if bi < len(table) {
					v ^= uint64(table[bi]) << (8 * uint(bi%8))
					bi++
				}
				if rng.Intn(3) == 0 {
					v = 0 // sparse tables prune deeper
				}
				rows[u][r] = v & (((1 << uint(maxU+1)) - 1) | 1<<freeLBit)
			}
		}
		aMask := (rng.Uint64() & ((1 << uint(maxU+1)) - 1)) | 1
		bMask := rng.Uint64() & ((1 << uint(maxU+1)) - 1) &^ 3
		// Always bound the window: at fine granularity the naive twin would
		// otherwise enumerate millions of pairs per input (the unit tests
		// cover the unlimited case at coarse granularity).
		assertSurvivingMatchesNaive(t, p, aMask, bMask, 1+int(limit)%400, tableOracle{rows: rows})
	})
}
