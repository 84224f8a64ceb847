// Package layered implements the Section 4.3 machinery of
// Gamlath–Kale–Mitrović–Svensson (PODC 2019): random graph parametrization
// (Section 4.3.1), the good (τA, τB) pairs of Table 1, the layered graph of
// Definition 4.10 with its two-stage vertex filtering, and the Lemma 4.11
// decomposition of layered-graph alternating paths into alternating paths
// and even cycles of the original graph.
//
// The paper's constants are parameterised: the weight granularity ε¹² of the
// filtering becomes Params.Granularity and the maximum augmentation length
// 2/ε·16/ε+1 becomes Params.MaxLayers. See DESIGN.md ("Substitutions") for
// why this preserves the behaviour each experiment measures: the Table-1
// constraint Στ_B − Στ_A ≥ g guarantees positive gain for every captured
// augmentation at any granularity g.
//
// # Amortised construction
//
// Beyond the per-round construction, the package carries the differential
// machinery of the amortised pipeline. IncIndex maintains the per-class
// viability buckets across rounds, re-deriving only what a bipartition
// redraw, an augmentation, or a graph edit touched — edits arrive through
// the BeginEdits/Note*/EndEdits protocol and charge the same per-(class,
// unit) change clocks a redraw stamps, so downstream consumers need no new
// invariants. BuildIndexed and BuildDelta share one assembly routine on
// the Scratch arena every build lives in: it truncates the arena to a kept
// prefix of X layers and Y gaps, rebuilds the rest and records the
// watermarks BuildDelta diffs against, so the arena's latest build is
// always a valid baseline. BuildIndexed keeps nothing and scans each Y
// gap's bucket through the Definition 4.10 vertex filter; BuildDelta keeps
// the prefix a previous build over the same IncView shares with the next
// pair (bit-identical to BuildIndexed by construction) and reads every
// rebuilt Y gap from the view's grouped Y tables. Its DeltaInfo names the
// baseline build and the byte-shared prefix of the L' edge list, which is
// exactly what bipartite.RepairHK needs to patch the matching solve on
// top. A baseline that cannot be proven fresh is rejected with one of the
// four ErrDelta* sentinels (NoBase, Scratch, Stale, Mismatch) and the
// caller builds from scratch — the build rung of core's degradation
// ladder. The view's round epoch and per-(class, unit) change clocks
// (RoundEpoch, AStableSince, YStableSince) are the freshness oracle for
// baselines that survived a redraw, letting BuildDelta keep exactly the
// segments whose buckets provably did not change. An IncIndex exists only
// at granularity 1/62 or coarser (CanIndexIncrementally), where each
// per-unit table is one 64-bit word; finer discretisations, the naive path
// and the cold rungs use BucketIndex, the per-round rebuild that draws the
// crossing edges from the Parametrized bipartition itself, through
// BuildIndexed alone.
package layered

import "fmt"

// Params collects the discretisation parameters of the layered-graph
// construction.
type Params struct {
	// Granularity g replaces the paper's ε¹²: τ values are multiples of g
	// and edge weights are bucketed to width g·W. Default 1/8.
	Granularity float64
	// MaxLayers bounds |τA|, the number of matched-edge layers (the paper's
	// 2/ε·16/ε + 1). Default 5.
	MaxLayers int
	// SumCap bounds Στ_B (the paper's 1+ε⁴; there the granularity ε¹² is so
	// much finer than the cap that rounding never bites). At coarse
	// granularity a cap of 2 leaves room for the cycle blow-up of Section
	// 1.1.2, matching Definition 4.6's allowance of edges up to 2W.
	// Default 2.
	SumCap float64
}

// WithDefaults fills zero fields with the default configuration. A
// granularity that is NaN, not positive or above 1/2 counts as unset.
func (p Params) WithDefaults() Params {
	if !(p.Granularity > 0) || p.Granularity > 0.5 {
		p.Granularity = 0.125
	}
	if p.MaxLayers < 2 {
		p.MaxLayers = 5
	}
	if p.SumCap <= 0 {
		p.SumCap = 2
	}
	return p
}

// Units returns the maximum τ value in granularity units (τ ≤ 1) and the
// Στ_B cap in units.
func (p Params) Units() (maxU, capU int) {
	maxU = int(1/p.Granularity + 0.5)
	capU = int(p.SumCap/p.Granularity + 1e-9)
	return maxU, capU
}

// minGranularity is the finest granularity CheckGranularity accepts.
// core.ClassWeights adds one anchored weight class per unit, so the class
// count, and with it every round's sweep, grows with 1/g.
const minGranularity = 1.0 / 4096

// CheckGranularity refuses a granularity a caller asks for explicitly that
// WithDefaults would silently replace or that no run can afford: it accepts
// 0 (the default, 1/8) or a value in [1/4096, 1/2]. The commands check
// their -granularity flag with it.
func CheckGranularity(g float64) error {
	if g == 0 || (g >= minGranularity && g <= 0.5) {
		return nil
	}
	return fmt.Errorf("granularity %v is neither 0 (the default, 1/8) nor in [1/4096, 1/2]", g)
}
