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
// invariants. BuildDelta patches a previous Layered build over the same
// IncView into the next pair's (bit-identical to BuildIndexed by
// construction), reading every rebuilt Y gap from the view's grouped Y
// tables; its DeltaInfo names the baseline build and the byte-shared
// prefix of the L' edge list, which is exactly what bipartite.RepairHK
// needs to patch the matching solve on top. A baseline that cannot be
// proven fresh is rejected with one of the five ErrDelta* sentinels
// (NoBase, Detached, Scratch, Stale, Mismatch) and the caller builds from
// scratch — the build rung of core's degradation ladder. The view's round
// epoch and per-(class, unit) change clocks (RoundEpoch, AStableSince,
// YStableSince) are the freshness oracle for baselines that survived a
// redraw, letting BuildDelta keep exactly the segments whose buckets
// provably did not change. An IncIndex exists only at granularity 1/62 or
// coarser (CanIndexIncrementally), where each per-unit table is one 64-bit
// word; finer discretisations, the naive path and the cold rungs use
// BucketIndex, the per-round rebuild, through BuildIndexed alone.
package layered

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

// WithDefaults fills zero fields with the default configuration.
func (p Params) WithDefaults() Params {
	if p.Granularity <= 0 || p.Granularity > 0.5 {
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
