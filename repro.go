// Package repro is a from-scratch Go reproduction of
// "Weighted Matchings via Unweighted Augmentations"
// (Gamlath, Kale, Mitrović, Svensson — PODC 2019, arXiv:1811.02760).
//
// It exposes the paper's two main algorithmic results behind a small
// facade:
//
//   - RandomArrivalWeighted: the (1/2+c)-approximation single-pass
//     semi-streaming algorithm for maximum weighted matching under random
//     edge arrivals (Theorem 1.1, Algorithm 2), together with
//     RandomArrivalUnweighted (Theorem 3.4).
//
//   - ApproxWeighted / ApproxWeightedStreaming / ApproxWeightedMPC: the
//     (1−ε)-approximation for weighted matching obtained by reducing to
//     unweighted bipartite matching through layered graphs (Theorem 1.2,
//     Section 4), offline and in the two computation models with pass and
//     round accounting.
//
// Baselines (greedy, local-ratio, Hopcroft–Karp, blossom, exact DP) and
// workload generators with planted optima are exported for evaluation.
// See DESIGN.md for the architecture and EXPERIMENTS.md for measured
// results against the paper's claims.
package repro

import (
	"errors"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/layered"
	"repro/internal/localratio"
	"repro/internal/matchutil"
	"repro/internal/randarrival"
	"repro/internal/stream"
)

// Core graph types.
type (
	// Graph is a simple undirected weighted graph on vertices [0, n).
	Graph = graph.Graph
	// Edge is an undirected weighted edge.
	Edge = graph.Edge
	// Matching is a set of vertex-disjoint weighted edges.
	Matching = graph.Matching
	// Weight is the integer edge-weight type.
	Weight = graph.Weight
	// Augmentation is a remove/add modification of a matching.
	Augmentation = graph.Augmentation
	// Instance couples a generated graph with its planted optimum.
	Instance = graph.Instance
)

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// GraphFromEdges builds a validated graph from an edge list.
func GraphFromEdges(n int, edges []Edge) (*Graph, error) { return graph.FromEdges(n, edges) }

// ReadGraph parses the text edge format ("p <n> <m>" header then
// "<u> <v> <w>" lines).
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// NewMatching returns an empty matching over n vertices.
func NewMatching(n int) *Matching { return graph.NewMatching(n) }

// Workload generators (deterministic under the given rng).
var (
	// RandomGraph generates a uniform random simple graph.
	RandomGraph = graph.RandomGraph
	// RandomBipartite generates a random bipartite graph.
	RandomBipartite = graph.RandomBipartite
	// PlantedMatching generates a graph whose optimal matching is known by
	// construction (heavy planted perfect matching plus light noise).
	PlantedMatching = graph.PlantedMatching
	// WeightedCycle generates the paper's alternating-weight cycle family
	// (Section 1.1.2), improvable only through augmenting cycles.
	WeightedCycle = graph.WeightedCycle
	// AugmentingChain generates the hard-for-greedy chain of length-3
	// segments.
	AugmentingChain = graph.AugmentingChain
)

// Baseline algorithms.

// GreedyWeighted is the offline sorted greedy 1/2-approximation.
func GreedyWeighted(g *Graph) *Matching { return matchutil.GreedyWeighted(g) }

// LocalRatio is the Paz–Schwartzman streaming 1/2-approximation processed
// in the given edge order.
func LocalRatio(g *Graph) *Matching { return localratio.Run(g.N(), g.Edges()) }

// LocalRatioCertified runs LocalRatio and additionally returns a certified
// lower bound on its approximation ratio obtained from the fractional
// vertex-cover dual (Σα upper-bounds the optimum), usable at scales where
// no exact oracle is feasible.
func LocalRatioCertified(g *Graph) (*Matching, float64) {
	return localratio.CertifiedRatio(g.N(), g.Edges())
}

// MaxWeightExact solves maximum weight matching exactly (n ≤ 22; test
// oracle).
func MaxWeightExact(g *Graph) (*Matching, error) { return matchutil.MaxWeightExact(g) }

// MaxCardinality solves maximum cardinality matching exactly on general
// graphs (Edmonds' blossom algorithm).
func MaxCardinality(g *Graph) *Matching { return matchutil.MaxCardinality(g) }

// RandomArrivalOptions configures the Theorem 1.1 algorithm.
type RandomArrivalOptions struct {
	// Seed drives both the stream permutation and the algorithm's internal
	// sampling.
	Seed int64
	// PrefixFraction is the local-ratio warm-up fraction p (default 0.05).
	PrefixFraction float64
}

// RandomArrivalResult reports the Theorem 1.1 run.
type RandomArrivalResult struct {
	M *Matching
	// Branch is the winning Algorithm 2 branch ("stack" or "augment").
	Branch string
	// StackSize and TSize are the space diagnostics of Lemma 3.15.
	StackSize, TSize int
}

// RandomArrivalWeighted runs Rand-Arr-Matching (Algorithm 2, Theorem 1.1)
// on a uniformly random permutation of g's edges: a single-pass
// semi-streaming (1/2+c)-approximation for maximum weighted matching.
func RandomArrivalWeighted(g *Graph, opts RandomArrivalOptions) RandomArrivalResult {
	rng := rand.New(rand.NewSource(opts.Seed))
	s := stream.RandomOrder(g, rng)
	res := randarrival.RandArrMatching(g.N(), s, randarrival.WeightedOptions{
		PrefixFraction: opts.PrefixFraction,
		Rng:            rng,
	})
	return RandomArrivalResult{
		M:         res.M,
		Branch:    res.Branch,
		StackSize: res.StackSize,
		TSize:     res.TSize,
	}
}

// RandomArrivalUnweighted runs the Theorem 3.4 one-pass 0.506-approximation
// for unweighted matching on a random permutation of g's edges (weights are
// ignored).
func RandomArrivalUnweighted(g *Graph, seed int64) *Matching {
	rng := rand.New(rand.NewSource(seed))
	s := stream.RandomOrder(g, rng)
	return randarrival.UnweightedRandomArrival(g.N(), s, randarrival.UnweightedOptions{}).M
}

// ApproxOptions configures the Theorem 1.2 reduction drivers.
type ApproxOptions struct {
	// Seed drives the random bipartitions.
	Seed int64
	// Granularity is the τ discretisation g (the paper's ε¹²); smaller is
	// more accurate and slower. Default 1/8.
	Granularity float64
	// MaxLayers bounds augmentation length (the paper's O(1/ε²) layers).
	// Default 5.
	MaxLayers int
	// Delta is the unweighted subroutine's (1−δ) target in the model
	// drivers. Default 0.2.
	Delta float64
	// MaxRounds and Patience bound the improvement loop.
	MaxRounds, Patience int
	// Amortize routes the run through the cross-round amortised pipeline
	// (incremental viability index, probe-guided pair enumeration,
	// cross-class solve cache) — bit-identical results, see
	// core.Options.Amortize.
	Amortize bool
	// Workers bounds the per-class worker pool (see core.Options.Workers).
	Workers int
	// DeltaCutover, RepairCutover and CrossRoundCutover tune (or, negative,
	// disable) the amortised path's differential builder, incremental
	// Hopcroft–Karp repair, and cross-round chain — the measurement
	// baselines of E15/E16/E17. CacheGate tunes the cross-class cache's
	// hit-rate gate. All four are bit-identity-preserving at any setting;
	// see the matching core.Options fields.
	DeltaCutover, RepairCutover, CrossRoundCutover, CacheGate int
}

func (o ApproxOptions) coreOptions() core.Options {
	return core.Options{
		Layered: layered.Params{
			Granularity: o.Granularity,
			MaxLayers:   o.MaxLayers,
		},
		Rng:               rand.New(rand.NewSource(o.Seed)),
		MaxRounds:         o.MaxRounds,
		Patience:          o.Patience,
		Amortize:          o.Amortize,
		Workers:           o.Workers,
		DeltaCutover:      o.DeltaCutover,
		RepairCutover:     o.RepairCutover,
		CrossRoundCutover: o.CrossRoundCutover,
		CacheGate:         o.CacheGate,
	}
}

// ApproxStats mirrors core.Stats for the facade.
type ApproxStats = core.Stats

// ApproxResult reports an offline reduction run.
type ApproxResult struct {
	M     *Matching
	Stats ApproxStats
}

// ApproxWeighted computes a near-maximum weighted matching with the
// Section 4 reduction, using the exact Hopcroft–Karp subroutine offline.
// The initial matching may be nil (start empty).
func ApproxWeighted(g *Graph, initial *Matching, opts ApproxOptions) (ApproxResult, error) {
	res, err := core.Solve(g, initial, opts.coreOptions())
	return ApproxResult{M: res.M, Stats: res.Stats}, err
}

// SnapshotInfo reports how a snapshotted run started (see
// ApproxWeightedSnapshot): warm from a checkpoint, or cold and why.
type SnapshotInfo struct {
	// Resumed is true when the run picked up from a verified checkpoint;
	// ResumedRound is the round it resumed at.
	Resumed      bool
	ResumedRound int
	// ColdStart explains why a requested resume started cold instead — a
	// missing, truncated, corrupted or version-skewed snapshot, a different
	// graph, or foreign options. Empty when resumed (or never requested).
	ColdStart string
}

// ApproxWeightedSnapshot is ApproxWeighted with crash-resumable state: a
// verified checkpoint is persisted to path after every round (atomically,
// so a crash mid-save keeps the previous one). With resume, a valid
// checkpoint at path continues the run warm — bit-identical to the
// uninterrupted run for every deterministic configuration (see
// core.ResumeSolve) — while any unusable snapshot (missing, truncated,
// bit-flipped, future-versioned, wrong graph, foreign options) degrades to
// a cold start, reported in SnapshotInfo.ColdStart; it is never an error
// and never resumes into wrong state (the container checksum guarantees
// detection). The initial matching is only used on cold starts — a resumed
// run continues from the checkpoint's matching.
func ApproxWeightedSnapshot(g *Graph, initial *Matching, opts ApproxOptions, path string, resume bool) (ApproxResult, SnapshotInfo, error) {
	co := opts.coreOptions()
	co.Rng = nil // Solve/ResumeSolve own the Rng (seed + draw count persist)
	save := func(cp *core.Checkpoint) error { return core.SaveCheckpoint(path, cp) }
	var info SnapshotInfo
	if resume {
		cp, err := core.LoadCheckpoint(path)
		if err == nil && !sameGraph(cp.Graph, g) {
			err = errSnapshotGraph
		}
		if err == nil {
			res, rerr := core.ResumeSolve(cp, co, save)
			if !errors.Is(rerr, core.ErrCheckpointOptions) {
				info.Resumed, info.ResumedRound = true, cp.Round
				return ApproxResult{M: res.M, Stats: res.Stats}, info, rerr
			}
			err = rerr
		}
		info.ColdStart = err.Error()
	}
	res, err := core.SolveCheckpointed(g, initial, co, opts.Seed, save)
	return ApproxResult{M: res.M, Stats: res.Stats}, info, err
}

var errSnapshotGraph = errors.New("repro: snapshot was taken on a different graph")

// sameGraph reports whether two graphs are identical instances: same
// vertex count and the same edge list in the same order (the reduction is
// order-sensitive only through the Rng, but a checkpoint's Rng stream is
// only meaningful against the byte-identical instance).
func sameGraph(a, b *Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	be := b.Edges()
	for i, e := range a.Edges() {
		if e != be[i] {
			return false
		}
	}
	return true
}

// StreamingApproxResult adds multi-pass accounting to an ApproxResult.
type StreamingApproxResult struct {
	M     *Matching
	Stats ApproxStats
	// TotalPasses, MaxRoundPasses and SubroutinePasses expose the
	// Theorem 1.2(2) pass accounting (see core.StreamingResult).
	TotalPasses, MaxRoundPasses, SubroutinePasses int
	// PeakStored is the peak per-instance memory in words.
	PeakStored int
}

// ApproxWeightedStreaming runs the reduction in the multi-pass
// semi-streaming model (Theorem 1.2(2)).
func ApproxWeightedStreaming(g *Graph, initial *Matching, opts ApproxOptions) (StreamingApproxResult, error) {
	res, err := core.SolveStreaming(g, initial, core.StreamingOptions{
		Core:  opts.coreOptions(),
		Delta: opts.Delta,
	})
	return StreamingApproxResult{
		M:                res.M,
		Stats:            res.Stats,
		TotalPasses:      res.TotalPasses,
		MaxRoundPasses:   res.MaxRoundPasses,
		SubroutinePasses: res.SubroutinePasses,
		PeakStored:       res.PeakStored,
	}, err
}

// MPCApproxResult adds MPC round accounting to an ApproxResult.
type MPCApproxResult struct {
	M     *Matching
	Stats ApproxStats
	// TotalRounds, MaxRoundRounds and SubroutineRounds expose the
	// Theorem 1.2(1) round accounting (see core.MPCResult).
	TotalRounds, MaxRoundRounds, SubroutineRounds int
	// PeakLoad is the largest per-machine load observed (words).
	PeakLoad int
}

// ApproxWeightedMPC runs the reduction in the simulated MPC model
// (Theorem 1.2(1)) with O(m/n) machines and near-linear memory per machine.
func ApproxWeightedMPC(g *Graph, initial *Matching, opts ApproxOptions) (MPCApproxResult, error) {
	res, err := core.SolveMPC(g, initial, core.MPCOptions{
		Core:  opts.coreOptions(),
		Delta: opts.Delta,
	})
	return MPCApproxResult{
		M:                res.M,
		Stats:            res.Stats,
		TotalRounds:      res.TotalRounds,
		MaxRoundRounds:   res.MaxRoundRounds,
		SubroutineRounds: res.SubroutineRounds,
		PeakLoad:         res.PeakLoad,
	}, err
}

// Ratio returns w(m)/opt, or 0 when opt is 0.
func Ratio(m *Matching, opt Weight) float64 { return matchutil.Ratio(m, opt) }
