package bipartite

// Incremental Hopcroft–Karp repair: the solver-side twin of the
// differential layered-graph builder (layered.BuildDelta). The amortised
// reduction solves chains of instances that differ from their predecessor
// only in a rebuilt suffix of the edge list (with a stable vertex-id
// prefix, Invariant 19). RepairHK keeps the retained CSR rows of that
// shared prefix and derives only the suffix entries, then runs the
// standard phase loop from the empty matching; it also hands back the
// arena-owned result matching instead of allocating one.
//
// A cold solve is the repair that keeps nothing: both lay out their CSR
// through the one builder, (*Scratch).build, with an empty or a shared
// prefix, so the repaired CSR is byte-identical to the cold one (same
// offsets, same per-row entry order) and the phase loop's execution is
// bit-for-bit the cold solve's: the same matching, the same phase count,
// the same tie-breaks (Invariant 21, repair-equals-fresh). Re-augmenting
// from a retained previous matching was considered and rejected: the
// warm-start measurements on E13 showed the reduction's layered graphs
// run ~1 phase per call, so there are no phases to save, and a seeded
// search returns a different (equally maximum) matching, which would
// break the differential suite's bit-identity. The repair's win is
// the setup cost, exactly where the E13 counters located it.

import (
	"errors"
	"math"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/graph"
)

// RepairHK error conditions. All of them mean the caller broke the repair
// contract; the arena is left untouched (beyond the cleared retention
// token where noted) and the caller must fall back to a full solve.
var (
	// ErrRepairNoBase: the scratch holds no retained solve to build on — the
	// first solve of a chain must use HopcroftKarpRetained.
	ErrRepairNoBase = errors.New("bipartite: RepairHK needs a previous retained solve as baseline")
	// ErrRepairStale: info.BaseToken does not name the scratch's latest
	// retained solve — another solve ran in between, or the info was
	// recorded against a different (foreign) scratch. Tokens are globally
	// unique, so a foreign scratch can never validate by coincidence.
	ErrRepairStale = errors.New("bipartite: RepairHK baseline is stale or foreign")
	// ErrRepairInfo: the kept-prefix descriptor exceeds the baseline or the
	// current instance (more kept edges/vertices than either has).
	ErrRepairInfo = errors.New("bipartite: RepairHK info inconsistent with baseline or instance")
)

// solveTokens issues globally unique retention tokens, so a RepairInfo
// recorded against one Scratch can never validate against another.
var solveTokens atomic.Uint64

// RepairInfo describes the byte-shared prefix between the instance of the
// scratch's latest retained solve and the instance being solved now. The
// caller asserts (the layered side proves it via DeltaInfo / Invariant 19)
// that b.Edges[:KeptEdges] is identical to the baseline's prefix, that
// vertices [0, KeptVerts) have the same identity and side in both
// instances, and that every kept-prefix edge has both endpoints under
// KeptVerts. RepairHK checks everything checkable (token, bounds) and
// returns an ErrRepair* sentinel instead of a wrong matching.
//
// The contract is deliberately round-agnostic: BaseToken names a solve, not
// a round, and solveTokens issues globally unique values, so a baseline
// recorded before a bipartition redraw stays usable afterwards — the chain
// extends across rounds for free once the layered side can prove a
// shared prefix across the redraw (the IncView change clocks, PR 7:
// stability of a kept segment's bucket implies its side entries are
// unchanged too, which is exactly the "same identity and side" clause
// above). A baseline that cannot be proven shared simply arrives with a
// smaller — possibly zero — kept prefix; staleness is still caught by the
// token check alone.
type RepairInfo struct {
	// BaseToken is the Scratch.SolveToken observed right after the baseline
	// solve.
	BaseToken uint64
	// KeptVerts: vertex ids [0, KeptVerts) are shared with the baseline.
	KeptVerts int
	// KeptEdges: b.Edges[:KeptEdges] is byte-identical to the baseline's
	// edge-list prefix.
	KeptEdges int
}

// SolveToken returns the token of the scratch's latest retained solve, or 0
// when none is retained (no retained solve yet, or a non-retained solve ran
// since and overwrote the arena). Callers record it to build the RepairInfo
// of the next solve in the chain.
func (s *Scratch) SolveToken() uint64 { return s.token }

// HopcroftKarpRetained is HopcroftKarpScratch with the solve retained on
// the arena as a repair baseline: the CSR stays valid for a subsequent
// RepairHK (see SolveToken), and the returned matching is owned by the
// arena — valid only until the next solve on s, which resets and refills
// it. The matching itself is identical to HopcroftKarpScratch's.
func HopcroftKarpRetained(b *Bip, s *Scratch) Result {
	if s == nil {
		s = NewScratch()
	}
	s.build(b, 0, 0)
	return s.retain(b, s.run(b, math.MaxInt32, nil))
}

// RepairHK solves b exactly like HopcroftKarpRetained, but builds the CSR
// on top of the retained baseline instead of from scratch: the rows of the
// KeptVerts shared vertices keep their kept-prefix entries (copied without
// re-deriving orientation), and only the suffix edges b.Edges[KeptEdges:]
// are scanned. The CSR is byte-identical to a cold solve's, so the returned
// matching AND phase count are bit-for-bit those of a cold solve
// (Invariant 21); the saving is the setup, not the phases. The returned
// matching is arena-owned, as with HopcroftKarpRetained. A non-nil error
// means the baseline cannot be built on (see the ErrRepair* conditions) and
// the caller should solve via HopcroftKarpRetained instead.
func RepairHK(b *Bip, s *Scratch, info RepairInfo) (Result, error) {
	if s == nil || s.token == 0 {
		return Result{}, ErrRepairNoBase
	}
	if info.BaseToken != s.token {
		return Result{}, ErrRepairStale
	}
	// Hazard site (chaos testing): report the retained CSR's token
	// mismatched before the arena is touched, exactly as a real overwrite
	// by a foreign solve would.
	if faultinject.Fire(faultinject.RepairToken) {
		return Result{}, ErrRepairStale
	}
	if info.KeptVerts < 0 || info.KeptVerts > b.N || info.KeptVerts > s.prevN ||
		info.KeptEdges < 0 || info.KeptEdges > len(b.Edges) || info.KeptEdges > s.prevM {
		return Result{}, ErrRepairInfo
	}
	s.build(b, info.KeptVerts, info.KeptEdges)
	return s.retain(b, s.run(b, math.MaxInt32, nil)), nil
}

// retain records the solve as the arena's repair baseline and hands the
// result back in the arena-owned matching.
func (s *Scratch) retain(b *Bip, phases int) Result {
	s.token = solveTokens.Add(1)
	s.prevN, s.prevM = b.N, len(b.Edges)
	if s.out == nil {
		s.out = new(graph.Matching)
	}
	s.out.FillFromSolver(b.N, b.Side, s.matchL, s.matchR, s.matchEdge, b.Edges)
	return Result{M: s.out, Phases: phases}
}
