// Package faultinject is the deterministic fault-injection harness behind
// the degradation-ladder chaos tests (internal/solvertest, PR 6): a set of
// injection points compiled into the amortised pipeline's hazard sites —
// the places where retained cross-round state (delta-chain arenas, repair
// CSRs, cache digests, the dirty-class bitmap) could go stale or corrupt —
// plus a seed-keyed injector that fires each site at a configured rate.
//
// Every injected fault is DETECTABLE by construction: a site either raises
// one of the ladder's seven recoverable sentinels (the four
// layered.ErrDelta* baseline rejections and the three bipartite.ErrRepair*
// ones), corrupts state that a checksum self-check covers (cache digests,
// the dirty bitmap), or panics where the worker pool recovers. The degradation
// ladder in internal/core must then quarantine the damaged state and
// re-run the affected pair/class/round through the cold path, so a chaos
// run returns the bit-identical matching of an uninjected run — which is
// exactly what the chaos suite asserts at every rate.
//
// The injector is deterministic per (seed, site, nth-call-at-site): a
// fixed seed and a sequential sweep replay the same fault schedule. Under
// a parallel class sweep the per-site call order — and so the fired set —
// is scheduling-dependent, but the ladder's fallbacks are bit-identical,
// so results stay deterministic even when the schedule is not.
//
// Production builds pay one atomic pointer load per hazard site: with no
// injector activated, Fire returns false immediately.
package faultinject

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Site names one compiled-in hazard point of the amortised pipeline.
type Site uint8

const (
	// DeltaStale fires inside layered.BuildDelta: the baseline build is
	// reported stale (ErrDeltaStale) as if a later build had reused its
	// arena. Ladder response: rebuild the pair via BuildIndexed.
	DeltaStale Site = iota
	// DirtyGate fires inside layered.IncIndex.BeginRound, after the
	// dirty-bitmap digest is sealed: one class's dirty bit is flipped,
	// modelling post-setup corruption of the round-scoped gate. Ladder
	// response: the digest self-check fails and the round runs the full
	// sweep instead of trusting any skip.
	DirtyGate
	// RepairToken fires inside bipartite.RepairHK: the retained CSR's
	// solve token is reported mismatched (ErrRepairStale) as if a foreign
	// solve had overwritten the arena. Ladder response: full retained
	// solve.
	RepairToken
	// RepairInfo fires on core's repair path: the DeltaInfo changed-suffix
	// descriptor is corrupted before it reaches RepairHK, which detects
	// the out-of-bounds kept prefix (ErrRepairInfo). Ladder response: full
	// retained solve.
	RepairInfo
	// CacheDigest fires inside core's cross-class pair cache: the stored
	// entry checksum has a bit flipped, modelling corruption of a cached
	// candidate set. Ladder response: the hit's checksum self-check fails,
	// the entry is evicted, and the pair is re-solved.
	CacheDigest
	// WorkerPanic fires at the top of an amortised per-class sweep: the
	// worker panics mid-class. Ladder response: the pool recovers, the
	// class's amortised state is quarantined, and the class re-runs cold.
	WorkerPanic
	// ChainLink fires inside layered.BuildDelta at the cross-round chain
	// link — a delta build whose baseline was assembled in an earlier round
	// (PR 7): the link is reported severed (ErrDeltaStale) as if the
	// baseline's round epoch could not be validated. Ladder response: the
	// caller falls back to a from-scratch BuildIndexed, restarting the chain
	// round-locally — bit-identical by construction.
	ChainLink

	numSites
)

var siteNames = [numSites]string{
	DeltaStale:  "delta-stale",
	DirtyGate:   "dirty-gate",
	RepairToken: "repair-token",
	RepairInfo:  "repair-info",
	CacheDigest: "cache-digest",
	WorkerPanic: "worker-panic",
	ChainLink:   "chain-link",
}

func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return fmt.Sprintf("site-%d", uint8(s))
}

// Sites returns every hazard site, for harnesses that iterate them.
func Sites() []Site {
	out := make([]Site, numSites)
	for i := range out {
		out[i] = Site(i)
	}
	return out
}

// Injector fires hazard sites deterministically: call n at site s fires iff
// hash(seed, s, n) falls under the rate threshold. Counters are atomic so
// the parallel class sweep can consult one injector without locking.
type Injector struct {
	seed      uint64
	threshold uint64
	calls     [numSites]atomic.Uint64
	fired     [numSites]atomic.Uint64
}

// New returns an injector that fires each site on the given fraction of its
// calls (clamped to [0, 1]), keyed by seed: same seed, same per-site fault
// schedule.
func New(seed int64, rate float64) *Injector {
	switch {
	case rate <= 0 || math.IsNaN(rate):
		rate = 0
	case rate >= 1:
		rate = 1
	}
	in := &Injector{seed: splitmix(uint64(seed))}
	if rate == 1 {
		in.threshold = math.MaxUint64
	} else {
		in.threshold = uint64(rate * float64(1<<63) * 2)
	}
	return in
}

// splitmix is splitmix64, the avalanche mix the fire decisions hash with.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fire decides call n of site s.
func (in *Injector) fire(s Site) bool {
	n := in.calls[s].Add(1)
	if splitmix(in.seed^(uint64(s)<<56)^n) >= in.threshold {
		return false
	}
	in.fired[s].Add(1)
	return true
}

// Fired reports how many times site s has fired on this injector.
func (in *Injector) Fired(s Site) uint64 { return in.fired[s].Load() }

// Calls reports how many times site s has been consulted.
func (in *Injector) Calls(s Site) uint64 { return in.calls[s].Load() }

// FiredTotal reports the total faults injected across all sites.
func (in *Injector) FiredTotal() uint64 {
	var t uint64
	for s := Site(0); s < numSites; s++ {
		t += in.fired[s].Load()
	}
	return t
}

// active is the process-wide injector consulted by the hazard sites; nil
// (the default) disables injection entirely.
var active atomic.Pointer[Injector]

// Activate installs in as the process-wide injector. Chaos harnesses
// activate around the run under test and must Deactivate afterwards;
// concurrent harnesses own distinct processes, not distinct injectors.
func Activate(in *Injector) { active.Store(in) }

// Deactivate removes the process-wide injector.
func Deactivate() { active.Store(nil) }

// Enabled reports whether an injector is active.
func Enabled() bool { return active.Load() != nil }

// Fire consults the active injector for site s. With no injector active it
// is a single atomic load returning false — the production fast path.
func Fire(s Site) bool {
	in := active.Load()
	if in == nil {
		return false
	}
	return in.fire(s)
}
