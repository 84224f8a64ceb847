package main

// The batch replay: core.Round calls layered and bipartite internally, so
// the traced run re-executes every round on a twin — the same graph and
// edits, the same matching, a twin Rng — through those packages' exported
// functions, and times each call. The twin mirrors the default amortised
// configuration: Workers 1, the default solver, delta chaining and the
// Hopcroft–Karp repair across rounds, and the cross-class solve cache's
// decisions. A pair the real runner serves from its cache is neither built
// nor solved there, so the twin must skip it too or its delta chain — and
// with it RepairSolves — parts from the real one; it therefore computes
// the same keys behind the same hit-rate gate, but leaves that work
// untimed, so the cache's cost is what core.unattributed_share reports.
// Every replayed round must reproduce the real one bit for bit, counters
// included.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/layered"
)

// stage names one replayed step of a round.
type stage int

const (
	stParametrize  stage = iota // layered.Parametrize
	stBeginRound                // (*IncIndex).BeginRound and the dirty-gate check
	stEdits                     // graph edits, the index edit protocol, ladder rebuilds
	stEnum                      // Masks, Oracle and EnumerateSurvivingPairs
	stBuildDelta                // BuildDelta plus the L' view of its result
	stBuildScratch              // BuildIndexed plus the L' view of its result
	stSolveRepair               // bipartite.RepairHK
	stSolveCold                 // bipartite.HopcroftKarpRetained
	stWalks                     // AugmentingWalks and BestAugmentation
	stMerge                     // class conflict resolution and graph.ApplyDisjoint
	numStages
)

// stageTimes is the replayed time per stage.
type stageTimes [numStages]time.Duration

// sub returns s − o stage by stage.
func (s stageTimes) sub(o stageTimes) stageTimes {
	for i := range s {
		s[i] -= o[i]
	}
	return s
}

// replayCounts are the twin's counters, named after the core.Stats fields
// they must reproduce.
type replayCounts struct {
	LayeredBuilt, ProbeSkips, EnumPruned   int
	SolverCalls, RepairSolves, DeltaBuilds int
	CacheHits, ClassesSkippedDirty         int
	MutationIndexResets                    int
	Fallbacks                              int
}

// candidate is one projected augmentation with its gain.
type candidate struct {
	aug  graph.Augmentation
	gain graph.Weight
}

// twinClass is the per-class state the real runner keeps on its amortised
// class context: the index view, the enumeration scratch, the class-private
// build arena with its last build, the retained solver arena with the
// identity of the instance it last solved, and the cache gate's tally.
type twinClass struct {
	view    *layered.IncView
	enum    *layered.PairScratch
	scratch *layered.Scratch
	prevLay *layered.Layered
	hk      *bipartite.Scratch
	baseTok uint64
	baseSeq uint64

	cacheLooks, cacheHits int
	cacheOff              bool
}

// twin replays a core.Runner's rounds through exported functions.
type twin struct {
	g   *graph.Graph
	m   *graph.Matching
	rng *rand.Rand
	prm layered.Params
	// classBase, maxPairs and cacheGate are the runner's ClassBase,
	// MaxPairsPerClass and CacheGate.
	classBase float64
	maxPairs  int
	cacheGate int
	weights   []float64
	inc       *layered.IncIndex
	classes   []twinClass
	// cache maps this round's solved pair keys to their candidates.
	cache map[string][]candidate
	key   []byte

	used      []uint32
	usedStamp uint32

	st stageTimes
	c  replayCounts
}

// newTwin prepares the twin of core.NewRunner(g, opts) for the default
// amortised configuration; rng must be at the same stream position as
// opts.Rng. opts must set ClassBase, MaxPairsPerClass and a positive
// CacheGate, as bandOptions and uniformOptions do: the twin follows them
// and knows none of core's defaults. The twin owns g and m and applies the
// same edits to them.
func newTwin(g *graph.Graph, m *graph.Matching, rng *rand.Rand, opts core.Options) *twin {
	t := &twin{
		g: g, m: m, rng: rng, prm: opts.Layered.WithDefaults(),
		classBase: opts.ClassBase, maxPairs: opts.MaxPairsPerClass, cacheGate: opts.CacheGate,
	}
	t.reset()
	return t
}

// reset rebuilds the index and every class context on the current graph,
// as the runner does at construction and after a ladder move.
func (t *twin) reset() {
	t.weights = core.ClassWeights(t.g, t.classBase, t.prm)
	t.inc = layered.NewIncIndex(t.g.N(), t.g.Edges(), t.weights, t.prm)
	t.cache = map[string][]candidate{}
	t.classes = make([]twinClass, len(t.weights))
	for i := range t.classes {
		t.classes[i] = twinClass{view: t.inc.View(i), enum: layered.NewPairScratch()}
	}
}

// errReplay marks a replay that cannot follow the real runner (a path the
// default configuration never takes on a healthy run).
var errReplay = errors.New("replay")

// applyEdits mirrors (*core.Runner).ApplyMutations for a healthy index.
func (t *twin) applyEdits(batch *core.MutationBatch) error {
	if batch.Len() == 0 {
		return nil
	}
	start := time.Now()
	if err := t.inc.BeginEdits(); err != nil {
		return fmt.Errorf("%w: BeginEdits: %v", errReplay, err)
	}
	g, m := t.g, t.m
	for _, op := range batch.Ops() {
		switch op.Op {
		case core.MutInsert:
			if err := g.AddEdge(graph.Edge{U: op.U, V: op.V, W: op.W}); err != nil {
				return err
			}
			t.inc.NoteInsert(g.Edges())
		case core.MutDelete:
			i, ok := g.FindEdge(op.U, op.V)
			if !ok {
				return fmt.Errorf("%w: delete of absent edge (%d,%d)", errReplay, op.U, op.V)
			}
			if m.Has(op.U, op.V) {
				if err := m.Remove(op.U, op.V); err != nil {
					return err
				}
			}
			moved, err := g.RemoveEdgeAt(i)
			if err != nil {
				return err
			}
			t.inc.NoteRemove(i, moved, g.Edges())
		case core.MutReweight:
			i, ok := g.FindEdge(op.U, op.V)
			if !ok {
				return fmt.Errorf("%w: reweight of absent edge (%d,%d)", errReplay, op.U, op.V)
			}
			if err := g.SetEdgeWeight(i, op.W); err != nil {
				return err
			}
			if m.Has(op.U, op.V) {
				if err := m.Reweight(op.U, op.V, op.W); err != nil {
					return err
				}
			}
			t.inc.NoteReweight(i, g.Edges())
		}
	}
	t.inc.EndEdits()
	if !slices.Equal(core.ClassWeights(g, t.classBase, t.prm), t.weights) {
		t.c.MutationIndexResets++
		t.reset()
	}
	t.st[stEdits] += time.Since(start)
	return nil
}

// round mirrors (*core.Runner).Round and returns the realised gain.
func (t *twin) round() (graph.Weight, error) {
	t0 := time.Now()
	par := layered.Parametrize(t.g.N(), t.g.Edges(), t.m, t.rng)
	t1 := time.Now()
	if err := t.inc.BeginRound(par); err != nil {
		return 0, fmt.Errorf("%w: BeginRound: %v", errReplay, err)
	}
	gateOK := t.inc.DirtyGateOK()
	clear(t.cache)
	t.st[stParametrize] += t1.Sub(t0)
	t.st[stBeginRound] += time.Since(t1)
	if !gateOK {
		return 0, fmt.Errorf("%w: dirty gate failed its digest", errReplay)
	}
	var all []graph.Augmentation
	for i := range t.weights {
		if !t.inc.RoundDirty(i) {
			t.c.ClassesSkippedDirty++
			continue
		}
		chosen, err := t.class(i, par)
		if err != nil {
			return 0, err
		}
		all = append(all, chosen...)
	}
	tm := time.Now()
	gain, _ := graph.ApplyDisjoint(t.m, all)
	t.st[stMerge] += time.Since(tm)
	return gain, nil
}

// class mirrors core's per-class sweep (Algorithm 4) on the amortised path.
func (t *twin) class(i int, par *layered.Parametrized) ([]graph.Augmentation, error) {
	tc := &t.classes[i]
	te := time.Now()
	if tc.scratch == nil {
		tc.scratch = layered.NewScratch()
	}
	tc.scratch.EnableDeltaBaseline()
	aMask, bMask, ok := tc.view.Masks()
	if !ok {
		return nil, fmt.Errorf("%w: class %d has no unit masks", errReplay, i)
	}
	orc, ok := tc.view.Oracle()
	if !ok {
		return nil, fmt.Errorf("%w: class %d has no survival oracle", errReplay, i)
	}
	pairs, pruned := layered.EnumerateSurvivingPairs(t.prm, aMask, bMask, t.maxPairs, orc, tc.enum)
	if len(pairs) > t.maxPairs {
		pairs = pairs[:t.maxPairs]
	}
	t.st[stEnum] += time.Since(te)
	t.c.LayeredBuilt += pruned
	t.c.ProbeSkips += pruned
	t.c.EnumPruned += pruned
	if tc.hk == nil {
		tc.hk = bipartite.NewScratch()
	}

	var cands []candidate
	prevLay := tc.prevLay
	for _, tau := range pairs {
		t.c.LayeredBuilt++
		keyed := false
		if !tc.cacheOff {
			t.key = tc.view.PairKey(tau, t.key[:0])
			keyed = true
			tc.cacheLooks++
			if hit, ok := t.cache[string(t.key)]; ok {
				tc.cacheHits++
				t.c.CacheHits++
				cands = append(cands, hit...)
				continue
			}
			if tc.cacheHits == 0 && tc.cacheLooks >= t.cacheGate {
				tc.cacheOff = true
			}
		}
		tb := time.Now()
		var lay *layered.Layered
		if prevLay != nil {
			dl, _, err := layered.BuildDelta(tc.view, prevLay, tau, tc.scratch, 1)
			if err != nil {
				t.c.Fallbacks++
			} else {
				lay = dl
				t.c.DeltaBuilds++
			}
		}
		delta := lay != nil
		if lay == nil {
			lay = layered.BuildIndexed(tc.view, tau, tc.scratch)
		}
		prevLay = lay
		var bip *bipartite.Bip
		if len(lay.Y) > 0 {
			if lp := lay.LPrimeEdges(); len(lp) > 0 {
				bip = &bipartite.Bip{N: lay.NumV, Side: lay.Sides(), Edges: lp}
			}
		}
		ts := time.Now()
		if delta {
			t.st[stBuildDelta] += ts.Sub(tb)
		} else {
			t.st[stBuildScratch] += ts.Sub(tb)
		}
		if bip == nil {
			continue
		}

		t.c.SolverCalls++
		var res bipartite.Result
		repaired := false
		if d := lay.Delta; d.Valid && tc.baseTok != 0 && d.BaseSeq == tc.baseSeq && d.KeptLPrime >= 1 {
			r, err := bipartite.RepairHK(bip, tc.hk, bipartite.RepairInfo{
				BaseToken: tc.baseTok,
				KeptVerts: d.KeptIDs,
				KeptEdges: d.KeptLPrime,
			})
			if err != nil {
				t.c.Fallbacks++
			} else {
				res, repaired = r, true
				t.c.RepairSolves++
			}
		}
		if !repaired {
			res = bipartite.HopcroftKarpRetained(bip, tc.hk)
		}
		tc.baseTok, tc.baseSeq = tc.hk.SolveToken(), lay.BuildSeq()
		tw := time.Now()
		if repaired {
			t.st[stSolveRepair] += tw.Sub(ts)
		} else {
			t.st[stSolveCold] += tw.Sub(ts)
		}

		start := len(cands)
		lay.AugmentingWalks(res.M, func(walk layered.Walk) {
			if aug, gain, ok := tc.scratch.BestAugmentation(t.m, walk); ok {
				cands = append(cands, candidate{aug: aug, gain: gain})
			}
		})
		t.st[stWalks] += time.Since(tw)
		if keyed {
			t.cache[string(t.key)] = slices.Clone(cands[start:])
		}
	}
	tc.prevLay = prevLay

	tm := time.Now()
	chosen := t.resolve(par.N, cands)
	t.st[stMerge] += time.Since(tm)
	return chosen, nil
}

// resolve is the class-level conflict resolution: candidates by
// descending gain (stable, so ties keep discovery order), each kept when
// it touches no vertex a kept one touches.
func (t *twin) resolve(n int, cands []candidate) []graph.Augmentation {
	slices.SortStableFunc(cands, func(a, b candidate) int {
		switch {
		case a.gain > b.gain:
			return -1
		case a.gain < b.gain:
			return 1
		}
		return 0
	})
	if len(t.used) < n {
		t.used = make([]uint32, n)
		t.usedStamp = 0
	}
	t.usedStamp++
	if t.usedStamp == 0 {
		clear(t.used)
		t.usedStamp = 1
	}
	var chosen []graph.Augmentation
	for _, c := range cands {
		if t.touchesUsed(c.aug.Add) || t.touchesUsed(c.aug.Remove) {
			continue
		}
		for _, es := range [][]graph.Edge{c.aug.Add, c.aug.Remove} {
			for _, e := range es {
				t.used[e.U], t.used[e.V] = t.usedStamp, t.usedStamp
			}
		}
		chosen = append(chosen, c.aug)
	}
	return chosen
}

func (t *twin) touchesUsed(es []graph.Edge) bool {
	for _, e := range es {
		if t.used[e.U] == t.usedStamp || t.used[e.V] == t.usedStamp {
			return true
		}
	}
	return false
}

// sameMatching reports whether a and b pair every vertex identically and
// carry the same weight.
func sameMatching(a, b *graph.Matching) bool {
	return a.Weight() == b.Weight() && slices.Equal(matesOf(a), matesOf(b))
}

// checkCounts compares the twin's counter deltas with the real runner's
// core.Stats deltas over the same step.
func checkCounts(real core.Stats, rep replayCounts) error {
	type pair struct {
		name       string
		real, twin int
	}
	for _, p := range []pair{
		{"LayeredBuilt", real.LayeredBuilt, rep.LayeredBuilt},
		{"EnumPruned", real.EnumPruned, rep.EnumPruned},
		{"ProbeSkips", real.ProbeSkips, rep.ProbeSkips},
		{"RepairSolves", real.RepairSolves, rep.RepairSolves},
		{"MutationIndexResets", real.MutationIndexResets, rep.MutationIndexResets},
		{"ClassesSkippedDirty", real.ClassesSkippedDirty, rep.ClassesSkippedDirty},
		{"SolverCalls", real.SolverCalls, rep.SolverCalls},
		{"CacheHits", real.CacheHits, rep.CacheHits},
		{"DeltaBuilds", real.DeltaBuilds, rep.DeltaBuilds},
		{"Fallbacks", fallbacks(real), rep.Fallbacks},
	} {
		if p.real != p.twin {
			return fmt.Errorf("%w: %s real %d, replayed %d", errReplay, p.name, p.real, p.twin)
		}
	}
	return nil
}

// fallbacks sums the degradation-ladder counters of s (every field
// core.Stats.Fields names fallback-*).
func fallbacks(s core.Stats) int {
	total := 0
	for _, f := range s.Fields() {
		if strings.HasPrefix(f.Name, "fallback-") {
			total += int(f.Value)
		}
	}
	return total
}

// addFields returns a + sign·b for structs whose fields are all integers
// (core.Stats, replayCounts): a delta with sign −1, a sum with +1.
func addFields[T any](a, b T, sign int64) T {
	av := reflect.ValueOf(&a).Elem()
	bv := reflect.ValueOf(b)
	for i := 0; i < av.NumField(); i++ {
		f := av.Field(i)
		f.SetInt(f.Int() + sign*bv.Field(i).Int())
	}
	return a
}
