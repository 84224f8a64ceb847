package randarrival

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/localratio"
	"repro/internal/stream"
)

// Arena owns the reusable per-run state of RandArrMatching: the local-ratio
// processor, the Wgt-Aug-Paths instance (with its 65-slot class table and
// per-class finder pools), and the T-set buffers. A zero Arena is ready to
// use; passing the same Arena to successive runs retains every internal
// allocation, so steady-state runs allocate only for the output matchings.
type Arena struct {
	proc *localratio.Processor
	wap  WgtAugPaths
	// tKeys holds T as greedy-order sort records of (w”, U, V), the form
	// finalize sorts; tScratch is the radix sort's swap buffer.
	tKeys, tScratch []graph.OrderKey
}

// WeightedOptions configures RandArrMatching (Algorithm 2).
type WeightedOptions struct {
	// PrefixFraction is the fraction p of the stream processed by the
	// local-ratio algorithm before potentials freeze. The paper sets
	// p = 100/log n; the default 0.05 plays the same role at experiment
	// scale.
	PrefixFraction float64
	// Beta is the Unw-3-Aug-Paths parameter used inside Wgt-Aug-Paths.
	Beta float64
	// Rng drives the Marked sampling. Required.
	Rng *rand.Rand
	// Account, when non-nil, is the resource-accounting authority charged
	// for every stream-dependent word the run holds (stack, T-set, marked
	// classes, support sets); its Peak is reported as PeakWords. The run
	// charges into whatever state the accountant arrives with, so callers
	// comparing runs should Reset it between them.
	Account *stream.Accountant
	// Arena, when non-nil, supplies reusable per-run state (the Scratch
	// idiom lifted to the whole per-arrival path); a nil Arena runs on a
	// fresh one.
	Arena *Arena
	// Naive runs the retained map-backed Wgt-Aug-Paths reference form
	// instead of the flat arena form. Invariant 27 pins the two to
	// bit-identical results; the option exists so tests and same-run
	// benchmarks can hold the reference next to the hot path.
	Naive bool
}

func (o *WeightedOptions) defaults() {
	if o.PrefixFraction <= 0 || o.PrefixFraction >= 1 {
		o.PrefixFraction = 0.05
	}
	if o.Beta <= 0 || o.Beta > 1 {
		o.Beta = 0.3
	}
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewSource(1))
	}
}

// WeightedResult carries the Algorithm 2 output and the space diagnostics
// bounded by Lemma 3.15.
type WeightedResult struct {
	M *graph.Matching
	// Branch is "stack" when M1 (set T + stack unwinding) won and
	// "augment" when M2 (Wgt-Aug-Paths) won.
	Branch string
	// M0Weight is the weight of the local-ratio matching after the prefix.
	M0Weight graph.Weight
	// StackSize is |S|, the peak local-ratio stack length.
	StackSize int
	// TSize is |T|, the number of positive-residual edges stored after the
	// freeze.
	TSize int
	// Passes is the number of stream passes the run consumed, reported as
	// the difference of the stream's own Passes() counter around the run
	// (the accounting authority; Algorithm 2 is single-pass, so this is 1).
	Passes int
	// PeakWords is Account's peak held-word count over the run, 0 when no
	// accountant was supplied.
	PeakWords int
}

// feeder is the part of Wgt-Aug-Paths Algorithm 2 consumes; both the flat
// arena form and the retained naive form satisfy it.
type feeder interface {
	Feed(graph.Edge)
	Finalize() *graph.Matching
}

// RandArrMatching is Algorithm 2 (Theorem 1.1): a single-pass streaming
// (1/2+c)-approximation for maximum weighted matching when the edges arrive
// in uniformly random order.
//
// Phase 1 runs the local-ratio algorithm on the first p fraction of the
// stream and freezes the vertex potentials; M0 is the matching unwound from
// the stack at that point. Phase 2 simultaneously (a) stores every later
// edge whose weight beats its frozen potentials (the set T) and (b) feeds
// every later edge to Wgt-Aug-Paths initialised with M0. Finally M1 is the
// best matching assembled from T plus the stack, M2 is the Wgt-Aug-Paths
// output, and the heavier one is returned.
//
// The stream is Reset at entry: the run owns its pass structure, so a
// stream another consumer already advanced cannot silently shrink phase 1
// (which would skew the prefix split and, with it, the whole analysis).
func RandArrMatching(n int, s stream.EdgeStream, opts WeightedOptions) WeightedResult {
	opts.defaults()
	s.Reset()
	passes0 := s.Passes()
	acct := opts.Account
	total := s.Len()
	prefix := int(opts.PrefixFraction * float64(total))

	a := opts.Arena
	if a == nil {
		a = &Arena{}
	}
	if a.proc == nil {
		a.proc = localratio.New(n)
	} else {
		a.proc.Reset(n)
	}
	proc := a.proc
	proc.SetAccountant(acct)
	for i := 0; i < prefix; i++ {
		e, ok := s.Next()
		if !ok {
			break
		}
		proc.Process(e)
	}
	m0 := proc.Unwind()
	proc.Freeze()

	var wap feeder = &a.wap
	if opts.Naive {
		wap = NewNaiveWgtAugPaths(m0, opts.Beta, opts.Rng, acct)
	} else {
		a.wap.Init(m0, opts.Beta, opts.Rng, acct)
	}

	tKeys := a.tKeys[:0]
	for {
		e, ok := s.Next()
		if !ok {
			break
		}
		if r := proc.Residual(e); r > 0 {
			tKeys = append(tKeys, graph.MakeOrderKey(r, e.U, e.V))
			if acct != nil {
				acct.Hold(1)
			}
		}
		wap.Feed(e)
	}
	a.tKeys = tKeys

	m1 := buildStackMatching(n, proc, a)
	m2 := wap.Finalize()

	res := WeightedResult{
		M0Weight:  m0.Weight(),
		StackSize: proc.PeakStackLen(),
		TSize:     len(tKeys),
		Passes:    s.Passes() - passes0,
	}
	if acct != nil {
		res.PeakWords = acct.Peak()
	}
	if m2.Weight() > m1.Weight() {
		res.M, res.Branch = m2, "augment"
	} else {
		res.M, res.Branch = m1, "stack"
	}
	return res
}

// buildStackMatching implements lines 14–17 of Algorithm 2: build a matching
// from T maximising the residual weights w”(e) = w(e) − α*_u − α*_v, then
// unwind the local-ratio stack on top of it.
//
// The paper takes a maximum matching on T under w”; exact maximum weight
// matching on general graphs is outside this repository's substrate budget,
// so we use the greedy 1/2-approximation on w” (sorted by residual), which
// is all the Case-2 analysis (Lemma 3.13) consumes up to a constant factor
// in c. See DESIGN.md, substitution table.
//
// T arrives as a.tKeys, one graph.OrderKey of (w”, U, V) per edge, so the
// greedy order is a radix sort of the records; each taken edge gets its
// weight back as w” + α_U + α_V, which int64 wrap-around makes exact even
// where the subtraction overflowed.
func buildStackMatching(n int, proc *localratio.Processor, a *Arena) *graph.Matching {
	var sorted []graph.OrderKey
	sorted, a.tScratch = graph.SortOrderKeys(a.tKeys, a.tScratch)
	m1 := graph.NewMatching(n)
	for _, k := range sorted {
		u, v := k.U(), k.V()
		if !m1.IsMatched(u) && !m1.IsMatched(v) {
			mustAdd(m1, graph.Edge{U: u, V: v, W: k.Key() + proc.Potential(u) + proc.Potential(v)})
		}
	}
	proc.UnwindInto(m1)
	return m1
}
