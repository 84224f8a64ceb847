// Package localratio implements the local-ratio technique for streaming
// weighted matching due to Paz and Schwartzman [PS17], in the form used by
// Section 3 of Gamlath–Kale–Mitrović–Svensson: each vertex v carries a
// potential α_v; an arriving edge e = (u, v) with positive residual weight
// w'(e) = w(e) − α_u − α_v is pushed onto a stack and both potentials are
// increased by w'(e); unwinding the stack greedily yields a 1/2-approximate
// maximum weight matching of the processed subgraph.
//
// The package also provides the frozen-potential variant that is the key to
// Algorithm 2 (Rand-Arr-Matching): after Freeze, potentials stop moving, and
// the residual weight w” of later edges is evaluated against the frozen
// potentials (the set T of Algorithm 2).
package localratio

import (
	"repro/internal/graph"
	"repro/internal/stream"
)

// Processor runs the local-ratio algorithm over an edge sequence.
// The zero value is unusable; construct with New (or revive a used one
// with Reset — the stack arena survives, so repeated runs stop paying a
// per-edge allocation tax).
type Processor struct {
	alpha  []graph.Weight
	stack  []graph.Edge
	frozen bool
	peak   int
	acct   *stream.Accountant
}

// New returns a processor for graphs on n vertices.
func New(n int) *Processor {
	return &Processor{alpha: make([]graph.Weight, n)}
}

// Reset returns p to the state New(n) constructs while keeping its arenas
// (the potential array and the stack's capacity), the PR 1 Scratch idiom:
// a processor reused across passes or runs allocates only when the stack
// outgrows every previous run.
func (p *Processor) Reset(n int) {
	if cap(p.alpha) < n {
		p.alpha = make([]graph.Weight, n)
	} else {
		p.alpha = p.alpha[:n]
		clear(p.alpha)
	}
	p.stack = p.stack[:0]
	p.frozen = false
	p.peak = 0
	p.acct = nil
}

// SetAccountant registers a as the resource-accounting authority: every
// stacked edge is charged to it as one held word (Lemma 3.15's |S|).
func (p *Processor) SetAccountant(a *stream.Accountant) { p.acct = a }

// Residual returns w(e) − α_u − α_v under the current potentials. After
// Freeze this is the w” of Algorithm 2 line 14 and the surplus weight
// w' of Algorithm 1 line 8.
func (p *Processor) Residual(e graph.Edge) graph.Weight {
	return e.W - p.alpha[e.U] - p.alpha[e.V]
}

// Potential returns α_v.
func (p *Processor) Potential(v int) graph.Weight { return p.alpha[v] }

// Process handles one arriving edge and reports whether it was pushed.
// Before Freeze it pushes an edge with positive residual onto the stack,
// raises both endpoint potentials by the residual and charges the
// accountant one word. After Freeze it is a no-op that returns false for
// every edge, whatever its residual: callers that keep positive-residual
// edges themselves (Algorithm 2's set T) ask Residual.
func (p *Processor) Process(e graph.Edge) bool {
	r := p.Residual(e)
	if r <= 0 {
		return false
	}
	if p.frozen {
		return false
	}
	p.stack = append(p.stack, e)
	if len(p.stack) > p.peak {
		p.peak = len(p.stack)
	}
	if p.acct != nil {
		p.acct.Hold(1)
	}
	p.alpha[e.U] += r
	p.alpha[e.V] += r
	return true
}

// Freeze stops potential updates. Residual keeps answering with the frozen
// potentials (Algorithm 2 freezes after the first p fraction of the stream).
func (p *Processor) Freeze() { p.frozen = true }

// Frozen reports whether Freeze has been called.
func (p *Processor) Frozen() bool { return p.frozen }

// PeakStackLen returns the maximum stack size observed (Lemma 3.15's |S|).
func (p *Processor) PeakStackLen() int { return p.peak }

// Stack returns the stacked edges in push order. Callers must not mutate it.
func (p *Processor) Stack() []graph.Edge { return p.stack }

// Unwind pops the stack (LIFO) and greedily builds a matching: an edge is
// added when both endpoints are still free. By the local-ratio theorem the
// result is a 1/2-approximate maximum weight matching of the edges processed
// before Freeze.
func (p *Processor) Unwind() *graph.Matching {
	m := graph.NewMatching(len(p.alpha))
	p.UnwindInto(m)
	return m
}

// UnwindInto pops the stack on top of an existing matching, adding each
// popped edge whose endpoints are free in m. This is Algorithm 2 lines
// 15–17, where the stack augments the matching M1 built from the set T.
// It returns the weight added.
func (p *Processor) UnwindInto(m *graph.Matching) graph.Weight {
	var added graph.Weight
	for i := len(p.stack) - 1; i >= 0; i-- {
		e := p.stack[i]
		if !m.IsMatched(e.U) && !m.IsMatched(e.V) {
			// Endpoints verified free; Add cannot fail.
			if err := m.Add(e); err != nil {
				panic(err)
			}
			added += e.W
		}
	}
	return added
}

// Run processes all edges in order and unwinds, returning the
// 1/2-approximate matching. It is the offline convenience entry point.
func Run(n int, edges []graph.Edge) *graph.Matching {
	p := New(n)
	for _, e := range edges {
		p.Process(e)
	}
	return p.Unwind()
}

// CoverBound returns Σ_v α_v. After every edge of a graph has been
// processed, the potentials dominate each edge weight (w(e) ≤ α_u + α_v),
// i.e. they form a fractional vertex cover of the weights, so by LP duality
// any matching of the processed graph weighs at most CoverBound. This gives
// a certified optimum upper bound — and hence a certified approximation
// ratio — on instances where no exact solver is feasible.
func (p *Processor) CoverBound() graph.Weight {
	var total graph.Weight
	for _, a := range p.alpha {
		total += a
	}
	return total
}

// CertifiedRatio runs the local-ratio algorithm over the edges and returns
// the matching together with a lower bound on its approximation ratio,
// certified by the vertex-cover dual (ratio = w(M)/Σα ≤ w(M)/OPT).
func CertifiedRatio(n int, edges []graph.Edge) (*graph.Matching, float64) {
	p := New(n)
	for _, e := range edges {
		p.Process(e)
	}
	m := p.Unwind()
	bound := p.CoverBound()
	if bound == 0 {
		return m, 0
	}
	return m, float64(m.Weight()) / float64(bound)
}
