package localratio

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/matchutil"
	"repro/internal/stream"
)

func TestHalfApproxAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		inst := graph.RandomGraph(14, 45, 100, rng)
		m := Run(inst.G.N(), inst.G.Edges())
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		opt, err := matchutil.MaxWeightExact(inst.G)
		if err != nil {
			t.Fatal(err)
		}
		if 2*m.Weight() < opt.Weight() {
			t.Fatalf("trial %d: local ratio %d below half of %d", trial, m.Weight(), opt.Weight())
		}
	}
}

func TestHalfApproxAnyOrderQuick(t *testing.T) {
	// The 1/2 guarantee must hold for every arrival order (the local-ratio
	// theorem is order oblivious).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := graph.RandomGraph(10, 25, 50, rng)
		opt, err := matchutil.MaxWeightExact(inst.G)
		if err != nil {
			return false
		}
		s := stream.RandomOrder(inst.G, rng)
		m := Run(inst.G.N(), s.Edges())
		return 2*m.Weight() >= opt.Weight() && m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPotentialsCoverEdges(t *testing.T) {
	// After processing, every edge satisfies w(e) <= alpha_u + alpha_v
	// (the potentials form a fractional vertex cover of the weights).
	rng := rand.New(rand.NewSource(2))
	inst := graph.RandomGraph(20, 60, 80, rng)
	p := New(inst.G.N())
	for _, e := range inst.G.Edges() {
		p.Process(e)
	}
	for _, e := range inst.G.Edges() {
		if p.Residual(e) > 0 {
			t.Fatalf("edge %v still has positive residual %d", e, p.Residual(e))
		}
	}
}

func TestFreezeStopsUpdates(t *testing.T) {
	p := New(4)
	p.Process(graph.Edge{U: 0, V: 1, W: 10})
	p.Freeze()
	if !p.Frozen() {
		t.Fatal("Frozen() false after Freeze")
	}
	a0 := p.Potential(0)
	if pushed := p.Process(graph.Edge{U: 0, V: 2, W: 100}); pushed {
		t.Error("frozen processor pushed an edge")
	}
	if p.Potential(0) != a0 || p.Potential(2) != 0 {
		t.Error("frozen processor moved potentials")
	}
	// Residual still answers under frozen potentials.
	if r := p.Residual(graph.Edge{U: 0, V: 2, W: 100}); r != 100-a0 {
		t.Errorf("Residual = %d, want %d", r, 100-a0)
	}
}

// TestProcessAfterFreezeIsNoOp pins Process after Freeze: it returns
// false for every edge, positive residual or not, and leaves the
// potentials, the stack and the accountant as they were.
func TestProcessAfterFreezeIsNoOp(t *testing.T) {
	var acct stream.Accountant
	p := New(6)
	p.SetAccountant(&acct)
	for _, e := range []graph.Edge{{U: 0, V: 1, W: 10}, {U: 1, V: 2, W: 25}, {U: 3, V: 4, W: 7}} {
		p.Process(e)
	}
	p.Freeze()
	alpha := make([]graph.Weight, 6)
	for v := range alpha {
		alpha[v] = p.Potential(v)
	}
	stack := append([]graph.Edge(nil), p.Stack()...)
	peak, current, acctPeak := p.PeakStackLen(), acct.Current(), acct.Peak()

	for _, e := range []graph.Edge{
		{U: 0, V: 5, W: 100}, // positive residual
		{U: 4, V: 5, W: 1000},
		{U: 0, V: 1, W: 1}, // non-positive residual
		{U: 2, V: 3, W: p.Potential(2) + p.Potential(3)},
	} {
		if p.Process(e) {
			t.Fatalf("Process(%v) after Freeze returned true (residual %d)", e, p.Residual(e))
		}
	}
	for v, a := range alpha {
		if p.Potential(v) != a {
			t.Fatalf("potential of %d moved after Freeze: %d, was %d", v, p.Potential(v), a)
		}
	}
	if !slices.Equal(p.Stack(), stack) {
		t.Fatalf("stack changed after Freeze: %v, was %v", p.Stack(), stack)
	}
	if p.PeakStackLen() != peak || acct.Current() != current || acct.Peak() != acctPeak {
		t.Fatalf("stack peak or accountant moved after Freeze: %d/%d/%d, was %d/%d/%d",
			p.PeakStackLen(), acct.Current(), acct.Peak(), peak, current, acctPeak)
	}
}

func TestUnwindIntoRespectsExisting(t *testing.T) {
	p := New(6)
	p.Process(graph.Edge{U: 0, V: 1, W: 5})
	p.Process(graph.Edge{U: 2, V: 3, W: 5})
	m := graph.NewMatching(6)
	if err := m.Add(graph.Edge{U: 1, V: 2, W: 50}); err != nil {
		t.Fatal(err)
	}
	added := p.UnwindInto(m)
	// Both stacked edges conflict with 1-2 at one endpoint each... 0-1
	// conflicts (vertex 1), 2-3 conflicts (vertex 2): nothing fits.
	if added != 0 {
		t.Errorf("added = %d, want 0", added)
	}
	if m.Size() != 1 {
		t.Errorf("size = %d", m.Size())
	}
}

func TestUnwindLIFOPrefersLaterEdges(t *testing.T) {
	// Push 0-1 (w=3) then 1-2 (residual 4): unwinding must consider 1-2
	// first (reverse order), giving the heavier matching.
	p := New(3)
	p.Process(graph.Edge{U: 0, V: 1, W: 3})
	p.Process(graph.Edge{U: 1, V: 2, W: 7})
	m := p.Unwind()
	if !m.Has(1, 2) {
		t.Errorf("unwind picked %v, want edge 1-2", m.Edges())
	}
}

func TestStackSizeRandomOrder(t *testing.T) {
	// Lemma 3.15 shape: on dense graphs with random arrival the stack holds
	// O(n log n) edges. We check a generous constant at one size.
	rng := rand.New(rand.NewSource(3))
	n := 150
	inst := graph.RandomGraph(n, n*(n-1)/4, 1<<20, rng)
	s := stream.RandomOrder(inst.G, rng)
	p := New(n)
	for e, ok := s.Next(); ok; e, ok = s.Next() {
		p.Process(e)
	}
	bound := int(8 * float64(n) * math.Log(float64(n)))
	if p.PeakStackLen() > bound {
		t.Errorf("stack peak %d exceeds 8·n·ln n = %d", p.PeakStackLen(), bound)
	}
}

func TestRunEmptyGraph(t *testing.T) {
	m := Run(5, nil)
	if m.Size() != 0 {
		t.Errorf("empty run produced %d edges", m.Size())
	}
}

func TestCoverBoundDominatesOptimum(t *testing.T) {
	// LP duality: after processing every edge, Σα upper-bounds any
	// matching weight of the graph (invariant behind CertifiedRatio).
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 25; trial++ {
		inst := graph.RandomGraph(12, 30, 60, rng)
		p := New(inst.G.N())
		for _, e := range inst.G.Edges() {
			p.Process(e)
		}
		opt, err := matchutil.MaxWeightExact(inst.G)
		if err != nil {
			t.Fatal(err)
		}
		if p.CoverBound() < opt.Weight() {
			t.Fatalf("trial %d: cover bound %d below optimum %d", trial, p.CoverBound(), opt.Weight())
		}
	}
}

func TestCertifiedRatioIsValidLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		inst := graph.RandomGraph(12, 30, 60, rng)
		m, certified := CertifiedRatio(inst.G.N(), inst.G.Edges())
		opt, err := matchutil.MaxWeightExact(inst.G)
		if err != nil {
			t.Fatal(err)
		}
		actual := float64(m.Weight()) / float64(opt.Weight())
		if certified > actual+1e-9 {
			t.Fatalf("trial %d: certified %.4f exceeds actual %.4f", trial, certified, actual)
		}
		if certified < 0.33 {
			t.Fatalf("trial %d: certified ratio %.4f suspiciously low", trial, certified)
		}
	}
}

func TestCertifiedRatioEmpty(t *testing.T) {
	if _, r := CertifiedRatio(3, nil); r != 0 {
		t.Errorf("empty certified ratio = %v", r)
	}
}

func TestBoundedHalfMinusEps(t *testing.T) {
	// (1/2 - O(eps)) on every order, including adversarial ascending.
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 20; trial++ {
		inst := graph.RandomGraph(14, 45, 100, rng)
		opt, err := matchutil.MaxWeightExact(inst.G)
		if err != nil {
			t.Fatal(err)
		}
		asc := inst.G.SortedEdges()
		for i, j := 0, len(asc)-1; i < j; i, j = i+1, j-1 {
			asc[i], asc[j] = asc[j], asc[i]
		}
		m := RunBounded(inst.G.N(), asc, 0.1)
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		if float64(m.Weight()) < (0.5-0.2)*float64(opt.Weight()) {
			t.Fatalf("trial %d: bounded %d below (1/2-2eps) of %d", trial, m.Weight(), opt.Weight())
		}
	}
}

func TestBoundedStackSublinearOnAdversarial(t *testing.T) {
	// The whole point of [PS17]: ascending-weight adversarial order blows
	// the plain stack to ~m but the bounded stack stays near n log W.
	rng := rand.New(rand.NewSource(21))
	n := 120
	inst := graph.RandomGraph(n, n*n/5, 1<<20, rng)
	asc := inst.G.SortedEdges()
	for i, j := 0, len(asc)-1; i < j; i, j = i+1, j-1 {
		asc[i], asc[j] = asc[j], asc[i]
	}

	plain := New(n)
	bounded := NewBounded(n, 0.2)
	for _, e := range asc {
		plain.Process(e)
		bounded.Process(e)
	}
	if bounded.PeakStackLen() >= plain.PeakStackLen()/2 {
		t.Errorf("bounded stack %d not well below plain %d",
			bounded.PeakStackLen(), plain.PeakStackLen())
	}
	capWords := int(4 * float64(n) * math.Log(float64(1<<20)) / math.Log(1.2))
	if bounded.PeakStackLen() > capWords {
		t.Errorf("bounded stack %d above n·log_{1.2} W cap %d", bounded.PeakStackLen(), capWords)
	}
}

func TestNewBoundedClampsEps(t *testing.T) {
	p := NewBounded(2, -5)
	if p.eps != 0.1 {
		t.Errorf("eps = %v, want clamp to 0.1", p.eps)
	}
}
