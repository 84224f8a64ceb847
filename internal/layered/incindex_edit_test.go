package layered

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// applyRandomEdit performs one graph mutation — insert, delete, or
// reweight — through the full protocol: graph first, matching in lockstep
// for matched edges, then the matching Note* call on the index.
func applyRandomEdit(t testing.TB, g *graph.Graph, m *graph.Matching, inc *IncIndex, maxW graph.Weight, rng *rand.Rand) {
	t.Helper()
	op := rng.Intn(3)
	if g.M() == 0 {
		op = 0
	}
	switch op {
	case 0: // insert
		u := rng.Intn(g.N())
		v := rng.Intn(g.N())
		if u == v {
			return
		}
		e := graph.Edge{U: u, V: v, W: 1 + graph.Weight(rng.Int63n(int64(maxW)))}
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
		inc.NoteInsert(g.Edges())
	case 1: // delete
		i := rng.Intn(g.M())
		e := g.EdgeAt(i)
		if m.Has(e.U, e.V) {
			if err := m.Remove(e.U, e.V); err != nil {
				t.Fatal(err)
			}
		}
		moved, err := g.RemoveEdgeAt(i)
		if err != nil {
			t.Fatal(err)
		}
		inc.NoteRemove(i, moved, g.Edges())
	case 2: // reweight
		i := rng.Intn(g.M())
		e := g.EdgeAt(i)
		w := 1 + graph.Weight(rng.Int63n(int64(maxW)))
		if err := g.SetEdgeWeight(i, w); err != nil {
			t.Fatal(err)
		}
		if m.Has(e.U, e.V) {
			if err := m.Reweight(e.U, e.V, w); err != nil {
				t.Fatal(err)
			}
		}
		inc.NoteReweight(i, g.Edges())
	}
}

// assertYGroupsMatch compares the grouped-Y partitions of two views over
// the full classification grid — content and order. The edited index may
// be revalidating a partition across rounds and edits; the fresh index
// builds it cold, so any unsound reuse (a missed change-clock charge, a
// stale bucket order after a swap-remove) shows up here.
func assertYGroupsMatch(t testing.TB, edited, fresh *IncView, maxU int) {
	t.Helper()
	cols := make([]int, 0, maxU+2)
	for c := 0; c <= maxU; c++ {
		cols = append(cols, c)
	}
	cols = append(cols, freeLBit)
	for u := 2; u <= maxU; u++ {
		for row := 0; row <= maxU; row++ {
			for _, col := range cols {
				got := edited.YGroup(u, row, col)
				want := fresh.YGroup(u, row, col)
				if !edgeSlicesEqual(got, want) {
					t.Fatalf("YGroup(%d,%d,%d): edited %v != fresh %v", u, row, col, got, want)
				}
			}
		}
	}
}

// TestIncIndexEditsMatchFresh drives an IncIndex through rounds with a
// random mutation batch between each pair of rounds and asserts that every
// class view is bit-identical to (a) a naive BucketIndex rebuild and (b) a
// fresh IncIndex built cold on the post-edit graph — buckets, counts,
// masks, and the grouped-Y partitions whose cross-round reuse the edit
// charges must invalidate. Sides are frozen on alternate rounds so the
// reuse path actually fires and the edits are what invalidates it.
func TestIncIndexEditsMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 6; trial++ {
		n := 8 + rng.Intn(16)
		maxW := graph.Weight(1 << (3 + rng.Intn(4)))
		inst := graph.RandomGraph(n, 2*n, maxW, rng)
		g := inst.G
		prm := Params{Granularity: []float64{0.5, 0.25}[trial%2]}.WithDefaults()
		maxU, _ := prm.Units()
		ws := testClassWeights(g.Edges(), prm)
		inc := NewIncIndex(n, g.Edges(), ws, prm)
		m := graph.NewMatching(n)
		side := make([]bool, n)

		for round := 0; round < 6; round++ {
			for k := 0; k < 1+rng.Intn(3); k++ {
				if g.M() > 0 {
					mutateMatching(m, g.EdgeAt(rng.Intn(g.M())), byte(rng.Intn(256)))
				}
			}
			if err := inc.BeginEdits(); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < rng.Intn(4); k++ {
				applyRandomEdit(t, g, m, inc, maxW, rng)
			}
			inc.EndEdits()

			if round%2 == 0 { // redraw; odd rounds keep the frozen sides
				for v := range side {
					side[v] = rng.Intn(2) == 1
				}
			}
			par := ParametrizeWithSide(n, g.Edges(), m, side)
			fresh := NewIncIndex(n, g.Edges(), ws, prm)
			if err := inc.BeginRound(par); err != nil {
				t.Fatal(err)
			}
			if err := fresh.BeginRound(par); err != nil {
				t.Fatal(err)
			}
			for c, w := range ws {
				ref := NewBucketIndex(par, w, prm)
				assertViewMatchesBucket(t, inc.View(c), ref, prm)
				assertYGroupsMatch(t, inc.View(c), fresh.View(c), maxU)
			}
		}
	}
}

// TestIncIndexBandCompaction hammers one index with reweights until the
// abandoned band slots dominate, and checks that EndEdits reclaims them
// without changing any bucket.
func TestIncIndexBandCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 12
	inst := graph.RandomGraph(n, 3*n, 64, rng)
	g := inst.G
	prm := Params{Granularity: 0.25}.WithDefaults()
	ws := testClassWeights(g.Edges(), prm)
	inc := NewIncIndex(n, g.Edges(), ws, prm)
	m := graph.NewMatching(n)

	compacted := false
	for batch := 0; batch < 40; batch++ {
		if err := inc.BeginEdits(); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			i := rng.Intn(g.M())
			w := 1 + graph.Weight(rng.Int63n(64))
			if err := g.SetEdgeWeight(i, w); err != nil {
				t.Fatal(err)
			}
			inc.NoteReweight(i, g.Edges())
		}
		dead := inc.bDead
		inc.EndEdits()
		if dead > 0 && inc.bDead == 0 {
			compacted = true
		}
	}
	if !compacted {
		t.Fatal("40 reweight batches never triggered a band compaction")
	}
	par := Parametrize(n, g.Edges(), m, rng)
	if err := inc.BeginRound(par); err != nil {
		t.Fatal(err)
	}
	for c, w := range ws {
		assertViewMatchesBucket(t, inc.View(c), NewBucketIndex(par, w, prm), prm)
	}
}

// TestBeginEditsBusy checks the exclusivity guard: an edit batch may not
// open while a round (or another batch) holds the index.
func TestBeginEditsBusy(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 8)
	prm := Params{}.WithDefaults()
	inc := NewIncIndex(4, g.Edges(), testClassWeights(g.Edges(), prm), prm)
	if err := inc.BeginEdits(); err != nil {
		t.Fatal(err)
	}
	if err := inc.BeginEdits(); err != ErrBeginRoundBusy {
		t.Fatalf("nested BeginEdits: err = %v; want ErrBeginRoundBusy", err)
	}
	par := Parametrize(4, g.Edges(), graph.NewMatching(4), rand.New(rand.NewSource(1)))
	if err := inc.BeginRound(par); err != ErrBeginRoundBusy {
		t.Fatalf("BeginRound during edits: err = %v; want ErrBeginRoundBusy", err)
	}
	inc.EndEdits()
	if err := inc.BeginRound(par); err != nil {
		t.Fatalf("BeginRound after EndEdits: %v", err)
	}
}
