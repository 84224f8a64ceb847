package bipartite

// Invariant 27 (bipartite half): the flat chain-table grower behind
// Streaming is bit-identical to the naive map-based reference form
// (streaming_naive_test.go) — same matching edges, same pass count (which
// also cross-checks the stream-authoritative counter against the naive
// hand count), same peak stored-edge charge, same accountant peaks.

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/stream"
)

func TestStreamingFlatNaiveBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	scratch := &StreamScratch{} // reused across every case on purpose
	for trial := 0; trial < 25; trial++ {
		nl, nr := 4+rng.Intn(20), 4+rng.Intn(20)
		b := randomBip(t, nl, nr, 2+rng.Intn(6*(nl+nr)), rng)
		for _, delta := range []float64{0.5, 0.2, 0.1} {
			var acctF, acctN stream.Accountant
			flat := Streaming(b.N, b.Side, stream.FromEdges(b.Edges), delta,
				StreamOptions{Account: &acctF, Scratch: scratch})
			naive := streamingNaive(b.N, b.Side, stream.FromEdges(b.Edges), delta, &acctN)

			if flat.M.Size() != naive.M.Size() {
				t.Fatalf("trial %d delta %g: size %d vs %d",
					trial, delta, flat.M.Size(), naive.M.Size())
			}
			fe, ne := flat.M.Edges(), naive.M.Edges()
			for i := range fe {
				if fe[i] != ne[i] {
					t.Fatalf("trial %d delta %g: edge %d: %v vs %v",
						trial, delta, i, fe[i], ne[i])
				}
			}
			// Satellite (b): the flat form reports the stream's own pass
			// counter; the naive form hand-counts. Any drift between the two
			// accounting schemes fails here.
			if flat.Passes != naive.Passes {
				t.Fatalf("trial %d delta %g: pass accounting drifted: stream says %d, hand count says %d",
					trial, delta, flat.Passes, naive.Passes)
			}
			if flat.PeakStored != naive.PeakStored {
				t.Fatalf("trial %d delta %g: peak stored %d vs %d",
					trial, delta, flat.PeakStored, naive.PeakStored)
			}
			if acctF.Peak() != acctN.Peak() {
				t.Fatalf("trial %d delta %g: accountant peak %d vs %d",
					trial, delta, acctF.Peak(), acctN.Peak())
			}
		}
	}
}

// TestStreamingFlatFileStream runs the flat grower over a disk-backed
// stream and asserts bit-identity with the in-RAM run, including the pass
// counter both streams maintain independently.
func TestStreamingFlatFileStream(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 8; trial++ {
		b := randomBip(t, 10+rng.Intn(15), 10+rng.Intn(15), 5+rng.Intn(120), rng)
		path := t.TempDir() + "/bip.estream"
		if err := stream.WriteFileEdges(path, b.N, b.Edges); err != nil {
			t.Fatal(err)
		}
		fs, err := stream.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fromFile := Streaming(b.N, b.Side, fs, 0.2, StreamOptions{})
		filePasses := fs.Passes()
		fs.Close()
		ss := stream.FromEdges(b.Edges)
		fromSlice := Streaming(b.N, b.Side, ss, 0.2, StreamOptions{})
		if fromFile.M.Size() != fromSlice.M.Size() || fromFile.Passes != fromSlice.Passes {
			t.Fatalf("trial %d: file run (size %d, passes %d) vs slice run (size %d, passes %d)",
				trial, fromFile.M.Size(), fromFile.Passes, fromSlice.M.Size(), fromSlice.Passes)
		}
		fe, se := fromFile.M.Edges(), fromSlice.M.Edges()
		for i := range fe {
			if fe[i] != se[i] {
				t.Fatalf("trial %d: edge %d: %v vs %v", trial, i, fe[i], se[i])
			}
		}
		if filePasses != ss.Passes() {
			t.Fatalf("trial %d: FileStream counted %d passes, SliceStream %d",
				trial, filePasses, ss.Passes())
		}
	}
}

// streamingBenchBip builds the bipartite stream for the flat-vs-naive
// grower pair.
func streamingBenchBip() (*Bip, error) {
	rng := rand.New(rand.NewSource(21))
	inst := graph.RandomBipartite(400, 400, 6000, 10, rng)
	side := make([]bool, 800)
	for v := 400; v < 800; v++ {
		side[v] = true
	}
	return NewBip(800, side, inst.G.Edges())
}

// BenchmarkStreamingFlat measures the chain-table multipass grower with a
// reused StreamScratch (the flat form).
func BenchmarkStreamingFlat(b *testing.B) {
	bip, err := streamingBenchBip()
	if err != nil {
		b.Fatal(err)
	}
	scratch := &StreamScratch{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Streaming(bip.N, bip.Side, stream.FromEdges(bip.Edges), 0.2,
			StreamOptions{Scratch: scratch})
		if res.M.Size() == 0 {
			b.Fatal("empty matching")
		}
	}
}

// BenchmarkStreamingNaive is the naive map-based reference grower on the
// same stream — the honest parity record for the flat form (no speedup
// gate; the win is allocation count, visible in -benchmem).
func BenchmarkStreamingNaive(b *testing.B) {
	bip, err := streamingBenchBip()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := streamingNaive(bip.N, bip.Side, stream.FromEdges(bip.Edges), 0.2, nil)
		if res.M.Size() == 0 {
			b.Fatal("empty matching")
		}
	}
}
