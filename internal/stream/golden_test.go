package stream_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/stream"
)

// goldenEdges is a fixed edge list built from integer arithmetic alone, so
// the digests below depend on nothing but the writers.
func goldenEdges(m, n int) []graph.Edge {
	edges := make([]graph.Edge, m)
	for i := range edges {
		u := i * 7919 % n
		v := (u + 1 + i*104729%(n-1)) % n
		edges[i] = graph.Edge{U: u, V: v, W: graph.Weight(1 + i*2654435761%1000003)}
	}
	return edges
}

func fileDigest(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestStreamFilesByteIdentical pins the SHA-256 of whole files written by
// WriteFileEdges and ShuffleToFile. The digests were recorded with the
// record-at-a-time writers these replaced, so a match proves that neither
// the file format nor the shuffle's rng draw order moved. The cases cross
// 64 KiB block boundaries in the output and, at chunk 4500, in every full
// spill chunk; chunk 64 forces 16 chunks through the merge; chunk 0 takes
// the single-chunk path.
func TestStreamFilesByteIdentical(t *testing.T) {
	const n = 1000
	edges := goldenEdges(3*4096+5, n)
	dir := t.TempDir()

	path := filepath.Join(dir, "write.estream")
	if err := stream.WriteFileEdges(path, n, edges); err != nil {
		t.Fatal(err)
	}
	if got, want := fileDigest(t, path), "a060613bf4531f3592e4017876b7a38fc84c48c8617c6bb498687e71625f41dc"; got != want {
		t.Errorf("WriteFileEdges: digest %s, want %s", got, want)
	}

	for _, c := range []struct {
		seed         int64
		chunk, edges int
		want         string
	}{
		{1, 4500, len(edges), "3f4f98521efd56e8888d39260c156e041369080f1136257dc87719ceec4b7827"},
		{2, 64, 1000, "018f35bc7f02cff85033c4beaa9a09aabbd0448a6d5b87804f47aa69995394a3"},
		{3, 0, len(edges), "6d3f22b7984e414731c1a24347d6822c6501f3b2f91a37d4f9619378eb76a382"},
	} {
		path := filepath.Join(dir, "shuffle.estream")
		if _, err := stream.ShuffleToFile(path, n, stream.SliceSource(edges[:c.edges]),
			rand.New(rand.NewSource(c.seed)), c.chunk); err != nil {
			t.Fatal(err)
		}
		if got := fileDigest(t, path); got != c.want {
			t.Errorf("ShuffleToFile seed %d chunk %d: digest %s, want %s", c.seed, c.chunk, got, c.want)
		}
	}
}
