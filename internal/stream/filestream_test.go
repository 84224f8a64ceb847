package stream_test

// The FileStream differential net: a disk-backed stream must be
// bit-indistinguishable from a SliceStream over the same edges — same
// edges in the same order, same Len, and the same Passes() trajectory
// under any interleaving of Next and Reset — and a damaged file must
// degrade to an error at Open, never to a wrong stream (Invariant 27,
// stream half; DESIGN.md PR 10).

import (
	"encoding/binary"
	"errors"
	"hash/crc64"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/solvertest"
	"repro/internal/stream"
)

func writeTempStream(t *testing.T, n int, edges []graph.Edge) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.estream")
	if err := stream.WriteFileEdges(path, n, edges); err != nil {
		t.Fatalf("WriteFileEdges: %v", err)
	}
	return path
}

func drain(t *testing.T, s stream.EdgeStream) []graph.Edge {
	t.Helper()
	var out []graph.Edge
	for e, ok := s.Next(); ok; e, ok = s.Next() {
		out = append(out, e)
	}
	return out
}

// TestFileStreamMatchesSliceStream is the differential harness over the
// solvertest families: every family's edge list round-trips through disk
// and the two stream kinds stay bit-identical over multiple passes,
// including a mid-pass Reset.
func TestFileStreamMatchesSliceStream(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, w := range solvertest.Workloads(rng) {
		t.Run(w.Name, func(t *testing.T) {
			edges := w.G.Edges()
			path := writeTempStream(t, w.G.N(), edges)
			fs, err := stream.OpenFile(path)
			if err != nil {
				t.Fatalf("OpenFile: %v", err)
			}
			defer fs.Close()
			ss := stream.FromEdges(edges)

			if fs.Len() != ss.Len() {
				t.Fatalf("Len: file %d slice %d", fs.Len(), ss.Len())
			}
			if fs.N() != w.G.N() {
				t.Fatalf("N: got %d want %d", fs.N(), w.G.N())
			}
			for pass := 0; pass < 3; pass++ {
				fe, se := drain(t, fs), drain(t, ss)
				if len(fe) != len(se) {
					t.Fatalf("pass %d: file %d edges, slice %d", pass, len(fe), len(se))
				}
				for i := range fe {
					if fe[i] != se[i] {
						t.Fatalf("pass %d edge %d: file %v slice %v", pass, i, fe[i], se[i])
					}
				}
				if fs.Passes() != ss.Passes() {
					t.Fatalf("pass %d: Passes file %d slice %d", pass, fs.Passes(), ss.Passes())
				}
				fs.Reset()
				ss.Reset()
			}

			// Mid-pass Reset must not advance either counter differently.
			fs.Next()
			ss.Next()
			fs.Reset()
			ss.Reset()
			fs.Next()
			ss.Next()
			if fs.Passes() != ss.Passes() {
				t.Fatalf("after mid-pass reset: Passes file %d slice %d", fs.Passes(), ss.Passes())
			}
			if err := fs.Err(); err != nil {
				t.Fatalf("Err: %v", err)
			}
		})
	}
}

// TestWriteFileUnknownCount exercises the reserve-and-patch header path:
// the generator's edge count is not known up front, yet the opened file
// declares it exactly.
func TestWriteFileUnknownCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	path := filepath.Join(t.TempDir(), "gen.estream")
	const n, m = 50, 777
	wrote, err := stream.WriteFile(path, n, graph.RandomEdgeSource(n, m, 100, rng))
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if wrote != m {
		t.Fatalf("wrote %d edges, want %d", wrote, m)
	}
	fs, err := stream.OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer fs.Close()
	if fs.Len() != m || fs.N() != n {
		t.Fatalf("geometry: Len=%d N=%d, want %d/%d", fs.Len(), fs.N(), m, n)
	}
	if got := len(drain(t, fs)); got != m {
		t.Fatalf("drained %d edges, want %d", got, m)
	}
}

// TestFileStreamNextAllocs: reading a record from an open file allocates
// nothing, so a pass over a million-edge stream puts no garbage on the heap.
func TestFileStreamNextAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inst := graph.RandomGraph(100, 2000, 50, rng)
	fs, err := stream.OpenFile(writeTempStream(t, inst.G.N(), inst.G.Edges()))
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer fs.Close()
	if got := testing.AllocsPerRun(1000, func() {
		if _, ok := fs.Next(); !ok {
			t.Fatal("stream ended early")
		}
	}); got != 0 {
		t.Fatalf("FileStream.Next allocates %v times per record, want 0", got)
	}
}

// forgeRecord overwrites record i of the stream file at path with e and
// rewrites the CRC trailer to match, producing a file whose checksums all
// hold around a record WriteFile would refuse.
func forgeRecord(t *testing.T, path string, i int, e graph.Edge) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dataOff := 4 + int(binary.LittleEndian.Uint32(data))
	rec := data[dataOff+16*i:]
	binary.LittleEndian.PutUint32(rec[0:], uint32(e.U))
	binary.LittleEndian.PutUint32(rec[4:], uint32(e.V))
	binary.LittleEndian.PutUint64(rec[8:], uint64(e.W))
	records := data[dataOff : len(data)-8]
	binary.LittleEndian.PutUint64(data[len(data)-8:], crc64.Checksum(records, crc64.MakeTable(crc64.ECMA)))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStreamFilesRefuseInvalidRecords: a record graph.CheckEdge rejects
// never becomes part of a stream. WriteFile (and ShuffleToFile through it)
// refuses to write it, naming the record, and OpenFile refuses a file that
// carries one under valid checksums, before any consumer indexes by it.
func TestStreamFilesRefuseInvalidRecords(t *testing.T) {
	const n = 10
	valid := []graph.Edge{{U: 0, V: 1, W: 3}, {U: 2, V: 3, W: 4}, {U: 5, V: 9, W: 1}}
	cases := []struct {
		name string
		bad  graph.Edge
		want error
	}{
		{"vertex out of range", graph.Edge{U: 1, V: 50, W: 3}, graph.ErrVertexRange},
		{"self loop", graph.Edge{U: 4, V: 4, W: 9}, graph.ErrSelfLoop},
		{"zero weight", graph.Edge{U: 1, V: 2, W: 0}, graph.ErrNonPositiveWeight},
		{"negative weight", graph.Edge{U: 1, V: 2, W: -7}, graph.ErrNonPositiveWeight},
	}
	dir := t.TempDir()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			edges := []graph.Edge{valid[0], valid[1], c.bad, valid[2]}
			path := filepath.Join(dir, "bad.estream")
			err := stream.WriteFileEdges(path, n, edges)
			if !errors.Is(err, c.want) {
				t.Fatalf("WriteFile: got %v, want %v", err, c.want)
			}
			if !strings.HasPrefix(err.Error(), "stream: record 2: ") {
				t.Fatalf("WriteFile error %q does not name record 2", err)
			}
			if _, err := stream.ShuffleToFile(path, n, stream.SliceSource(edges),
				rand.New(rand.NewSource(1)), 2); !errors.Is(err, c.want) {
				t.Fatalf("ShuffleToFile: got %v, want %v", err, c.want)
			}

			if err := stream.WriteFileEdges(path, n, valid); err != nil {
				t.Fatal(err)
			}
			forgeRecord(t, path, 1, c.bad)
			fs, err := stream.OpenFile(path)
			if err == nil {
				fs.Close()
				t.Fatal("OpenFile accepted a file with an invalid record")
			}
			if !errors.Is(err, stream.ErrFileStreamPayload) || !errors.Is(err, c.want) {
				t.Fatalf("OpenFile: got %v, want %v and %v", err, stream.ErrFileStreamPayload, c.want)
			}
		})
	}
	if strconv.IntSize == 64 {
		wide := uint64(1)<<32 + 1
		if _, err := stream.WriteFile(filepath.Join(dir, "wide.estream"), int(wide),
			stream.SliceSource(valid)); err == nil {
			t.Fatal("WriteFile accepted more vertices than uint32 ids address")
		}
	}
}

// TestFileStreamEveryByteFlip is the AUGSNAP corruption contract applied
// to stream files: flipping any single byte of a valid file must make
// OpenFile fail — header, geometry, records, or trailer, no byte is
// unprotected.
func TestFileStreamEveryByteFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := graph.RandomGraph(12, 20, 50, rng)
	path := writeTempStream(t, inst.G.N(), inst.G.Edges())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := filepath.Join(t.TempDir(), "mut.estream")
	for i := range data {
		corrupt := append([]byte(nil), data...)
		corrupt[i] ^= 0x40
		if err := os.WriteFile(mut, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if fs, err := stream.OpenFile(mut); err == nil {
			fs.Close()
			t.Fatalf("byte %d/%d: flip not detected", i, len(data))
		}
	}
}

// TestFileStreamTruncation: a file cut anywhere must fail verification.
func TestFileStreamTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	inst := graph.RandomGraph(10, 15, 50, rng)
	path := writeTempStream(t, inst.G.N(), inst.G.Edges())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := filepath.Join(t.TempDir(), "trunc.estream")
	for _, cut := range []int{0, 1, 3, 4, len(data) / 2, len(data) - 9, len(data) - 1} {
		if err := os.WriteFile(mut, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if fs, err := stream.OpenFile(mut); err == nil {
			fs.Close()
			t.Fatalf("truncation at %d/%d not detected", cut, len(data))
		}
	}
}

func sortedEdges(edges []graph.Edge) []graph.Edge {
	cp := append([]graph.Edge(nil), edges...)
	sort.Slice(cp, func(i, j int) bool {
		if cp[i].U != cp[j].U {
			return cp[i].U < cp[j].U
		}
		if cp[i].V != cp[j].V {
			return cp[i].V < cp[j].V
		}
		return cp[i].W < cp[j].W
	})
	return cp
}

// TestShuffleToFilePermutation: the external-memory shuffle must produce
// a permutation of the input (multi-chunk merge path), deterministic for
// a fixed seed and different across seeds.
func TestShuffleToFilePermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inst := graph.RandomGraph(40, 500, 1000, rng)
	edges := inst.G.Edges()
	dir := t.TempDir()

	read := func(seed int64, chunk int) []graph.Edge {
		path := filepath.Join(dir, "shuf.estream")
		wrote, err := stream.ShuffleToFile(path, inst.G.N(), stream.SliceSource(edges),
			rand.New(rand.NewSource(seed)), chunk)
		if err != nil {
			t.Fatalf("ShuffleToFile: %v", err)
		}
		if wrote != len(edges) {
			t.Fatalf("wrote %d, want %d", wrote, len(edges))
		}
		fs, err := stream.OpenFile(path)
		if err != nil {
			t.Fatalf("OpenFile: %v", err)
		}
		defer fs.Close()
		return drain(t, fs)
	}

	// chunk=64 forces ~8 spill files through the weighted merge.
	got := read(1, 64)
	want := sortedEdges(edges)
	if gotSorted := sortedEdges(got); len(gotSorted) != len(want) {
		t.Fatalf("shuffle changed edge count: %d vs %d", len(gotSorted), len(want))
	} else {
		for i := range want {
			if gotSorted[i] != want[i] {
				t.Fatalf("shuffle is not a permutation at sorted index %d", i)
			}
		}
	}
	same := read(1, 64)
	for i := range got {
		if got[i] != same[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	other := read(2, 64)
	diff := false
	for i := range got {
		if got[i] != other[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced the same permutation")
	}

	// Single-chunk fast path is also a permutation.
	small := read(3, 0)
	smallSorted := sortedEdges(small)
	for i := range want {
		if smallSorted[i] != want[i] {
			t.Fatalf("single-chunk shuffle not a permutation at %d", i)
		}
	}

	// No spill chunks may be left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "shuf.estream" {
			t.Fatalf("leftover temp file %q", e.Name())
		}
	}
}

// TestShuffleToFileUniform is a coarse uniformity check on the merge: over
// many seeds, each of 4 distinct edges lands in position 0 roughly equally
// often (chunked so every draw crosses the Fenwick merge).
func TestShuffleToFileUniform(t *testing.T) {
	edges := []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 3}, {U: 3, V: 0, W: 4},
	}
	dir := t.TempDir()
	counts := map[graph.Edge]int{}
	const trials = 400
	for seed := int64(0); seed < trials; seed++ {
		path := filepath.Join(dir, "u.estream")
		if _, err := stream.ShuffleToFile(path, 4, stream.SliceSource(edges),
			rand.New(rand.NewSource(seed)), 2); err != nil {
			t.Fatal(err)
		}
		fs, err := stream.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		first, _ := fs.Next()
		fs.Close()
		counts[first]++
	}
	for _, e := range edges {
		if c := counts[e]; c < trials/8 || c > trials/2 {
			t.Fatalf("edge %v first %d/%d times — merge looks biased (%v)", e, c, trials, counts)
		}
	}
}

// FuzzFileStream: arbitrary bytes never panic the opener and never yield
// an inconsistent stream — Open either rejects the file or returns a
// stream whose passes repeat bit-identically, agree with Len, and carry
// only edges graph.CheckEdge accepts.
func FuzzFileStream(f *testing.F) {
	rng := rand.New(rand.NewSource(20))
	inst := graph.RandomGraph(8, 12, 30, rng)
	path := filepath.Join(f.TempDir(), "seed.estream")
	if err := stream.WriteFileEdges(path, inst.G.N(), inst.G.Edges()); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	empty := filepath.Join(f.TempDir(), "empty.estream")
	if err := stream.WriteFileEdges(empty, 1, nil); err != nil {
		f.Fatal(err)
	}
	emptyBytes, err := os.ReadFile(empty)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(emptyBytes)

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.estream")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		fs, err := stream.OpenFile(p)
		if err != nil {
			return // rejected; the only other acceptable outcome
		}
		defer fs.Close()
		first := drain(t, fs)
		if len(first) != fs.Len() {
			t.Fatalf("accepted stream drained %d edges, Len says %d", len(first), fs.Len())
		}
		for i, e := range first {
			if err := graph.CheckEdge(fs.N(), e); err != nil {
				t.Fatalf("accepted stream replays invalid record %d: %v", i, err)
			}
		}
		fs.Reset()
		second := drain(t, fs)
		if len(second) != len(first) {
			t.Fatalf("pass 2 drained %d edges, pass 1 %d", len(second), len(first))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("passes diverge at %d: %v vs %v", i, first[i], second[i])
			}
		}
		if fs.Passes() != 2 {
			t.Fatalf("Passes = %d after two drains, want 2", fs.Passes())
		}
	})
}
