package stream

// The reference form of a FileStream pass: the record-at-a-time reader the
// block reader replaced, a 1 MiB bufio.Reader over the file and one
// io.ReadFull per 16-byte record. It is the slow side of the same-run gate
// BenchmarkFileStreamPass/BenchmarkFileStreamPassRecordwise in CI, and a
// second reader for the block-boundary differential below.

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// recordwiseStream reads the records of an opened FileStream's file one
// io.ReadFull at a time. It shares the FileStream's file: the block reader
// reads by offset, so the two never move each other's position.
type recordwiseStream struct {
	f       *os.File
	r       *bufio.Reader
	m       int
	dataOff int64
	pos     int
	passes  int
	err     error
	// rec is Next's read buffer; a local one would escape through
	// io.ReadFull and cost an allocation per record.
	rec [recordSize]byte
}

var _ EdgeStream = (*recordwiseStream)(nil)

func newRecordwise(fs *FileStream) *recordwiseStream {
	s := &recordwiseStream{f: fs.r.f, m: fs.m, dataOff: fs.dataOff}
	s.Reset()
	return s
}

func (s *recordwiseStream) Reset() {
	if _, err := s.f.Seek(s.dataOff, io.SeekStart); err != nil {
		s.err = err
		return
	}
	if s.r == nil {
		s.r = bufio.NewReaderSize(s.f, 1<<20)
	} else {
		s.r.Reset(s.f)
	}
	s.pos = 0
}

func (s *recordwiseStream) Next() (graph.Edge, bool) {
	if s.pos == 0 {
		s.passes++
	}
	if s.pos >= s.m || s.err != nil {
		return graph.Edge{}, false
	}
	if _, err := io.ReadFull(s.r, s.rec[:]); err != nil {
		s.err = fmt.Errorf("%w: %v", ErrFileStreamPayload, err)
		return graph.Edge{}, false
	}
	s.pos++
	return decodeRecord(s.rec[:]), true
}

func (s *recordwiseStream) Len() int    { return s.m }
func (s *recordwiseStream) Passes() int { return s.passes }

// TestFileStreamBlockBoundaries: at file sizes on and around the block
// boundaries, a FileStream yields what a SliceStream over the same edges
// and the record-at-a-time reader over the same file yield — the same
// edges, Len and Passes — with Reset called mid-block, exactly at a block
// boundary, one record past it, and after whole passes.
func TestFileStreamBlockBoundaries(t *testing.T) {
	const n = 1000
	for _, m := range []int{0, 1, blockRecords - 1, blockRecords, blockRecords + 1, 3*blockRecords + 5} {
		t.Run(fmt.Sprint(m), func(t *testing.T) {
			src := graph.RandomEdgeSource(n, m, 1<<20, rand.New(rand.NewSource(int64(m))))
			var edges []graph.Edge
			for e, ok := src(); ok; e, ok = src() {
				edges = append(edges, e)
			}
			path := filepath.Join(t.TempDir(), "s.estream")
			if err := WriteFileEdges(path, n, edges); err != nil {
				t.Fatal(err)
			}
			fs, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			ref := newRecordwise(fs)
			slice := FromEdges(edges)
			streams := map[string]EdgeStream{"block": fs, "recordwise": ref}
			for name, s := range streams {
				if s.Len() != slice.Len() {
					t.Fatalf("Len: %s %d, slice %d", name, s.Len(), slice.Len())
				}
			}
			// m+1 twice: two whole passes, each with a Next past the end.
			for _, stop := range []int{1, blockRecords / 2, blockRecords, blockRecords + 1, 2 * blockRecords, m + 1, m + 1} {
				for i := 0; i < stop; i++ {
					want, wok := slice.Next()
					for name, s := range streams {
						if e, ok := s.Next(); e != want || ok != wok {
							t.Fatalf("reset after %d, record %d: %s %v/%v, slice %v/%v", stop, i, name, e, ok, want, wok)
						}
					}
				}
				for name, s := range streams {
					if s.Passes() != slice.Passes() {
						t.Fatalf("reset after %d: Passes %s %d, slice %d", stop, name, s.Passes(), slice.Passes())
					}
					s.Reset()
				}
				slice.Reset()
			}
			if fs.Err() != nil || ref.err != nil {
				t.Fatalf("Err: block %v, recordwise %v", fs.Err(), ref.err)
			}
		})
	}
}

// benchFileStreamPass times one full pass over a 10^6-record file through
// the EdgeStream interface, as RandArrMatching reads it.
func benchFileStreamPass(b *testing.B, open func(*FileStream) EdgeStream) {
	const n, m = 100_000, 1_000_000
	path := filepath.Join(b.TempDir(), "pass.estream")
	rng := rand.New(rand.NewSource(1))
	if _, err := WriteFile(path, n, graph.RandomEdgeSource(n, m, 1<<20, rng)); err != nil {
		b.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	s := open(fs)
	b.SetBytes(m * recordSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		var got int
		for _, ok := s.Next(); ok; _, ok = s.Next() {
			got++
		}
		if got != m {
			b.Fatalf("pass read %d of %d records", got, m)
		}
	}
}

func BenchmarkFileStreamPass(b *testing.B) {
	benchFileStreamPass(b, func(fs *FileStream) EdgeStream { return fs })
}

func BenchmarkFileStreamPassRecordwise(b *testing.B) {
	benchFileStreamPass(b, func(fs *FileStream) EdgeStream { return newRecordwise(fs) })
}
