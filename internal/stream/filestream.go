package stream

// Disk-backed edge streams: the out-of-core substrate of the streaming
// tier. A stream file is a small AUGSNAP-container header (so header
// corruption is detected exactly the way snapshot corruption is, see
// internal/graph/snapshot.go), followed by fixed-width binary edge
// records, followed by a CRC64-ECMA trailer over the record bytes. Open
// verifies the header, scans the payload checksum and checks every record
// with graph.CheckEdge before handing out a single edge, so a damaged file
// degrades to an error, never to a wrong stream. Multi-pass reads are
// buffered sequential scans; memory is O(1) records regardless of file
// size, which is what lets the E20 ledger run 10^7-edge streams that
// genuinely never fit in RAM.
//
// The companion writer ShuffleToFile materialises a uniformly random
// arrival order (the Theorem 1.1 model) in external memory: edges are
// spilled in Fisher–Yates-shuffled chunks and merged by remaining-count
// weighted draws, which yields a uniform permutation while holding only
// one chunk plus one buffered reader per chunk in RAM.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/graph"
)

const (
	// fileStreamVersion is the newest stream-file format this reader
	// understands; the AUGSNAP container rejects files declaring more.
	fileStreamVersion = 1
	// recordSize is the fixed width of one edge record: u uint32, v
	// uint32, w int64, little-endian.
	recordSize = 16
	// maxVertices is the largest vertex count uint32 ids can address.
	maxVertices = 1 << 32
	// verifyBlock is the number of records OpenFile reads, checksums and
	// checks per read.
	verifyBlock = 1 << 12
	// headerSection names the container section carrying the stream
	// geometry (n, m, record width as three int64s).
	headerSection = "estream"
	// DefaultShuffleChunk is the in-RAM chunk size (in edges) of
	// ShuffleToFile when the caller passes chunkEdges <= 0. 1<<16 edges
	// is 1 MiB of records — small enough that a 10^7-edge shuffle holds
	// well under 1% of the stream in memory at a time.
	DefaultShuffleChunk = 1 << 16
)

var fileCRC = crc64.MakeTable(crc64.ECMA)

// Stream-file error conditions. All of them mean the file must not be
// trusted as a stream; callers report the error instead of running on
// partial or corrupt data.
var (
	// ErrFileStreamHeader: the header region is not a valid stream header
	// (wraps the graph.ErrSnapshot* cause when the container detected it).
	ErrFileStreamHeader = errors.New("stream: bad stream-file header")
	// ErrFileStreamPayload: the record region fails its CRC64 trailer or
	// its declared length — at least one bit changed since the write — or
	// holds a record graph.CheckEdge rejects.
	ErrFileStreamPayload = errors.New("stream: stream-file payload corrupt")
)

// encodeRecord writes e into buf (len >= recordSize).
func encodeRecord(buf []byte, e graph.Edge) {
	binary.LittleEndian.PutUint32(buf[0:], uint32(e.U))
	binary.LittleEndian.PutUint32(buf[4:], uint32(e.V))
	binary.LittleEndian.PutUint64(buf[8:], uint64(e.W))
}

// decodeRecord reads one edge from buf (len >= recordSize).
func decodeRecord(buf []byte) graph.Edge {
	return graph.Edge{
		U: int(binary.LittleEndian.Uint32(buf[0:])),
		V: int(binary.LittleEndian.Uint32(buf[4:])),
		W: graph.Weight(binary.LittleEndian.Uint64(buf[8:])),
	}
}

// headerBytes renders the length-prefixed header for a stream of m edges
// over n vertices. The layout is deterministic and fixed-size for fixed
// field widths, which is what lets WriteFile reserve the header region
// up front and patch it once m is known.
func headerBytes(n, m int) []byte {
	payload := make([]byte, 0, 24)
	payload = binary.LittleEndian.AppendUint64(payload, uint64(n))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(m))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(recordSize))
	snap := graph.EncodeSnapshot(fileStreamVersion, []graph.SnapshotSection{
		{Name: headerSection, Data: payload},
	})
	out := make([]byte, 0, 4+len(snap))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(snap)))
	return append(out, snap...)
}

// WriteFile writes the edges produced by next (called until it reports
// ok=false) to path in the stream-file format and returns the number of
// records written. Memory is O(1) records: the edge count need not be
// known up front — a fixed-size header region is reserved and patched
// after the records and CRC trailer land.
//
// Every edge must pass graph.CheckEdge against n; the first that does not
// stops the write with that error, naming its record index. The format's
// uint32 ids cap n at 2^32.
func WriteFile(path string, n int, next func() (graph.Edge, bool)) (int, error) {
	if n < 0 || uint64(n) > maxVertices {
		return 0, fmt.Errorf("stream: %d vertices outside the format's [0, 2^32]", n)
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()

	// Reserve the header region; the length is independent of m.
	placeholder := headerBytes(n, 0)
	if _, err := f.Write(placeholder); err != nil {
		return 0, err
	}

	w := bufio.NewWriterSize(f, 1<<20)
	crc := crc64.New(fileCRC)
	var rec [recordSize]byte
	m := 0
	for {
		e, ok := next()
		if !ok {
			break
		}
		if err := graph.CheckEdge(n, e); err != nil {
			return 0, fmt.Errorf("stream: record %d: %w", m, err)
		}
		encodeRecord(rec[:], e)
		if _, err := w.Write(rec[:]); err != nil {
			return 0, err
		}
		crc.Write(rec[:])
		m++
	}
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], crc.Sum64())
	if _, err := w.Write(trailer[:]); err != nil {
		return 0, err
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	header := headerBytes(n, m)
	if len(header) != len(placeholder) {
		return 0, fmt.Errorf("stream: header size drifted (%d vs %d bytes)", len(header), len(placeholder))
	}
	if _, err := f.WriteAt(header, 0); err != nil {
		return 0, err
	}
	return m, f.Sync()
}

// WriteFileEdges writes an in-RAM edge slice to path in the stream-file
// format, preserving the slice order.
func WriteFileEdges(path string, n int, edges []graph.Edge) error {
	i := 0
	_, err := WriteFile(path, n, func() (graph.Edge, bool) {
		if i >= len(edges) {
			return graph.Edge{}, false
		}
		e := edges[i]
		i++
		return e, true
	})
	return err
}

// SliceSource adapts an edge slice to the generator form WriteFile and
// ShuffleToFile consume.
func SliceSource(edges []graph.Edge) func() (graph.Edge, bool) {
	i := 0
	return func() (graph.Edge, bool) {
		if i >= len(edges) {
			return graph.Edge{}, false
		}
		e := edges[i]
		i++
		return e, true
	}
}

// FileStream is a disk-backed EdgeStream over a file written by WriteFile
// or ShuffleToFile. Passes are buffered sequential scans; Reset seeks back
// to the first record. The stream holds O(1) records in memory.
//
// Next cannot return an error by signature, so a mid-pass read fault ends
// the pass early (ok=false) and parks the cause on Err; drivers that care
// check Err after draining. Corrupt files never get this far: OpenFile
// verifies the header, the payload CRC and every record before returning.
type FileStream struct {
	f       *os.File
	r       *bufio.Reader
	n, m    int
	dataOff int64
	pos     int
	passes  int
	err     error
	// rec is Next's read buffer; a local one would escape through
	// io.ReadFull and cost an allocation per record.
	rec [recordSize]byte
}

var _ EdgeStream = (*FileStream)(nil)

// OpenFile opens and fully verifies a stream file: the AUGSNAP header
// (magic, version ceiling, CRC), the declared geometry against the file
// size, the CRC64 trailer over every record byte, and every record
// against graph.CheckEdge (one blocked sequential scan). A file that fails
// any check yields an error and no stream — corruption degrades to an
// error, never to wrong edges.
func OpenFile(path string) (*FileStream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := openVerified(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func openVerified(f *os.File) (*FileStream, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(f, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFileStreamHeader, err)
	}
	headerLen := binary.LittleEndian.Uint32(lenBuf[:])
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if int64(headerLen) > st.Size()-4 || headerLen > 1<<16 {
		return nil, fmt.Errorf("%w: declared header of %d bytes", ErrFileStreamHeader, headerLen)
	}
	header := make([]byte, headerLen)
	if _, err := io.ReadFull(f, header); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFileStreamHeader, err)
	}
	_, sections, err := graph.DecodeSnapshot(header, fileStreamVersion)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFileStreamHeader, err)
	}
	geom, ok := graph.FindSection(sections, headerSection)
	if !ok || len(geom) != 24 {
		return nil, fmt.Errorf("%w: missing %q section", ErrFileStreamHeader, headerSection)
	}
	n := int(binary.LittleEndian.Uint64(geom[0:]))
	m := int(binary.LittleEndian.Uint64(geom[8:]))
	rec := int(binary.LittleEndian.Uint64(geom[16:]))
	if rec != recordSize || n < 0 || m < 0 {
		return nil, fmt.Errorf("%w: geometry n=%d m=%d rec=%d", ErrFileStreamHeader, n, m, rec)
	}
	dataOff := int64(4 + headerLen)
	want := dataOff + int64(m)*recordSize + 8
	if st.Size() != want {
		return nil, fmt.Errorf("%w: %d bytes on disk, header declares %d", ErrFileStreamPayload, st.Size(), want)
	}

	// Verify the payload checksum and every record in one blocked scan.
	if _, err := f.Seek(dataOff, io.SeekStart); err != nil {
		return nil, err
	}
	crc := crc64.New(fileCRC)
	block := make([]byte, verifyBlock*recordSize)
	for done := 0; done < m; {
		b := block[:min(m-done, verifyBlock)*recordSize]
		if _, err := io.ReadFull(f, b); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFileStreamPayload, err)
		}
		crc.Write(b)
		for off := 0; off < len(b); off += recordSize {
			if err := graph.CheckEdge(n, decodeRecord(b[off:])); err != nil {
				return nil, fmt.Errorf("%w: record %d: %w", ErrFileStreamPayload, done+off/recordSize, err)
			}
		}
		done += len(b) / recordSize
	}
	var trailer [8]byte
	if _, err := f.ReadAt(trailer[:], st.Size()-8); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFileStreamPayload, err)
	}
	if crc.Sum64() != binary.LittleEndian.Uint64(trailer[:]) {
		return nil, fmt.Errorf("%w: record checksum mismatch", ErrFileStreamPayload)
	}

	s := &FileStream{f: f, n: n, m: m, dataOff: dataOff}
	s.rewind()
	return s, nil
}

func (s *FileStream) rewind() {
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

// Next implements EdgeStream. Pass counting mirrors SliceStream exactly
// (a pass is counted when its first record is requested) so the two
// stream kinds report bit-identical Passes() under the same driver.
func (s *FileStream) Next() (graph.Edge, bool) {
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

// Reset implements EdgeStream.
func (s *FileStream) Reset() { s.rewind() }

// Len implements EdgeStream.
func (s *FileStream) Len() int { return s.m }

// Passes implements EdgeStream.
func (s *FileStream) Passes() int { return s.passes }

// N returns the vertex count recorded in the header.
func (s *FileStream) N() int { return s.n }

// Err returns the first mid-pass read fault, if any. A verified file on a
// healthy disk never sets it.
func (s *FileStream) Err() error { return s.err }

// Close releases the underlying file.
func (s *FileStream) Close() error { return s.f.Close() }

// ShuffleToFile writes a uniformly random permutation of the edges
// produced by next into path, using O(chunkEdges) edges of RAM however
// large the stream is. It returns the number of edges written.
//
// Two external-memory phases: (1) spill — consecutive chunks of
// chunkEdges edges are Fisher–Yates shuffled in RAM and written to
// temporary files next to path; (2) merge — the output repeatedly draws
// its next edge from a chunk chosen with probability proportional to the
// chunk's remaining count (a Fenwick tree makes the weighted draw
// O(log chunks)). Each chunk is an independent uniform permutation of its
// contents and the interleaving is an independent uniform choice among
// all interleavings, so the composition is a uniform permutation of the
// whole stream — the arrival model of Theorem 1.1 at any scale.
func ShuffleToFile(path string, n int, next func() (graph.Edge, bool), rng *rand.Rand, chunkEdges int) (int, error) {
	if chunkEdges <= 0 {
		chunkEdges = DefaultShuffleChunk
	}
	dir := filepath.Dir(path)

	// Phase 1: spill shuffled chunks.
	var chunkFiles []*os.File
	var counts []int
	defer func() {
		for _, cf := range chunkFiles {
			cf.Close()
			os.Remove(cf.Name())
		}
	}()
	buf := make([]graph.Edge, 0, chunkEdges)
	total := 0
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		rng.Shuffle(len(buf), func(i, j int) { buf[i], buf[j] = buf[j], buf[i] })
		cf, err := os.CreateTemp(dir, "eshuffle-*.chunk")
		if err != nil {
			return err
		}
		w := bufio.NewWriterSize(cf, 1<<20)
		var rec [recordSize]byte
		for _, e := range buf {
			encodeRecord(rec[:], e)
			if _, err := w.Write(rec[:]); err != nil {
				cf.Close()
				os.Remove(cf.Name())
				return err
			}
		}
		if err := w.Flush(); err != nil {
			cf.Close()
			os.Remove(cf.Name())
			return err
		}
		chunkFiles = append(chunkFiles, cf)
		counts = append(counts, len(buf))
		total += len(buf)
		buf = buf[:0]
		return nil
	}
	for {
		e, ok := next()
		if !ok {
			break
		}
		buf = append(buf, e)
		if len(buf) == chunkEdges {
			if err := flush(); err != nil {
				return 0, err
			}
		}
	}

	// Single-chunk fast path: the whole stream fit in one chunk's RAM —
	// shuffle in place and write directly.
	if len(chunkFiles) == 0 {
		rng.Shuffle(len(buf), func(i, j int) { buf[i], buf[j] = buf[j], buf[i] })
		return WriteFile(path, n, SliceSource(buf))
	}
	if err := flush(); err != nil {
		return 0, err
	}

	// Phase 2: weighted merge of the shuffled chunks.
	readers := make([]*bufio.Reader, len(chunkFiles))
	for i, cf := range chunkFiles {
		if _, err := cf.Seek(0, io.SeekStart); err != nil {
			return 0, err
		}
		readers[i] = bufio.NewReaderSize(cf, 1<<16)
	}
	fen := newFenwick(counts)
	remaining := total
	var mergeErr error
	// One record buffer for the whole merge: declared per call, it would
	// escape through io.ReadFull and cost an allocation per record.
	var rec [recordSize]byte
	m, err := WriteFile(path, n, func() (graph.Edge, bool) {
		if remaining == 0 || mergeErr != nil {
			return graph.Edge{}, false
		}
		c := fen.selectNth(rng.Intn(remaining))
		fen.add(c, -1)
		remaining--
		if _, err := io.ReadFull(readers[c], rec[:]); err != nil {
			mergeErr = err
			return graph.Edge{}, false
		}
		return decodeRecord(rec[:]), true
	})
	if err != nil {
		return 0, err
	}
	if mergeErr != nil {
		return 0, mergeErr
	}
	return m, nil
}

// fenwick is a Fenwick (binary indexed) tree over per-chunk remaining
// counts, supporting point updates and "find the chunk containing the
// k-th remaining edge" in O(log chunks).
type fenwick struct {
	tree []int // 1-indexed
}

func newFenwick(counts []int) *fenwick {
	f := &fenwick{tree: make([]int, len(counts)+1)}
	for i, c := range counts {
		f.add(i, c)
	}
	return f
}

func (f *fenwick) add(i, delta int) {
	for i++; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

// selectNth returns the smallest chunk index such that the prefix sum of
// remaining counts exceeds k (0-based).
func (f *fenwick) selectNth(k int) int {
	idx := 0
	bit := 1
	for bit<<1 < len(f.tree) {
		bit <<= 1
	}
	for ; bit > 0; bit >>= 1 {
		next := idx + bit
		if next < len(f.tree) && f.tree[next] <= k {
			idx = next
			k -= f.tree[next]
		}
	}
	return idx // 0-based chunk index (idx is the count of full prefixes)
}
