package graph

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// compareGreedy is the greedy order written as a comparison: key
// descending, then U ascending, then V ascending.
func compareGreedy(a, b OrderKey) int {
	switch {
	case a.Key() != b.Key():
		if a.Key() > b.Key() {
			return -1
		}
		return 1
	case a.U() != b.U():
		return a.U() - b.U()
	default:
		return a.V() - b.V()
	}
}

// topID returns 2^32−1, the largest id an OrderKey holds. A 32-bit int
// cannot hold it, so there the test is skipped.
func topID(t *testing.T) int {
	if strconv.IntSize < 64 {
		t.Skip("ids up to 2^32-1 need a 64-bit int")
	}
	top := uint64(math.MaxUint32)
	return int(top)
}

// checkRadixOrder sorts keys with SortOrderKeys over buf and with
// slices.SortFunc under compareGreedy, and fails unless the two agree
// record for record. It returns the buffer for reuse.
func checkRadixOrder(t *testing.T, label string, keys, buf []OrderKey) []OrderKey {
	t.Helper()
	want := slices.Clone(keys)
	slices.SortFunc(want, compareGreedy)
	got, buf := SortOrderKeys(keys, buf)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: radix order differs from the comparison sort:\n got %v\nwant %v", label, got, want)
	}
	return buf
}

func TestOrderKeyRoundTrip(t *testing.T) {
	top := topID(t)
	for _, key := range []Weight{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64} {
		for _, id := range []int{0, 1, top/2 + 1, top} {
			k := MakeOrderKey(key, id, top-id)
			if k.Key() != key || k.U() != id || k.V() != top-id {
				t.Fatalf("MakeOrderKey(%d, %d, %d) reads back (%d, %d, %d)",
					key, id, top-id, k.Key(), k.U(), k.V())
			}
		}
	}
}

func TestMakeOrderKeyRejectsWideIDs(t *testing.T) {
	top := topID(t)
	for _, ids := range [][2]int{{top + 1, 0}, {0, top + 1}, {-1, 0}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MakeOrderKey(1, %d, %d) did not panic", ids[0], ids[1])
				}
			}()
			MakeOrderKey(1, ids[0], ids[1])
		}()
	}
}

// TestSortOrderKeysMatchesComparison pins the radix sort to the comparison
// sort on the shapes that exercise digit skipping: no records, one record,
// all records equal (no varying digit), negative keys and ids at the top of
// the uint32 range (varying top digits), and a large random set with many
// ties. One buffer is reused across every case.
func TestSortOrderKeysMatchesComparison(t *testing.T) {
	top := topID(t)
	rng := rand.New(rand.NewSource(1))
	random := func(m int, maxKey int64, maxID int) []OrderKey {
		keys := make([]OrderKey, m)
		for i := range keys {
			keys[i] = MakeOrderKey(1+rng.Int63n(maxKey), rng.Intn(maxID), rng.Intn(maxID))
		}
		return keys
	}
	cases := []struct {
		name string
		keys []OrderKey
	}{
		{"empty", nil},
		{"single", []OrderKey{MakeOrderKey(7, 3, 4)}},
		{"all equal", []OrderKey{MakeOrderKey(5, 1, 2), MakeOrderKey(5, 1, 2), MakeOrderKey(5, 1, 2)}},
		{"negative keys", []OrderKey{
			MakeOrderKey(-1, 0, 1), MakeOrderKey(math.MinInt64, 0, 1), MakeOrderKey(0, 0, 1),
			MakeOrderKey(math.MaxInt64, 0, 1), MakeOrderKey(1, 0, 1), MakeOrderKey(-1, 0, 0),
		}},
		{"top ids", []OrderKey{
			MakeOrderKey(3, top, 0), MakeOrderKey(3, 0, top), MakeOrderKey(3, top, top),
			MakeOrderKey(3, top-1, 5), MakeOrderKey(4, top, 1),
		}},
		{"unit keys", random(5000, 1, 300)},
		{"random ties", random(20000, 16, 1000)},
		{"wide keys", random(20000, math.MaxInt64, 1<<20)},
		{"short after long", random(3, 1<<40, 10)},
	}
	var buf []OrderKey
	for _, c := range cases {
		buf = checkRadixOrder(t, c.name, c.keys, buf)
	}
}

// FuzzEdgeOrder: any set of records comes out of the radix sort in the
// order slices.SortFunc gives them under the greedy comparison. The input
// bytes are read as 16-byte records: key int64, u uint32, v uint32.
func FuzzEdgeOrder(f *testing.F) {
	record := func(key int64, u, v uint32) []byte {
		b := binary.LittleEndian.AppendUint64(nil, uint64(key))
		b = binary.LittleEndian.AppendUint32(b, u)
		return binary.LittleEndian.AppendUint32(b, v)
	}
	f.Add([]byte{})
	f.Add(record(5, 1, 2))
	f.Add(slices.Concat(record(5, 1, 2), record(5, 1, 2), record(5, 0, 9)))
	f.Add(slices.Concat(record(-1, 7, 7), record(math.MinInt64, 0, 0),
		record(math.MaxInt64, math.MaxUint32, 0), record(0, 0, math.MaxUint32)))
	f.Fuzz(func(t *testing.T, data []byte) {
		topID(t)
		keys := make([]OrderKey, 0, len(data)/16)
		for ; len(data) >= 16; data = data[16:] {
			keys = append(keys, MakeOrderKey(int64(binary.LittleEndian.Uint64(data)),
				int(binary.LittleEndian.Uint32(data[8:])), int(binary.LittleEndian.Uint32(data[12:]))))
		}
		checkRadixOrder(t, "fuzz", keys, nil)
	})
}
