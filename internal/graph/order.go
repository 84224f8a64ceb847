package graph

import (
	"math"
	"slices"
)

// OrderKey is one 16-byte record of the greedy order: key descending, then
// U ascending, then V ascending. The order is total on distinct (key, U, V)
// triples, so every correct sort of the same records returns them in the
// same sequence; SortOrderKeys is the one implementation of it.
//
// hi holds the key with its sign bit flipped (which maps int64 onto uint64
// order-preservingly) and then complemented (descending); lo holds U in its
// upper and V in its lower 32 bits. Records therefore compare as the
// unsigned pair (hi, lo), which is what lets a radix sort order them.
type OrderKey struct {
	hi, lo uint64
}

// keyFlip flips the sign bit of a key and complements the result.
const keyFlip = math.MaxInt64

// MakeOrderKey packs (key, u, v) into a sort record. Vertex ids must lie in
// [0, 2^32), the id width of the stream record format; an id outside it
// would silently fold onto another, so it panics instead.
func MakeOrderKey(key Weight, u, v int) OrderKey {
	if uint64(u)|uint64(v) > math.MaxUint32 {
		panic("graph: order key vertex id outside [0, 2^32)")
	}
	return OrderKey{hi: uint64(key) ^ keyFlip, lo: uint64(u)<<32 | uint64(v)}
}

// Key returns the key the record was made from.
func (k OrderKey) Key() Weight { return Weight(k.hi ^ keyFlip) }

// U returns the first vertex id.
func (k OrderKey) U() int { return int(k.lo >> 32) }

// V returns the second vertex id.
func (k OrderKey) V() int { return int(uint32(k.lo)) }

// SortOrderKeys sorts keys into the greedy order with a least-significant-
// digit radix sort over byte digits. A digit on which all records agree
// cannot reorder them, so it is skipped: sorting a million records whose
// keys and ids span 20 and 17 bits makes 9 passes, not 16.
//
// The passes alternate between keys and buf, which is grown to len(keys)
// when shorter. The sorted records alias one of the two; the second result
// is the buffer, for the caller to pass again next time.
func SortOrderKeys(keys, buf []OrderKey) (sorted, scratch []OrderKey) {
	if len(keys) < 2 {
		return keys, buf
	}
	// Bucket counts do not depend on record order, so one pass counts
	// every digit (unrolled: the compiler does not unroll loops). Digit d
	// is byte d of lo for d < 8 and byte d−8 of hi above.
	var counts [16][256]int
	for _, k := range keys {
		lo, hi := k.lo, k.hi
		counts[0][byte(lo)]++
		counts[1][byte(lo>>8)]++
		counts[2][byte(lo>>16)]++
		counts[3][byte(lo>>24)]++
		counts[4][byte(lo>>32)]++
		counts[5][byte(lo>>40)]++
		counts[6][byte(lo>>48)]++
		counts[7][byte(lo>>56)]++
		counts[8][byte(hi)]++
		counts[9][byte(hi>>8)]++
		counts[10][byte(hi>>16)]++
		counts[11][byte(hi>>24)]++
		counts[12][byte(hi>>32)]++
		counts[13][byte(hi>>40)]++
		counts[14][byte(hi>>48)]++
		counts[15][byte(hi>>56)]++
	}
	if cap(buf) < len(keys) {
		buf = make([]OrderKey, len(keys))
	}
	src, dst := keys, buf[:len(keys)]
	for d := uint(0); d < 16; d++ {
		next := &counts[d]
		if slices.Contains(next[:], len(keys)) {
			continue // one bucket holds every record
		}
		sum := 0
		for b, c := range next {
			next[b] = sum
			sum += c
		}
		// One loop per word keeps the digit's word choice out of the
		// per-record path.
		if d < 8 {
			shift := 8 * d
			for _, k := range src {
				b := byte(k.lo >> shift)
				dst[next[b]] = k
				next[b]++
			}
		} else {
			shift := 8 * (d - 8)
			for _, k := range src {
				b := byte(k.hi >> shift)
				dst[next[b]] = k
				next[b]++
			}
		}
		src, dst = dst, src
	}
	return src, buf
}
