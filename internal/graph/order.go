package graph

import "math"

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

// shortRun is the longest run of equal keys SortOrderKeys orders by
// insertion sort. Near it, insertion's quarter of L² moves meets the cost
// of a byte radix, whose every pass also sums 256 bucket counts.
const shortRun = 96

// SortOrderKeys sorts keys into the greedy order. It radix-sorts the
// records on the key word, then orders each run of equal keys by (U, V):
// a run of at most shortRun records by insertion sort, a longer one by the
// same byte radix over the id word. Each radix skips the digits on which
// all of its records agree, since those cannot reorder them, and a run's
// id radix passes only digits on which the whole input varies too, so no
// input makes more passes than a radix over both words. The T set of a
// million-edge stream, with keys of 20 bits and sparse ties, takes the
// key's 3 passes, then insertion sorts of runs of a record or two.
//
// The passes alternate between keys and buf, which is grown to len(keys)
// when shorter. The sorted records alias one of the two; the second result
// is the buffer, for the caller to pass again next time.
func SortOrderKeys(keys, buf []OrderKey) (sorted, scratch []OrderKey) {
	n := len(keys)
	if n < 2 {
		return keys, buf
	}
	if cap(buf) < n {
		buf = make([]OrderKey, n)
	}
	// A digit varies exactly where the records' AND and OR differ.
	hiAnd, hiOr, loAnd, loOr := ^uint64(0), uint64(0), ^uint64(0), uint64(0)
	for _, k := range keys {
		hiAnd &= k.hi
		hiOr |= k.hi
		loAnd &= k.lo
		loOr |= k.lo
	}
	if hiAnd == hiOr {
		return sortRun(keys, buf[:n], loAnd^loOr), buf
	}
	src, dst := radixSort(keys, buf[:n], true, hiAnd^hiOr)
	for i := 0; i < n; {
		hi := src[i].hi
		and, or := src[i].lo, src[i].lo
		j := i + 1
		for ; j < n && src[j].hi == hi; j++ {
			and &= src[j].lo
			or |= src[j].lo
		}
		if run := sortRun(src[i:j], dst[i:j], and^or); &run[0] != &src[i] {
			copy(src[i:j], run)
		}
		i = j
	}
	return src, buf
}

// sortRun orders a run of records with equal keys by their id word, whose
// varying digits are set in varying, using other as the radix's swap
// buffer. It returns the slice holding the sorted run: run itself, or
// other after an odd number of radix passes.
func sortRun(run, other []OrderKey, varying uint64) []OrderKey {
	if len(run) <= shortRun {
		insertionSortLo(run)
		return run
	}
	sorted, _ := radixSort(run, other, false, varying)
	return sorted
}

// radixSort orders src by one word of its records, hi when hi is set and
// lo otherwise, with least-significant-digit passes over the byte digits
// set in varying, alternating between src and dst. It returns the slice
// holding the sorted records and the other one.
func radixSort(src, dst []OrderKey, hi bool, varying uint64) (sorted, other []OrderKey) {
	var digits [8]uint
	nd := 0
	for shift := uint(0); shift < 64; shift += 8 {
		if byte(varying>>shift) != 0 {
			digits[nd] = shift
			nd++
		}
	}
	if nd == 0 {
		return src, dst
	}
	// Each pass counts the next pass's digit as it scatters; bucket
	// counts do not depend on record order.
	var counts, nextCounts [256]int
	for _, k := range src {
		w := k.lo
		if hi {
			w = k.hi
		}
		counts[byte(w>>digits[0])]++
	}
	for i, shift := range digits[:nd] {
		sum := 0
		for b, c := range counts {
			counts[b] = sum
			sum += c
		}
		nextShift := digits[min(i+1, nd-1)]
		clear(nextCounts[:])
		// One loop per word keeps the word choice out of the per-record
		// path.
		if hi {
			for _, k := range src {
				b := byte(k.hi >> shift)
				dst[counts[b]] = k
				counts[b]++
				nextCounts[byte(k.hi>>nextShift)]++
			}
		} else {
			for _, k := range src {
				b := byte(k.lo >> shift)
				dst[counts[b]] = k
				counts[b]++
				nextCounts[byte(k.lo>>nextShift)]++
			}
		}
		counts = nextCounts
		src, dst = dst, src
	}
	return src, dst
}

// insertionSortLo orders a run of records with equal keys by their id
// word.
func insertionSortLo(run []OrderKey) {
	for i := 1; i < len(run); i++ {
		k := run[i]
		j := i
		for ; j > 0 && run[j-1].lo > k.lo; j-- {
			run[j] = run[j-1]
		}
		run[j] = k
	}
}
