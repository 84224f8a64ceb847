package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is the number of samples that must lie beyond a tail
// percentile before it is reported: fewer make the tail a single outlier.
const minBeyond = 10

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// best returns the lowest of repeated timings of one operation, or NaN for
// no samples. The operation does identical work on every repetition, and
// load elsewhere on the machine can only add time to it; on a shared host
// whose other tenants slow cache-resident code by up to half for seconds
// at a time, the median of the repetitions reads that load while the
// lowest reads the operation.
func best(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return slices.Min(xs)
}

// mean returns the arithmetic mean of xs, or NaN for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100),
// the number of samples ranked strictly above it, and whether that tail is
// reportable (at least minBeyond samples beyond it). xs is not modified.
func percentile(xs []float64, p float64) (v float64, beyond int, ok bool) {
	if len(xs) == 0 {
		return math.NaN(), 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p * float64(len(s)) / 100))
	rank = min(max(rank, 1), len(s))
	beyond = len(s) - rank
	return s[rank-1], beyond, beyond >= minBeyond
}

// millis and seconds convert durations to the float units the report uses.
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func seconds(d time.Duration) float64 { return d.Seconds() }

// durations converts a duration series with conv.
func durations(ds []time.Duration, conv func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = conv(d)
	}
	return out
}

// share returns num/den, or 0 when den is 0 (a layer absent from the
// workload reports a zero share, not NaN).
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
