package main

import (
	"math"
	"slices"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7, 7, 1, 9, 7}, 7},
	} {
		in := slices.Clone(c.xs)
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", in, got, c.want)
		}
		if !slices.Equal(in, c.xs) {
			t.Errorf("median reordered its input: %v", c.xs)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

func TestBest(t *testing.T) {
	xs := []float64{4, 1.5, 9, 1.5, 3}
	if got := best(xs); got != 1.5 {
		t.Errorf("best(%v) = %v, want 1.5", xs, got)
	}
	if xs[0] != 4 {
		t.Errorf("best reordered its input: %v", xs)
	}
	if !math.IsNaN(best(nil)) {
		t.Error("best of no samples is not NaN")
	}
}

func TestPercentileNearestRankAndTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n, p       int
		want       float64
		beyond     int
		reportable bool
	}{
		{100, 90, 90, 10, true},  // exactly ten beyond: reportable
		{99, 90, 90, 9, false},   // rank ⌈89.1⌉ = 90 leaves nine beyond
		{110, 90, 99, 11, true},  // rank 99
		{20, 90, 18, 2, false},   // one repetition of band-edits ticks
		{20, 50, 10, 10, true},   // the median always has half beyond
		{1, 90, 1, 0, false},     // a lone sample is its own percentile
		{200, 99, 198, 2, false}, // p99 needs a thousand samples
	} {
		xs := seq(c.n)
		v, beyond, ok := percentile(xs, float64(c.p))
		if v != c.want || beyond != c.beyond || ok != c.reportable {
			t.Errorf("percentile(1..%d, %d) = (%v, %d, %v), want (%v, %d, %v)",
				c.n, c.p, v, beyond, ok, c.want, c.beyond, c.reportable)
		}
		if xs[0] != float64(c.n) {
			t.Errorf("percentile reordered its input")
		}
	}
}

func TestShareOfZero(t *testing.T) {
	if got := share(3, 0); got != 0 {
		t.Errorf("share(3, 0) = %v, want 0", got)
	}
	if got := share(1, 4); got != 0.25 {
		t.Errorf("share(1, 4) = %v, want 0.25", got)
	}
}
