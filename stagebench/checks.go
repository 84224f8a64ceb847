package main

import (
	"bufio"
	"fmt"
	"iter"
	"os"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/localratio"
)

// checkMatching verifies a matching against the graph it was computed on,
// given as the sequence of its edges: the matching's own invariants, and
// that every matched pair is an edge carrying that edge's weight (with
// parallel edges, any one of them).
func checkMatching(m *graph.Matching, n int, edges iter.Seq[graph.Edge]) error {
	if m.N() != n {
		return fmt.Errorf("matching spans %d vertices, graph %d", m.N(), n)
	}
	if err := m.Validate(); err != nil {
		return err
	}
	missing := make(map[graph.Key]graph.Weight, m.Size())
	for _, e := range m.Edges() {
		missing[e.EdgeKey()] = e.W
	}
	for e := range edges {
		if w, ok := missing[e.EdgeKey()]; ok && w == e.W {
			delete(missing, e.EdgeKey())
		}
	}
	for k, w := range missing {
		return fmt.Errorf("matched pair %v (weight %d) is not an edge of the graph with that weight", k, w)
	}
	return nil
}

// coverBound returns Σα of a local-ratio pass over edges: the potentials
// dominate every edge weight, so this LP-dual bound is at least the
// maximum matching weight.
func coverBound(n int, edges iter.Seq[graph.Edge]) graph.Weight {
	p := localratio.New(n)
	for e := range edges {
		p.Process(e)
	}
	return p.CoverBound()
}

// certRatio is weight divided by the cover bound: a certified lower bound
// on the approximation ratio.
func certRatio(weight, bound graph.Weight) float64 {
	return share(float64(weight), float64(bound))
}

// matesOf returns the mate of every vertex, the identity of a matching
// that repetitions on one seed must reproduce.
func matesOf(m *graph.Matching) []int {
	out := make([]int, m.N())
	for v := range out {
		out[v] = m.Mate(v)
	}
	return out
}

// resetPeakRSS sets the kernel's peak-RSS mark (VmHWM) of this process
// back to its current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
