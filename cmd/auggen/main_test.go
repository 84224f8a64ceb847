package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestRunFamilies(t *testing.T) {
	// run writes to os.Stdout; here we only verify flag handling and family
	// dispatch by checking error paths and the full-run happy path per
	// family, at the default -maxw and at the smallest the family accepts
	// (output correctness is covered by graph's IO round-trip tests).
	for family, minW := range map[string]string{
		"random": "1", "planted": "2", "bipartite": "1", "cycle": "2", "chain": "2", "geometric": "1",
	} {
		for _, maxw := range []string{"1000", minW} {
			if err := run([]string{"-family", family, "-n", "10", "-m", "20", "-seed", "1", "-maxw", maxw}); err != nil {
				t.Errorf("family %s at -maxw %s: %v", family, maxw, err)
			}
		}
	}
}

func TestRunUnknownFamily(t *testing.T) {
	if err := run([]string{"-family", "nope"}); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-n", "notanumber"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunRejectsBadCounts gives each family a count or weight bound it
// cannot generate from. run must refuse it with an error that names the
// flag, never panic or emit a non-positive weight.
func TestRunRejectsBadCounts(t *testing.T) {
	out := filepath.Join(t.TempDir(), "g.estream")
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-n", []string{"-family", "random", "-n", "-3"}},
		{"-n", []string{"-family", "planted", "-n", "-3"}},
		{"-m", []string{"-family", "random", "-m", "-1"}},
		{"-maxw", []string{"-family", "random", "-maxw", "0"}},
		{"-maxw", []string{"-family", "bipartite", "-maxw", "0"}},
		{"-maxw", []string{"-family", "stream", "-maxw", "0", "-binary", out}},
		{"-maxw", []string{"-family", "planted", "-n", "4", "-m", "2", "-maxw", "1"}},
		{"-maxw", []string{"-family", "chain", "-maxw", "1"}},
		{"-maxw", []string{"-family", "cycle", "-maxw", "1"}},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.flag+" ") {
			t.Errorf("run(%q) = %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}
}

// TestRunCycleOneIsOneEdge runs the cycle family at half-length 1. Its two
// edges would join the same two vertices, so the output must be the one
// edge 0–1 at the heavier weight, which is also the recorded optimum.
func TestRunCycleOneIsOneEdge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	err = run([]string{"-family", "cycle", "-n", "1", "-maxw", "1000"})
	os.Stdout = stdout
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Read(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 || g.M() != 1 || g.Edges()[0].W != 1000 {
		t.Fatalf("cycle -n 1 wrote n=%d edges %v, want one edge 0–1 of weight 1000", g.N(), g.Edges())
	}
	if !strings.Contains(string(data), "# optimum 1000\n") {
		t.Fatalf("cycle -n 1 output lacks its optimum line:\n%s", data)
	}
}
