package main

import (
	"path/filepath"
	"strings"
	"testing"
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
