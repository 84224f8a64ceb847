package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runWithInput(t *testing.T, input string, args ...string) error {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "bench")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(input); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return run(args, f)
}

const sample = `goos: linux
BenchmarkSolve              	      40	  28350723 ns/op	      8588 final-weight
BenchmarkSolveAmortized-4   	     121	   9811856 ns/op	      8588 final-weight
PASS
`

const sampleMem = `goos: linux
BenchmarkSolve              	      40	  28350723 ns/op	      8588 final-weight	14608856 B/op	   63498 allocs/op
BenchmarkSolveAmortized-4   	     121	   9811856 ns/op	      8588 final-weight	 3052682 B/op	   19764 allocs/op
PASS
`

func TestSpeedupPasses(t *testing.T) {
	if err := runWithInput(t, sample,
		"-speedup", "BenchmarkSolveAmortized/BenchmarkSolve>=1.2"); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedupFails(t *testing.T) {
	err := runWithInput(t, sample,
		"-speedup", "BenchmarkSolveAmortized/BenchmarkSolve>=5.0")
	if err == nil || !strings.Contains(err.Error(), "faster") {
		t.Fatalf("want speedup failure, got %v", err)
	}
}

func TestMissingBenchmark(t *testing.T) {
	if err := runWithInput(t, sample, "-speedup", "BenchmarkNope/BenchmarkSolve>=1"); err == nil {
		t.Fatal("missing benchmark accepted")
	}
}

// TestBaselineBounds pins the PR 9 gate policy: absolute baseline bounds
// are warning-severity — a breach lands in the -out report with ok=false
// but never fails the run, because absolute ns/op drifts 10–25% across
// container bins with no code change (docs/OPERATIONS.md). Only same-run
// speedup ratios gate.
func TestBaselineBounds(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if err := os.WriteFile(base, []byte(`{"benchmarks":[
		{"name":"BenchmarkSolve","after":{"ns_per_op":30000000}},
		{"name":"BenchmarkSolveAmortized","after":{"ns_per_op":10000000}}
	]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runWithInput(t, sample, "-baseline", base, "-slack", "2"); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "result.json")
	if err := runWithInput(t, sample, "-baseline", base, "-slack", "0.5", "-out", out); err != nil {
		t.Fatalf("baseline breach failed the run (want warning severity): %v", err)
	}
	rep := readReport(t, out)
	if !rep.Pass {
		t.Error("warning-only breaches marked the run failed")
	}
	breached := 0
	for _, c := range rep.Checks {
		if c.Kind != "time-baseline" {
			continue
		}
		if c.Severity != "warn" {
			t.Errorf("time-baseline severity %q, want warn", c.Severity)
		}
		if !c.OK {
			breached++
		}
	}
	if breached == 0 {
		t.Error("breached baseline left no ok=false warning in the report")
	}
}

type testReport struct {
	Benchmarks map[string]struct {
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
		Samples     int     `json:"samples"`
	} `json:"benchmarks"`
	Checks []struct {
		Kind     string `json:"kind"`
		Severity string `json:"severity"`
		OK       bool   `json:"ok"`
	} `json:"checks"`
	Pass bool `json:"pass"`
}

func readReport(t *testing.T, path string) testReport {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep testReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad report JSON: %v", err)
	}
	return rep
}

// TestSpeedupGatesOnMedian: under go test -count=N every benchmark prints N
// lines, and the gate and the report take the median of each benchmark's
// lines. The last RepairHK line is an outlier that alone would fail the
// 1.4x gate (1010/1100); the medians pass it (1000/700). BenchmarkSolve's
// two lines pin the even-count rule, the mean of the middle pair.
func TestSpeedupGatesOnMedian(t *testing.T) {
	const repeated = `BenchmarkRepairHK-2           	 1000000	       690 ns/op	       0 allocs/op
BenchmarkRepairHK-2           	 1000000	       700 ns/op	       0 allocs/op
BenchmarkRepairHK-2           	 1000000	      1100 ns/op	       2 allocs/op
BenchmarkRepairHKBaseline-2   	 1000000	      1000 ns/op	       3 allocs/op
BenchmarkRepairHKBaseline-2   	 1000000	       980 ns/op	       3 allocs/op
BenchmarkRepairHKBaseline-2   	 1000000	      1010 ns/op	       3 allocs/op
BenchmarkSolve-2              	      40	  10000000 ns/op	     100 allocs/op
BenchmarkSolve-2              	      40	  30000000 ns/op	     300 allocs/op
PASS
`
	out := filepath.Join(t.TempDir(), "result.json")
	if err := runWithInput(t, repeated,
		"-speedup", "BenchmarkRepairHK/BenchmarkRepairHKBaseline>=1.4", "-out", out); err != nil {
		t.Fatalf("median ratio 1000/700 failed the 1.4x gate: %v", err)
	}
	rep := readReport(t, out)
	for name, want := range map[string]struct {
		ns      float64
		allocs  int64
		samples int
	}{
		"BenchmarkRepairHK":         {700, 0, 3},
		"BenchmarkRepairHKBaseline": {1000, 3, 3},
		"BenchmarkSolve":            {20000000, 200, 2},
	} {
		got := rep.Benchmarks[name]
		if got.NsPerOp != want.ns || got.AllocsPerOp != want.allocs || got.Samples != want.samples {
			t.Errorf("%s: report %+v, want median %v ns/op, %d allocs/op over %d samples",
				name, got, want.ns, want.allocs, want.samples)
		}
	}
}

func TestNoInput(t *testing.T) {
	if err := runWithInput(t, "PASS\n"); err == nil {
		t.Fatal("empty bench output accepted")
	}
}

func writeBaseline(t *testing.T, body string) string {
	t.Helper()
	base := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(base, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return base
}

func TestAllocsBounds(t *testing.T) {
	base := writeBaseline(t, `{"benchmarks":[
		{"name":"BenchmarkSolve","after":{"ns_per_op":30000000,"allocs_per_op":63000}},
		{"name":"BenchmarkSolveAmortized","after":{"ns_per_op":10000000,"allocs_per_op":19000}}
	]}`)
	if err := runWithInput(t, sampleMem, "-baseline", base, "-allocslack", "1.5"); err != nil {
		t.Fatal(err)
	}
	// An allocs breach is warning-severity like the time bound: recorded,
	// never an exit failure.
	out := filepath.Join(t.TempDir(), "result.json")
	if err := runWithInput(t, sampleMem, "-baseline", base, "-allocslack", "1.0", "-out", out); err != nil {
		t.Fatalf("allocs breach failed the run (want warning severity): %v", err)
	}
	rep := readReport(t, out)
	breached := 0
	for _, c := range rep.Checks {
		if c.Kind == "allocs-baseline" && !c.OK {
			if c.Severity != "warn" {
				t.Errorf("allocs-baseline severity %q, want warn", c.Severity)
			}
			breached++
		}
	}
	if breached == 0 {
		t.Error("breached allocs bound left no ok=false warning in the report")
	}
	// Without -benchmem input the allocs check must not fire (no data).
	if err := runWithInput(t, sample, "-baseline", base, "-allocslack", "1.0"); err != nil {
		t.Fatalf("allocs check fired without allocation data: %v", err)
	}
}

func TestOutReport(t *testing.T) {
	base := writeBaseline(t, `{"benchmarks":[
		{"name":"BenchmarkSolve","after":{"ns_per_op":30000000,"allocs_per_op":63000}}
	]}`)
	out := filepath.Join(t.TempDir(), "result.json")
	if err := runWithInput(t, sampleMem,
		"-speedup", "BenchmarkSolveAmortized/BenchmarkSolve>=1.2",
		"-baseline", base, "-allocslack", "1.5", "-out", out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Benchmarks map[string]struct {
			NsPerOp     float64 `json:"ns_per_op"`
			AllocsPerOp int64   `json:"allocs_per_op"`
		} `json:"benchmarks"`
		Checks []struct {
			Kind string `json:"kind"`
			OK   bool   `json:"ok"`
		} `json:"checks"`
		Pass bool `json:"pass"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad report JSON: %v", err)
	}
	if !rep.Pass {
		t.Error("report marks passing run as failed")
	}
	if m := rep.Benchmarks["BenchmarkSolveAmortized"]; m.AllocsPerOp != 19764 {
		t.Errorf("allocs_per_op = %d, want 19764", m.AllocsPerOp)
	}
	kinds := map[string]bool{}
	for _, c := range rep.Checks {
		kinds[c.Kind] = true
		if !c.OK {
			t.Errorf("check %+v failed in passing run", c)
		}
	}
	for _, k := range []string{"speedup", "time-baseline", "allocs-baseline"} {
		if !kinds[k] {
			t.Errorf("report missing %s check", k)
		}
	}
	// A failing run still writes the report, with pass=false.
	if err := runWithInput(t, sampleMem,
		"-speedup", "BenchmarkSolveAmortized/BenchmarkSolve>=9.9", "-out", out); err == nil {
		t.Fatal("want speedup failure")
	}
	raw, err = os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Error("failing run reported pass=true")
	}
}
