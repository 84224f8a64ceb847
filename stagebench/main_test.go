package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestBenchmarkJSONListsTheReportedMetrics pins the repository's
// BENCHMARK.json to the metrics this command reports.
func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), command %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command implements %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "band-edits", "--trace", "2"},
		{"--workload", "band-edits", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q", args, code, out.String())
		}
	}
}

// TestRunPrintsResultLine runs band-edits end to end and parses the result
// line.
func TestRunPrintsResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full band-edits workload")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "band-edits", "--seed", "2", "--seconds", "0.01"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	res := lastResult(t, out.String())
	// The warm-up instance and minCalls passes over every instance, each
	// session a converge plus its ticks.
	if !res.Correct || res.Failed != 0 || res.Attempted != (1+minCalls*bandInstances)*(1+bandTicks) {
		t.Errorf("result %+v", res)
	}
	for _, d := range endToEnd {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit || m.Value <= 0 {
			t.Errorf("metric %s: %+v (present %v)", d.name, m, ok)
		}
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
}

// lastResult parses the result line of a run's output.
func lastResult(t *testing.T, out string) jsonResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFailedTickCountsAsFailure measures two small band instances, the
// second with a batch that deletes an absent edge: every session of it
// records one failed operation, the run carries on, and the result line
// reports the failures next to metrics from the healthy instance.
func TestFailedTickCountsAsFailure(t *testing.T) {
	g := graph.BandedWeights(40, 320, bandLow, rand.New(rand.NewSource(1))).G
	good, err := bandEdits(g, 2, bandBatchEdits, bandLow, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	bad := []*core.MutationBatch{good[0], ladderBatches(g)[1]} // deletes an edge g lacks
	in := []bandInstance{{g: g, batches: good, rngSeed: 3}, {g: g, batches: bad, rngSeed: 4}}
	rep := newReport()
	if err := measureBand(config{budget: time.Millisecond}, in, rep); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := rep.write(&out, "band-edits", endToEnd); err != nil {
		t.Fatal(err)
	}
	res := lastResult(t, out.String())
	// The warm-up session of the healthy instance, then minCalls passes in
	// which each instance attempts its converge and two ticks, the second
	// of which fails on the bad instance.
	if res.Correct || res.Failed != minCalls || res.Attempted != 3+minCalls*(3+3) {
		t.Errorf("result %+v, want %d failed of %d", res, minCalls, 3+minCalls*6)
	}
	for _, d := range endToEnd {
		// The set-up is runBand's, which the test skips.
		if m := res.Metrics[d.name]; m.Value <= 0 && d.name != "setup_s" {
			t.Errorf("metric %s = %v", d.name, m.Value)
		}
	}
}
