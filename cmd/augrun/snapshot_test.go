package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

// snapshotJSON is the slice of the -json output the snapshot tests consume.
type snapshotJSON struct {
	Weight int64 `json:"weight"`
	Model  struct {
		Resumed      bool   `json:"snapshot-resumed"`
		ResumedRound int    `json:"snapshot-resumed-round"`
		ColdStart    string `json:"snapshot-cold-start"`
	} `json:"model"`
}

func runSnapshotJSON(t *testing.T, args ...string) snapshotJSON {
	t.Helper()
	var out bytes.Buffer
	if err := run(append(args, "-json"), nil, &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	var parsed snapshotJSON
	if err := json.Unmarshal(out.Bytes(), &parsed); err != nil {
		t.Fatalf("output not JSON: %v\n%s", err, out.String())
	}
	return parsed
}

// TestSnapshotResumeAndCorruptDegrade covers the -snapshot/-resume CLI
// surface end to end: a run persists a checkpoint, a -resume run picks it
// up warm with the identical result, and a corrupted checkpoint degrades
// the resume to a cold start — detected, reported, never an error, and
// still the identical result (cold and warm runs are bit-identical by the
// snapshot design).
func TestSnapshotResumeAndCorruptDegrade(t *testing.T) {
	graphPath := writeTestGraph(t)
	snap := filepath.Join(t.TempDir(), "run.snap")
	base := []string{"-algo", "approx", "-amortize", "-input", graphPath, "-snapshot", snap}

	first := runSnapshotJSON(t, base...)
	if first.Model.Resumed {
		t.Fatal("first run claims to have resumed")
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("no snapshot persisted: %v", err)
	}

	resumed := runSnapshotJSON(t, append(base, "-resume")...)
	if !resumed.Model.Resumed {
		t.Fatalf("second run did not resume: %+v", resumed.Model)
	}
	if resumed.Model.ResumedRound < 1 {
		t.Errorf("resumed-round = %d, want >= 1", resumed.Model.ResumedRound)
	}
	if resumed.Model.ColdStart != "" {
		t.Errorf("resumed run reports cold start: %q", resumed.Model.ColdStart)
	}
	if resumed.Weight != first.Weight {
		t.Errorf("resumed weight %d != original %d", resumed.Weight, first.Weight)
	}

	// Corrupt one byte of the checkpoint; the resume must degrade to cold
	// — reported via the counters, not an error — and still converge to
	// the same result.
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x04
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cold := runSnapshotJSON(t, append(base, "-resume")...)
	if cold.Model.Resumed {
		t.Fatal("corrupted snapshot was resumed")
	}
	if cold.Model.ColdStart == "" {
		t.Fatal("cold start not reported for corrupted snapshot")
	}
	if !strings.Contains(cold.Model.ColdStart, "checksum") {
		t.Errorf("cold-start reason %q does not name the checksum", cold.Model.ColdStart)
	}
	if cold.Weight != first.Weight {
		t.Errorf("cold weight %d != original %d", cold.Weight, first.Weight)
	}

	// The degraded run rewrote a healthy checkpoint: resuming again works.
	again := runSnapshotJSON(t, append(base, "-resume")...)
	if !again.Model.Resumed {
		t.Errorf("snapshot not repaired by the cold run: %+v", again.Model)
	}

	// A missing snapshot likewise degrades to cold rather than erroring.
	if err := os.Remove(snap); err != nil {
		t.Fatal(err)
	}
	missing := runSnapshotJSON(t, append(base, "-resume")...)
	if missing.Model.Resumed || missing.Model.ColdStart == "" {
		t.Errorf("missing snapshot: %+v", missing.Model)
	}
}

// TestSnapshotForeignGraphDegradesToCold: a checkpoint resumed against a
// different input graph is refused and the run starts cold on the new
// graph.
func TestSnapshotForeignGraphDegradesToCold(t *testing.T) {
	graphPath := writeTestGraph(t)
	otherPath := filepath.Join(t.TempDir(), "other.txt")
	if err := os.WriteFile(otherPath, []byte("p 4 3\n0 1 9\n1 2 5\n2 3 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "run.snap")

	runSnapshotJSON(t, "-algo", "approx", "-input", graphPath, "-snapshot", snap)
	foreign := runSnapshotJSON(t, "-algo", "approx", "-input", otherPath, "-snapshot", snap, "-resume")
	if foreign.Model.Resumed {
		t.Fatal("checkpoint resumed against a different graph")
	}
	if !strings.Contains(foreign.Model.ColdStart, "different graph") {
		t.Errorf("cold-start reason %q does not name the graph mismatch", foreign.Model.ColdStart)
	}
}

// TestSnapshotWarmStartDegradesToCold: a checkpoint whose driver section
// records warm-start=true, as builds that still had the option wrote it,
// is refused and the run starts cold, reporting the retired option.
func TestSnapshotWarmStartDegradesToCold(t *testing.T) {
	graphPath := writeTestGraph(t)
	snap := filepath.Join(t.TempDir(), "run.snap")
	base := []string{"-algo", "approx", "-amortize", "-input", graphPath, "-snapshot", snap}
	first := runSnapshotJSON(t, base...)

	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	version, sections, err := graph.DecodeSnapshot(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sections {
		if sections[i].Name == "driver" {
			sections[i].Data = append(sections[i].Data, "warm-start=true\n"...)
		}
	}
	if err := os.WriteFile(snap, graph.EncodeSnapshot(version, sections), 0o644); err != nil {
		t.Fatal(err)
	}

	cold := runSnapshotJSON(t, append(base, "-resume")...)
	if cold.Model.Resumed {
		t.Fatal("warm-start snapshot was resumed")
	}
	if !strings.Contains(cold.Model.ColdStart, "warm-start") {
		t.Errorf("cold-start reason %q does not name the warm-start option", cold.Model.ColdStart)
	}
	if cold.Weight != first.Weight {
		t.Errorf("cold weight %d != original %d", cold.Weight, first.Weight)
	}
}

// TestSnapshotFlagValidation pins the CLI contract around the new flags.
func TestSnapshotFlagValidation(t *testing.T) {
	graphPath := writeTestGraph(t)
	if err := run([]string{"-algo", "approx", "-input", graphPath, "-resume"}, nil, &bytes.Buffer{}); err == nil {
		t.Error("-resume without -snapshot accepted")
	}
	if err := run([]string{"-algo", "greedy", "-input", graphPath, "-snapshot", "x.snap"}, nil, &bytes.Buffer{}); err == nil {
		t.Error("-snapshot with a non-approx algorithm accepted")
	}
}
