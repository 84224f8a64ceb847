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
	Size   int   `json:"size"`
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
	base := []string{"-algo", "approx", "-input", graphPath, "-snapshot", snap}

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

// TestSnapshotWarmStartDegradesToCold covers the retired driver keys —
// warm-start and the three cutover keys — end to end. A checkpoint that
// records one at a value this build no longer runs, as builds that still
// had the option wrote it, is refused and the run starts cold, reporting
// the key. A checkpoint laid out as the previous build wrote it, with all
// three cutover keys at 0, resumes.
func TestSnapshotWarmStartDegradesToCold(t *testing.T) {
	graphPath := writeTestGraph(t)
	snap := filepath.Join(t.TempDir(), "run.snap")
	base := []string{"-algo", "approx", "-input", graphPath, "-snapshot", snap}
	first := runSnapshotJSON(t, base...)

	withDriver := driverForger(t, snap)

	for _, kv := range []string{"warm-start=true", "delta-cutover=-1", "repair-cutover=4", "crossround-cutover=-1"} {
		withDriver(func(d string) string { return d + kv + "\n" })
		cold := runSnapshotJSON(t, append(base, "-resume")...)
		if cold.Model.Resumed {
			t.Fatalf("%s: snapshot was resumed", kv)
		}
		key, _, _ := strings.Cut(kv, "=")
		if !strings.Contains(cold.Model.ColdStart, key) {
			t.Errorf("%s: cold-start reason %q does not name the key", kv, cold.Model.ColdStart)
		}
		if cold.Weight != first.Weight {
			t.Errorf("%s: cold weight %d != original %d", kv, cold.Weight, first.Weight)
		}
	}

	withDriver(func(d string) string {
		return strings.Replace(d, "cache-gate=", "delta-cutover=0\nrepair-cutover=0\ncrossround-cutover=0\ncache-gate=", 1)
	})
	resumed := runSnapshotJSON(t, append(base, "-resume")...)
	if !resumed.Model.Resumed || resumed.Model.ColdStart != "" {
		t.Fatalf("parent-layout snapshot did not resume: %+v", resumed.Model)
	}
	if resumed.Weight != first.Weight {
		t.Errorf("resumed weight %d != original %d", resumed.Weight, first.Weight)
	}
}

// driverForger reads the checkpoint at snap and returns a function that
// rewrites it with its driver section passed through edit. Each call starts
// from the bytes read here, since a cold run rewrites the file.
func driverForger(t *testing.T, snap string) func(edit func(string) string) {
	t.Helper()
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	version, sections, err := graph.DecodeSnapshot(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	return func(edit func(string) string) {
		t.Helper()
		forged := append([]graph.SnapshotSection(nil), sections...)
		for i := range forged {
			if forged[i].Name == "driver" {
				forged[i].Data = []byte(edit(string(forged[i].Data)))
			}
		}
		if err := os.WriteFile(snap, graph.EncodeSnapshot(version, forged), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotNaiveCheckpointStartsCold: augrun runs the amortised
// pipeline only, so a checkpoint recording amortize=false — what builds
// that still had the -amortize flag wrote when it was left off — names a
// run under different options. Resuming it starts cold and reports the
// options mismatch; the result is unchanged, because both paths return the
// same matching. A checkpoint recording amortize=true resumes.
func TestSnapshotNaiveCheckpointStartsCold(t *testing.T) {
	graphPath := writeTestGraph(t)
	snap := filepath.Join(t.TempDir(), "run.snap")
	base := []string{"-algo", "approx", "-input", graphPath, "-snapshot", snap}
	first := runSnapshotJSON(t, base...)
	withDriver := driverForger(t, snap)

	setAmortize := func(v string) func(string) string {
		return func(d string) string {
			lines := strings.Split(d, "\n")
			for i, l := range lines {
				if strings.HasPrefix(l, "amortize=") {
					lines[i] = "amortize=" + v
				}
			}
			return strings.Join(lines, "\n")
		}
	}
	withDriver(setAmortize("false"))
	cold := runSnapshotJSON(t, append(base, "-resume")...)
	if cold.Model.Resumed {
		t.Fatal("amortize=false checkpoint was resumed")
	}
	if !strings.Contains(cold.Model.ColdStart, "different options") {
		t.Errorf("cold-start reason %q does not name the options", cold.Model.ColdStart)
	}
	if cold.Weight != first.Weight || cold.Size != first.Size {
		t.Errorf("cold run weight %d size %d, original %d %d", cold.Weight, cold.Size, first.Weight, first.Size)
	}

	withDriver(setAmortize("true"))
	resumed := runSnapshotJSON(t, append(base, "-resume")...)
	if !resumed.Model.Resumed || resumed.Model.ColdStart != "" {
		t.Fatalf("amortize=true checkpoint did not resume: %+v", resumed.Model)
	}
	if resumed.Weight != first.Weight || resumed.Size != first.Size {
		t.Errorf("resumed weight %d size %d, original %d %d", resumed.Weight, resumed.Size, first.Weight, first.Size)
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
