package core

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestCountingSourceReplay pins the property the whole Rng-persistence
// story rests on: math/rand's seeded source advances exactly one internal
// step per Int63 or Uint64 call, so a replay that burns the recorded draw
// count with Uint64 alone lands in the identical state no matter which mix
// of calls produced the count.
func TestCountingSourceReplay(t *testing.T) {
	const seed = 42
	cs := NewCountingSource(seed)
	rng := rand.New(cs)
	// A deliberately mixed draw history, as the driver produces (Intn for
	// bipartitions, Int63 for factory seeds, Float64 internally).
	for i := 0; i < 57; i++ {
		switch i % 4 {
		case 0:
			rng.Int63()
		case 1:
			rng.Intn(97)
		case 2:
			rng.Uint64()
		default:
			rng.Float64()
		}
	}
	draws := cs.Draws()
	if draws == 0 {
		t.Fatal("no draws counted")
	}
	replay := rand.New(ReplayCountingSource(seed, draws))
	for i := 0; i < 32; i++ {
		if a, b := rng.Int63(), replay.Int63(); a != b {
			t.Fatalf("draw %d after replay: %d vs %d", i, a, b)
		}
	}
}

// TestCountingSourceTransparent: wrapping the source must not change the
// stream — a checkpointed run and a plain run share every random decision.
func TestCountingSourceTransparent(t *testing.T) {
	a := rand.New(NewCountingSource(7))
	b := rand.New(rand.NewSource(7))
	for i := 0; i < 64; i++ {
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("draw %d: counting %d vs plain %d", i, x, y)
		}
	}
}

func snapshotTestInstance(t *testing.T) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(1234))
	return graph.RandomGraph(60, 200, 64, rng).G
}

func snapshotTestOptions() Options {
	return Options{Amortize: true, MaxRounds: 12, Patience: 4}
}

func TestCheckpointRoundTrip(t *testing.T) {
	g := snapshotTestInstance(t)
	m := graph.NewMatching(g.N())
	if err := m.Add(g.Edges()[0]); err != nil {
		t.Fatal(err)
	}
	cp := &Checkpoint{
		Graph: g, M: m,
		Round: 5, Stalled: 2,
		Stats:   Stats{Rounds: 5, SolverCalls: 321, FallbackSolves: 2, Gain: 777},
		RngSeed: -9, RngDraws: 12345,
		Meta: MetaOf(snapshotTestOptions()),
	}
	dec, err := DecodeCheckpoint(EncodeCheckpoint(cp))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Round != cp.Round || dec.Stalled != cp.Stalled ||
		dec.RngSeed != cp.RngSeed || dec.RngDraws != cp.RngDraws {
		t.Fatalf("driver state %+v, want %+v", dec, cp)
	}
	if dec.Stats != cp.Stats {
		t.Fatalf("stats %+v, want %+v", dec.Stats, cp.Stats)
	}
	if dec.Meta != cp.Meta {
		t.Fatalf("meta %+v, want %+v", dec.Meta, cp.Meta)
	}
	if dec.Graph.N() != g.N() || dec.Graph.M() != g.M() {
		t.Fatalf("graph %d/%d, want %d/%d", dec.Graph.N(), dec.Graph.M(), g.N(), g.M())
	}
	if !equalMatchings(dec.M, m) {
		t.Fatal("matching changed across the round trip")
	}
}

func equalMatchings(a, b *graph.Matching) bool {
	if a.N() != b.N() || a.Size() != b.Size() || a.Weight() != b.Weight() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		if a.Mate(v) != b.Mate(v) || a.EdgeWeightAt(v) != b.EdgeWeightAt(v) {
			return false
		}
	}
	return true
}

// TestSolveCheckpointedMatchesSolve: threading the Rng through the counting
// source and saving checkpoints is free of behaviour change — matching and
// stats equal a plain Solve on the same seed.
func TestSolveCheckpointedMatchesSolve(t *testing.T) {
	g := snapshotTestInstance(t)
	const seed = 5
	opts := snapshotTestOptions()

	plain := opts
	plain.Rng = rand.New(rand.NewSource(seed))
	want, err := Solve(g, nil, plain)
	if err != nil {
		t.Fatal(err)
	}

	saves := 0
	got, err := SolveCheckpointed(g, nil, opts, seed, func(cp *Checkpoint) error {
		saves++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if saves == 0 {
		t.Fatal("save callback never ran")
	}
	if !equalMatchings(got.M, want.M) {
		t.Fatalf("checkpointed matching differs: weight %d vs %d", got.M.Weight(), want.M.Weight())
	}
	if got.Stats != want.Stats {
		t.Fatalf("checkpointed stats differ:\n got %+v\nwant %+v", got.Stats, want.Stats)
	}
}

// TestKillResumeBitIdentical is the headline snapshot property: kill a
// Solve after any round, decode the bytes it last persisted, resume in a
// "new process", and the final matching and stats are bit-identical to the
// uninterrupted run — warm in the sense that completed rounds are not
// re-run (the resumed stats count each round exactly once). The one
// carve-out is the chain-effort counters (see chainEffortNormalized): the
// cross-round delta/repair baselines live in RAM arenas a checkpoint cannot
// carry, so a resumed run restarts each class chain and may count fewer —
// never more — chained builds while producing the identical matching.
func TestKillResumeBitIdentical(t *testing.T) {
	g := snapshotTestInstance(t)
	const seed = 11
	opts := snapshotTestOptions()

	full, err := SolveCheckpointed(g, nil, opts, seed, func(*Checkpoint) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Rounds < 3 {
		t.Fatalf("test instance converged in %d rounds; need 3+ for a mid-run kill", full.Stats.Rounds)
	}

	for _, killAfter := range []int{1, 2, full.Stats.Rounds - 1} {
		var persisted []byte
		_, err := SolveCheckpointed(g, nil, opts, seed, func(cp *Checkpoint) error {
			if cp.Round <= killAfter {
				persisted = EncodeCheckpoint(cp)
			}
			if cp.Round == killAfter {
				return errors.New("killed")
			}
			return nil
		})
		if err == nil {
			t.Fatalf("killAfter=%d: run was not killed", killAfter)
		}

		cp, err := DecodeCheckpoint(persisted)
		if err != nil {
			t.Fatalf("killAfter=%d: decode: %v", killAfter, err)
		}
		resumed, err := ResumeSolve(cp, opts, nil)
		if err != nil {
			t.Fatalf("killAfter=%d: resume: %v", killAfter, err)
		}
		if !equalMatchings(resumed.M, full.M) {
			t.Fatalf("killAfter=%d: resumed matching differs: weight %d vs %d",
				killAfter, resumed.M.Weight(), full.M.Weight())
		}
		if chainEffortNormalized(resumed.Stats) != chainEffortNormalized(full.Stats) {
			t.Fatalf("killAfter=%d: resumed stats differ:\n got %+v\nwant %+v",
				killAfter, resumed.Stats, full.Stats)
		}
		// Losing the in-memory chain can only cost reuse, never invent it.
		if resumed.Stats.DeltaBuilds > full.Stats.DeltaBuilds ||
			resumed.Stats.CrossRoundDeltaBuilds > full.Stats.CrossRoundDeltaBuilds ||
			resumed.Stats.RepairSolves > full.Stats.RepairSolves {
			t.Fatalf("killAfter=%d: resumed run chained MORE than the uninterrupted one:\n got %+v\nwant %+v",
				killAfter, resumed.Stats, full.Stats)
		}
	}
}

// chainEffortNormalized zeroes the amortisation-effort counters that depend
// on retained in-memory arenas (the delta and repair chains, PR 7's
// cross-round baselines included): a resumed run restarts every class chain
// at the checkpoint boundary, so these may fall short of the uninterrupted
// run's while all result-bearing fields stay bit-identical.
func chainEffortNormalized(s Stats) Stats {
	s.DeltaBuilds = 0
	s.DeltaLayersReused = 0
	s.RepairSolves = 0
	s.RepairEdgesKept = 0
	s.CrossRoundDeltaBuilds = 0
	s.CrossRoundRepairs = 0
	return s
}

// TestResumeRejectsForeignOptions: a checkpoint only resumes under the
// configuration it was taken with (Workers excepted — results are
// worker-count invariant, so the pool may be rescaled).
func TestResumeRejectsForeignOptions(t *testing.T) {
	g := snapshotTestInstance(t)
	firstCheckpoint := func(opts Options) *Checkpoint {
		t.Helper()
		var persisted []byte
		_, err := SolveCheckpointed(g, nil, opts, 3, func(cp *Checkpoint) error {
			persisted = EncodeCheckpoint(cp)
			return errors.New("stop after first round")
		})
		if err == nil {
			t.Fatal("run was not stopped")
		}
		cp, err := DecodeCheckpoint(persisted)
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	opts := snapshotTestOptions()
	cp := firstCheckpoint(opts)

	foreign := opts
	foreign.ClassBase = 3
	if _, err := ResumeSolve(cp, foreign, nil); !errors.Is(err, ErrCheckpointOptions) {
		t.Fatalf("foreign options: err = %v, want ErrCheckpointOptions", err)
	}

	rescaled := opts
	rescaled.Workers = 4
	if _, err := ResumeSolve(cp, rescaled, nil); err != nil {
		t.Fatalf("rescaled workers: %v", err)
	}
}

// encodeWithDriver is EncodeCheckpoint with the driver section passed
// through edit, to forge the driver keys of snapshots from earlier builds.
func encodeWithDriver(cp *Checkpoint, edit func(string) string) []byte {
	return graph.EncodeSnapshot(checkpointVersion, []graph.SnapshotSection{
		{Name: sectGraph, Data: graph.EncodeGraphSection(cp.Graph)},
		{Name: sectMatching, Data: graph.EncodeMatchingSection(cp.M)},
		{Name: sectDriver, Data: []byte(edit(string(encodeDriver(cp))))},
		{Name: sectStats, Data: encodeStats(cp.Stats)},
	})
}

// TestLegacyDriverKeys pins how snapshots from earlier builds load. Each
// retired driver key loads at the one value this build still runs and is
// refused at any other with ErrCheckpointOptions naming the key, and new
// snapshots write none of them. A mid-run snapshot laid out byte for byte
// the way the previous build wrote it — all three cutover keys at 0, as
// every augserve snapshot of that build was — resumes bit-identically to
// the uninterrupted run.
func TestLegacyDriverKeys(t *testing.T) {
	g := snapshotTestInstance(t)
	opts := snapshotTestOptions()
	const seed = 11
	full, err := SolveCheckpointed(g, nil, opts, seed, func(*Checkpoint) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	var cp *Checkpoint
	SolveCheckpointed(g, nil, opts, seed, func(c *Checkpoint) error {
		if c.Round < 2 {
			return nil
		}
		cp, err = DecodeCheckpoint(EncodeCheckpoint(c))
		return errors.New("killed")
	})
	if cp == nil || err != nil {
		t.Fatalf("no round-2 checkpoint: %v", err)
	}
	driver := string(encodeDriver(cp))

	for _, tc := range []struct{ key, loads, refused string }{
		{"warm-start", "false", "true"},
		{"delta-cutover", "0", "-1"},
		{"repair-cutover", "0", "4"},
		{"crossround-cutover", "0", "-1"},
	} {
		t.Run(tc.key, func(t *testing.T) {
			if strings.Contains(driver, tc.key+"=") {
				t.Fatalf("new snapshot still writes %s:\n%s", tc.key, driver)
			}
			with := func(v string) []byte {
				return encodeWithDriver(cp, func(d string) string { return d + tc.key + "=" + v + "\n" })
			}
			dec, err := DecodeCheckpoint(with(tc.loads))
			if err != nil {
				t.Fatalf("%s=%s: %v", tc.key, tc.loads, err)
			}
			if dec.Meta != cp.Meta {
				t.Fatalf("%s=%s: meta %+v, want %+v", tc.key, tc.loads, dec.Meta, cp.Meta)
			}
			_, err = DecodeCheckpoint(with(tc.refused))
			if !errors.Is(err, ErrCheckpointOptions) || !strings.Contains(err.Error(), tc.key) {
				t.Fatalf("%s=%s: err = %v, want ErrCheckpointOptions naming %s", tc.key, tc.refused, err, tc.key)
			}
		})
	}

	parent, err := DecodeCheckpoint(encodeWithDriver(cp, func(d string) string {
		return strings.Replace(d, "cache-gate=", "delta-cutover=0\nrepair-cutover=0\ncrossround-cutover=0\ncache-gate=", 1)
	}))
	if err != nil {
		t.Fatalf("parent-layout snapshot: %v", err)
	}
	resumed, err := ResumeSolve(parent, opts, nil)
	if err != nil {
		t.Fatalf("parent-layout snapshot did not resume: %v", err)
	}
	if !equalMatchings(resumed.M, full.M) || chainEffortNormalized(resumed.Stats) != chainEffortNormalized(full.Stats) {
		t.Fatalf("parent-layout resume diverged:\n got %+v\nwant %+v", resumed.Stats, full.Stats)
	}
}

// TestCorruptCheckpointRejected: any single flipped byte in a persisted
// checkpoint is caught (the container checksum), so a damaged snapshot can
// only ever degrade a restart to cold — never resume into wrong state.
func TestCorruptCheckpointRejected(t *testing.T) {
	g := snapshotTestInstance(t)
	opts := snapshotTestOptions()
	var persisted []byte
	SolveCheckpointed(g, nil, opts, 3, func(cp *Checkpoint) error {
		persisted = EncodeCheckpoint(cp)
		return errors.New("stop")
	})
	if persisted == nil {
		t.Fatal("no checkpoint persisted")
	}
	step := len(persisted)/97 + 1
	for i := 0; i < len(persisted); i += step {
		mut := append([]byte(nil), persisted...)
		mut[i] ^= 0x20
		if _, err := DecodeCheckpoint(mut); err == nil {
			t.Fatalf("flip at byte %d/%d decoded cleanly", i, len(persisted))
		}
	}
}

// TestSaveLoadCheckpointFile covers the file wrappers, including the
// atomic-replace path and load-time verification.
func TestSaveLoadCheckpointFile(t *testing.T) {
	g := snapshotTestInstance(t)
	path := filepath.Join(t.TempDir(), "solve.snap")
	cp := &Checkpoint{
		Graph: g, M: graph.NewMatching(g.N()),
		Round: 1, RngSeed: 2, RngDraws: 3,
		Meta: MetaOf(snapshotTestOptions()),
	}
	if err := SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(path, cp); err != nil { // overwrite via rename
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 1 || got.RngSeed != 2 || got.RngDraws != 3 {
		t.Fatalf("loaded %+v", got)
	}

	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("truncated file loaded cleanly")
	}
}

// TestSaveCheckpointFailureLeavesNoTemp: a save that cannot complete (here
// the rename, onto a non-empty directory) returns the error and removes
// its temp file instead of leaving it beside the checkpoint.
func TestSaveCheckpointFailureLeavesNoTemp(t *testing.T) {
	g := snapshotTestInstance(t)
	path := filepath.Join(t.TempDir(), "solve.snap")
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	cp := &Checkpoint{Graph: g, M: graph.NewMatching(g.N()), Meta: MetaOf(snapshotTestOptions())}
	if err := SaveCheckpoint(path, cp); err == nil {
		t.Fatal("save onto a non-empty directory succeeded")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed save left its temp file behind (stat: %v)", err)
	}
}
