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
		Meta: metaOf(snapshotTestOptions()),
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

	// A round-local run resumed with the round link on would chain builds
	// the uninterrupted run never chained.
	roundLocal := opts
	roundLocal.CrossRoundCutover = -1
	if _, err := ResumeSolve(firstCheckpoint(roundLocal), opts, nil); !errors.Is(err, ErrCheckpointOptions) {
		t.Fatalf("CrossRoundCutover -1 resumed under 0: err = %v, want ErrCheckpointOptions", err)
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

// TestLegacyDriverKeys pins how snapshots from earlier builds load: one
// taken with the retired warm-start option on is refused with a reason
// naming the option, warm-start=false loads as before, and a snapshot
// without the crossround-cutover key reads it as 0.
func TestLegacyDriverKeys(t *testing.T) {
	g := snapshotTestInstance(t)
	cp := &Checkpoint{
		Graph: g, M: graph.NewMatching(g.N()),
		Round: 2, RngSeed: 5, RngDraws: 7,
		Meta: metaOf(snapshotTestOptions()),
	}

	_, err := DecodeCheckpoint(encodeWithDriver(cp, func(d string) string { return d + "warm-start=true\n" }))
	if !errors.Is(err, ErrCheckpointOptions) || !strings.Contains(err.Error(), "warm-start") {
		t.Fatalf("warm-start=true: err = %v, want ErrCheckpointOptions naming warm-start", err)
	}
	dec, err := DecodeCheckpoint(encodeWithDriver(cp, func(d string) string { return d + "warm-start=false\n" }))
	if err != nil {
		t.Fatalf("warm-start=false: %v", err)
	}
	if dec.Meta != cp.Meta {
		t.Fatalf("warm-start=false: meta %+v, want %+v", dec.Meta, cp.Meta)
	}

	cp.Meta.CrossRoundCutover = -1
	dec, err = DecodeCheckpoint(encodeWithDriver(cp, func(d string) string {
		const line = "crossround-cutover=-1\n"
		if !strings.Contains(d, line) {
			t.Fatalf("driver section lacks %q:\n%s", line, d)
		}
		return strings.Replace(d, line, "", 1)
	}))
	if err != nil {
		t.Fatalf("no crossround-cutover key: %v", err)
	}
	if dec.Meta.CrossRoundCutover != 0 {
		t.Fatalf("missing crossround-cutover read as %d, want 0", dec.Meta.CrossRoundCutover)
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
		Meta: metaOf(snapshotTestOptions()),
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
