package core

// Solve checkpointing: persisting an in-flight Theorem 1.2 run so a
// restarted process resumes warm and finishes bit-identically to the
// uninterrupted run.
//
// The checkpoint persists the run's *generators*, not its caches: the
// graph, the matching so far, the round/stall counters, the accumulated
// Stats, and the exact position of the Rng stream (seed + draw count).
// The amortised context — incremental index, delta chains, retained CSRs,
// cross-class cache — is deliberately not serialised: NewRunner rebuilds
// all of it deterministically from (graph, matching), and the differential
// suite's rebuild-twin equivalence (a fresh Runner's Round equals a
// Solve-held Runner's Round, TestAmortizedRoundBitIdentical and kin) is
// exactly the statement that the rebuilt context continues bit-identically.
// That keeps the format small, version-stable across cache-layout changes,
// and incapable of smuggling corrupted amortised state across a restart —
// a corrupted snapshot is caught by the container checksum and degrades to
// a cold start (the bottom rung of the degradation ladder).

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// checkpointVersion is the current checkpoint format version (the snapshot
// container's version field). Readers reject higher versions.
const checkpointVersion = 1

// ErrCheckpointOptions: the options passed to ResumeSolve describe a
// different run than the checkpoint was taken from (granularity, class
// base, budgets or amortisation flags differ), so resuming under them
// would neither reproduce nor meaningfully continue the original run.
var ErrCheckpointOptions = errors.New("core: checkpoint was taken under different options")

// CountingSource is a rand.Source64 that counts its draws, making the Rng
// stream position serialisable: a fresh source over the same seed advanced
// by Draws() calls is in the identical state. This relies on (and
// TestCountingSourceReplay pins) math/rand's seeded source advancing
// exactly one internal step per Int63 or Uint64 call, so the burn can
// replay mixed call sequences without recording which was which.
type CountingSource struct {
	src   rand.Source64
	draws uint64
}

// NewCountingSource returns a counting wrapper over math/rand's seeded
// source — the same generator rand.NewSource yields, so a Solve driven
// through it sees the identical stream (and results) as one driven by a
// plain rand.New(rand.NewSource(seed)).
func NewCountingSource(seed int64) *CountingSource {
	return &CountingSource{src: rand.NewSource(seed).(rand.Source64)}
}

// ReplayCountingSource returns a counting source advanced to the state a
// NewCountingSource(seed) reaches after draws calls.
func ReplayCountingSource(seed int64, draws uint64) *CountingSource {
	cs := NewCountingSource(seed)
	for i := uint64(0); i < draws; i++ {
		cs.src.Uint64()
	}
	cs.draws = draws
	return cs
}

func (s *CountingSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *CountingSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

func (s *CountingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.draws = 0
}

// Draws returns how many values have been drawn from the source.
func (s *CountingSource) Draws() uint64 { return s.draws }

// CheckpointMeta fingerprints the run configuration a checkpoint was taken
// under. ResumeSolve refuses a checkpoint whose fingerprint disagrees with
// the options it is handed (Workers excepted: results are invariant under
// the worker count, so a resume may rescale the pool freely).
// CrossRoundCutover reads as 0 from snapshots that predate its key.
type CheckpointMeta struct {
	Granularity       float64
	MaxLayers         int
	SumCap            float64
	ClassBase         float64
	MaxRounds         int
	Patience          int
	MaxPairs          int
	Workers           int
	Amortize          bool
	DeltaCutover      int
	RepairCutover     int
	CrossRoundCutover int
	CacheGate         int
}

func metaOf(opts Options) CheckpointMeta {
	opts = opts.withDefaults()
	return CheckpointMeta{
		Granularity:       opts.Layered.Granularity,
		MaxLayers:         opts.Layered.MaxLayers,
		SumCap:            opts.Layered.SumCap,
		ClassBase:         opts.ClassBase,
		MaxRounds:         opts.MaxRounds,
		Patience:          opts.Patience,
		MaxPairs:          opts.MaxPairsPerClass,
		Workers:           opts.Workers,
		Amortize:          opts.Amortize,
		DeltaCutover:      opts.DeltaCutover,
		RepairCutover:     opts.RepairCutover,
		CrossRoundCutover: opts.CrossRoundCutover,
		CacheGate:         opts.CacheGate,
	}
}

// compatible reports whether a checkpoint under m may resume under other:
// equal in everything but the worker count.
func (m CheckpointMeta) compatible(other CheckpointMeta) bool {
	m.Workers, other.Workers = 0, 0
	return m == other
}

// MetaOf fingerprints opts the way SolveCheckpointed does, for callers
// assembling their own Checkpoint — the augserve tick loop persists tick
// counts rather than Solve rounds, but shares the container format and the
// resume-compatibility rule.
func MetaOf(opts Options) CheckpointMeta { return metaOf(opts) }

// Compatible reports whether a checkpoint taken under m may resume under
// other: equal in everything but the worker count (results are invariant
// under the pool size, so a resume may rescale it freely).
func (m CheckpointMeta) Compatible(other CheckpointMeta) bool { return m.compatible(other) }

// Checkpoint is the persisted state of an in-flight Solve, taken between
// rounds. See the file comment for what is (and deliberately is not)
// persisted.
type Checkpoint struct {
	// Graph and M are the instance and the matching after Round rounds.
	Graph *graph.Graph
	M     *graph.Matching
	// Round is the number of completed rounds; Stalled the current
	// consecutive-zero-gain count — together the loop position.
	Round   int
	Stalled int
	// Stats are the counters accumulated over the completed rounds.
	Stats Stats
	// RngSeed and RngDraws pin the Rng stream: a fresh seeded source
	// advanced by RngDraws draws continues the run's exact stream.
	RngSeed  int64
	RngDraws uint64
	// Meta fingerprints the options the run was started under.
	Meta CheckpointMeta
}

// Section names of the checkpoint snapshot.
const (
	sectGraph    = "graph"
	sectMatching = "matching"
	sectDriver   = "driver"
	sectStats    = "stats"
)

// EncodeCheckpoint serialises cp into the versioned, checksummed snapshot
// container (graph.EncodeSnapshot).
func EncodeCheckpoint(cp *Checkpoint) []byte {
	return graph.EncodeSnapshot(checkpointVersion, []graph.SnapshotSection{
		{Name: sectGraph, Data: graph.EncodeGraphSection(cp.Graph)},
		{Name: sectMatching, Data: graph.EncodeMatchingSection(cp.M)},
		{Name: sectDriver, Data: encodeDriver(cp)},
		{Name: sectStats, Data: encodeStats(cp.Stats)},
	})
}

// DecodeCheckpoint parses and verifies a checkpoint snapshot. Any
// truncation, bit flip or version skew surfaces as a graph.ErrSnapshot*
// error; callers treat every error as "no usable checkpoint" and start
// cold.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	_, sections, err := graph.DecodeSnapshot(data, checkpointVersion)
	if err != nil {
		return nil, err
	}
	cp := &Checkpoint{}
	for _, want := range []string{sectGraph, sectMatching, sectDriver, sectStats} {
		payload, ok := graph.FindSection(sections, want)
		if !ok {
			return nil, fmt.Errorf("%w: checkpoint missing %q section", graph.ErrSnapshotSection, want)
		}
		switch want {
		case sectGraph:
			cp.Graph, err = graph.DecodeGraphSection(payload)
		case sectMatching:
			cp.M, err = graph.DecodeMatchingSection(payload)
		case sectDriver:
			err = decodeDriver(payload, cp)
		case sectStats:
			cp.Stats, err = decodeStats(payload)
		}
		if err != nil {
			return nil, err
		}
	}
	if cp.M.N() != cp.Graph.N() {
		return nil, fmt.Errorf("%w: matching over %d vertices, graph over %d",
			graph.ErrSnapshotSection, cp.M.N(), cp.Graph.N())
	}
	if err := cp.M.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", graph.ErrSnapshotSection, err)
	}
	return cp, nil
}

// SaveCheckpoint writes cp to path atomically (write-then-rename), so a
// crash mid-save leaves the previous checkpoint intact rather than a
// truncated file — truncation is detected either way, but atomic replace
// keeps a resumable state on disk at all times.
func SaveCheckpoint(path string, cp *Checkpoint) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, EncodeCheckpoint(cp), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadCheckpoint reads and verifies the checkpoint at path.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(data)
}

// driver section: key=value text lines, like the stats section — a format
// a future field extends without breaking older payload parsing.
func encodeDriver(cp *Checkpoint) []byte {
	var b strings.Builder
	kv := func(k, v string) { b.WriteString(k); b.WriteByte('='); b.WriteString(v); b.WriteByte('\n') }
	kv("round", strconv.Itoa(cp.Round))
	kv("stalled", strconv.Itoa(cp.Stalled))
	kv("rng-seed", strconv.FormatInt(cp.RngSeed, 10))
	kv("rng-draws", strconv.FormatUint(cp.RngDraws, 10))
	m := cp.Meta
	kv("granularity", strconv.FormatFloat(m.Granularity, 'g', -1, 64))
	kv("max-layers", strconv.Itoa(m.MaxLayers))
	kv("sum-cap", strconv.FormatFloat(m.SumCap, 'g', -1, 64))
	kv("class-base", strconv.FormatFloat(m.ClassBase, 'g', -1, 64))
	kv("max-rounds", strconv.Itoa(m.MaxRounds))
	kv("patience", strconv.Itoa(m.Patience))
	kv("max-pairs", strconv.Itoa(m.MaxPairs))
	kv("workers", strconv.Itoa(m.Workers))
	kv("amortize", strconv.FormatBool(m.Amortize))
	kv("delta-cutover", strconv.Itoa(m.DeltaCutover))
	kv("repair-cutover", strconv.Itoa(m.RepairCutover))
	kv("crossround-cutover", strconv.Itoa(m.CrossRoundCutover))
	kv("cache-gate", strconv.Itoa(m.CacheGate))
	return []byte(b.String())
}

func decodeDriver(data []byte, cp *Checkpoint) error {
	vals, err := parseKVLines(data, "driver")
	if err != nil {
		return err
	}
	geti := func(k string) (int, error) {
		v, err := strconv.Atoi(vals[k])
		if err != nil {
			return 0, fmt.Errorf("%w: driver %s=%q", graph.ErrSnapshotSection, k, vals[k])
		}
		return v, nil
	}
	getf := func(k string) (float64, error) {
		v, err := strconv.ParseFloat(vals[k], 64)
		if err != nil {
			return 0, fmt.Errorf("%w: driver %s=%q", graph.ErrSnapshotSection, k, vals[k])
		}
		return v, nil
	}
	getb := func(k string) (bool, error) {
		v, err := strconv.ParseBool(vals[k])
		if err != nil {
			return false, fmt.Errorf("%w: driver %s=%q", graph.ErrSnapshotSection, k, vals[k])
		}
		return v, nil
	}
	m := &cp.Meta
	steps := []func() error{
		func() (err error) { cp.Round, err = geti("round"); return },
		func() (err error) { cp.Stalled, err = geti("stalled"); return },
		func() (err error) {
			v, err := strconv.ParseInt(vals["rng-seed"], 10, 64)
			cp.RngSeed = v
			if err != nil {
				err = fmt.Errorf("%w: driver rng-seed=%q", graph.ErrSnapshotSection, vals["rng-seed"])
			}
			return
		},
		func() (err error) {
			v, err := strconv.ParseUint(vals["rng-draws"], 10, 64)
			cp.RngDraws = v
			if err != nil {
				err = fmt.Errorf("%w: driver rng-draws=%q", graph.ErrSnapshotSection, vals["rng-draws"])
			}
			return
		},
		func() (err error) { m.Granularity, err = getf("granularity"); return },
		func() (err error) { m.MaxLayers, err = geti("max-layers"); return },
		func() (err error) { m.SumCap, err = getf("sum-cap"); return },
		func() (err error) { m.ClassBase, err = getf("class-base"); return },
		func() (err error) { m.MaxRounds, err = geti("max-rounds"); return },
		func() (err error) { m.Patience, err = geti("patience"); return },
		func() (err error) { m.MaxPairs, err = geti("max-pairs"); return },
		func() (err error) { m.Workers, err = geti("workers"); return },
		func() (err error) { m.Amortize, err = getb("amortize"); return },
		func() error {
			// Snapshots written before the warm-start option was retired
			// record it. A warm run cannot be continued: this build has no
			// seeded solver, and warm runs were never bit-reproducible.
			if _, ok := vals["warm-start"]; !ok {
				return nil
			}
			warm, err := getb("warm-start")
			if err == nil && warm {
				err = fmt.Errorf("%w: warm-start=true, and the warm-start option is retired", ErrCheckpointOptions)
			}
			return err
		},
		func() (err error) { m.DeltaCutover, err = geti("delta-cutover"); return },
		func() (err error) { m.RepairCutover, err = geti("repair-cutover"); return },
		func() (err error) {
			if _, ok := vals["crossround-cutover"]; ok {
				m.CrossRoundCutover, err = geti("crossround-cutover")
			}
			return
		},
		func() (err error) { m.CacheGate, err = geti("cache-gate"); return },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	if cp.Round < 0 || cp.Stalled < 0 {
		return fmt.Errorf("%w: negative driver counters", graph.ErrSnapshotSection)
	}
	return nil
}

// stats section: the kebab-case name/value lines of Stats.Fields — the same
// reflective enumeration the CLIs print, so a future Stats counter rides
// along automatically, and a reader simply zero-fills counters a snapshot
// predates (forward/backward compatible by construction).
func encodeStats(s Stats) []byte {
	var b strings.Builder
	for _, f := range s.Fields() {
		b.WriteString(f.Name)
		b.WriteByte('=')
		b.WriteString(strconv.FormatInt(f.Value, 10))
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

func decodeStats(data []byte) (Stats, error) {
	var s Stats
	vals, err := parseKVLines(data, "stats")
	if err != nil {
		return s, err
	}
	sv := reflect.ValueOf(&s).Elem()
	for i, f := range s.Fields() {
		raw, ok := vals[f.Name]
		if !ok {
			continue // counter newer than the snapshot: stays zero
		}
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return s, fmt.Errorf("%w: stats %s=%q", graph.ErrSnapshotSection, f.Name, raw)
		}
		sv.Field(i).SetInt(v)
	}
	return s, nil
}

func parseKVLines(data []byte, what string) (map[string]string, error) {
	vals := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		k, v, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("%w: %s line %q", graph.ErrSnapshotSection, what, line)
		}
		vals[k] = v
	}
	return vals, nil
}

// SolveCheckpointed runs Solve with its Rng pinned to seed through a
// CountingSource and hands a checkpoint to save after every completed
// round. The matching and stats are identical to Solve's with
// opts.Rng = rand.New(rand.NewSource(seed)) — the counting wrapper draws
// from the very same generator — so checkpointing is free of behaviour
// change. opts.Rng must be unset (an arbitrary caller Rng has no
// serialisable position). A save error aborts the run; the checkpoint
// handed out aliases live state and must be used (encoded) within the
// callback.
func SolveCheckpointed(g *graph.Graph, initial *graph.Matching, opts Options, seed int64, save func(*Checkpoint) error) (Result, error) {
	if opts.Rng != nil {
		return Result{}, errors.New("core: SolveCheckpointed owns the Rng; leave Options.Rng nil")
	}
	cs := NewCountingSource(seed)
	return solveFrom(g, initial, opts, seed, cs, 0, 0, Stats{}, save)
}

// ResumeSolve continues the run persisted in cp: the matching, round and
// stall counters, stats and Rng stream pick up exactly where the
// checkpoint left them, the amortised context is rebuilt from (graph,
// matching), and the remaining rounds run to the same termination rule.
// With a deterministic solver (the default is one) the final matching and
// stats are bit-identical to the uninterrupted run's. opts
// must describe the same run (see CheckpointMeta; Workers may differ), and
// opts.Rng must be unset. The save callback may be nil to resume without
// further checkpointing.
func ResumeSolve(cp *Checkpoint, opts Options, save func(*Checkpoint) error) (Result, error) {
	if opts.Rng != nil {
		return Result{}, errors.New("core: ResumeSolve owns the Rng; leave Options.Rng nil")
	}
	if !cp.Meta.compatible(metaOf(opts)) {
		return Result{}, fmt.Errorf("%w: snapshot %+v vs options %+v", ErrCheckpointOptions, cp.Meta, metaOf(opts))
	}
	cs := ReplayCountingSource(cp.RngSeed, cp.RngDraws)
	return solveFrom(cp.Graph, cp.M, opts, cp.RngSeed, cs, cp.Round, cp.Stalled, cp.Stats, save)
}

// solveFrom is Solve's loop with an explicit starting position — the shared
// body of SolveCheckpointed (round 0) and ResumeSolve (mid-run).
func solveFrom(
	g *graph.Graph,
	initial *graph.Matching,
	opts Options,
	seed int64,
	cs *CountingSource,
	startRound, stalled int,
	stats Stats,
	save func(*Checkpoint) error,
) (Result, error) {
	opts.Rng = rand.New(cs)
	opts = opts.withDefaults()
	m := graph.NewMatching(g.N())
	if initial != nil {
		m = initial.Clone()
	}
	meta := metaOf(opts)
	maxRounds, patience := effectiveBudget(g.N(), opts)
	runner := NewRunner(g, opts)
	for r := startRound; r < maxRounds && stalled < patience; r++ {
		gain, err := runner.Round(m, &stats)
		if err != nil {
			return Result{M: m, Stats: stats}, err
		}
		if opts.Trace != nil {
			opts.Trace(r, m.Weight())
		}
		if gain == 0 {
			stalled++
		} else {
			stalled = 0
		}
		if save != nil {
			cp := &Checkpoint{
				Graph: g, M: m,
				Round: r + 1, Stalled: stalled,
				Stats:   stats,
				RngSeed: seed, RngDraws: cs.Draws(),
				Meta: meta,
			}
			if err := save(cp); err != nil {
				return Result{M: m, Stats: stats}, fmt.Errorf("core: checkpoint save after round %d: %w", r, err)
			}
		}
	}
	return Result{M: m, Stats: stats}, nil
}
