package main

// The streaming workload: the E20 row. A 10⁶-edge random multigraph
// stream on 10⁵ vertices is shuffled to disk with the external-memory
// shuffle, opened with CRC verification, and run through Rand-Arr-Matching
// (Algorithm 2) with a reused Arena and an Accountant, one pass per
// operation. None of the batch layers run here.

import (
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/localratio"
	"repro/internal/randarrival"
	"repro/internal/stream"
)

const (
	arrN, arrM = 100_000, 1_000_000
	arrMaxW    = graph.Weight(1 << 20)

	// arrSetupReps is how many times a run repeats its set-up, which writes
	// and verifies the whole stream file; setup_s is the best.
	arrSetupReps = 8

	// prefixFraction is RandArrMatching's default PrefixFraction, which
	// the workload runs at.
	prefixFraction = 0.05
	wgtAugBeta     = 0.3 // RandArrMatching's default Beta
)

// prefixLen is RandArrMatching's phase-1 length for a stream of m edges.
func prefixLen(m int) int { return int(prefixFraction * float64(m)) }

// edgesOf is one fresh pass over s as a sequence.
func edgesOf(s stream.EdgeStream) iter.Seq[graph.Edge] {
	return func(yield func(graph.Edge) bool) {
		s.Reset()
		for e, ok := s.Next(); ok; e, ok = s.Next() {
			if !yield(e) {
				return
			}
		}
	}
}

// stampStream delegates to the stream RandArrMatching reads and stamps two
// moments of the pass: the request for edge prefixLen (phase 1 — the
// local-ratio prefix, its unwind, and Wgt-Aug-Paths initialisation — is
// over) and the request that finds the pass exhausted (phase 2 is over;
// what remains until RandArrMatching returns is finalize).
type stampStream struct {
	s        stream.EdgeStream
	prefix   int
	calls    int
	prefixAt time.Time
	endAt    time.Time
}

var _ stream.EdgeStream = (*stampStream)(nil)

func (w *stampStream) Next() (graph.Edge, bool) {
	if w.calls == w.prefix {
		w.prefixAt = time.Now()
	}
	w.calls++
	e, ok := w.s.Next()
	if !ok && w.endAt.IsZero() {
		w.endAt = time.Now()
	}
	return e, ok
}

func (w *stampStream) Reset() {
	w.s.Reset()
	w.calls = 0
	w.prefixAt, w.endAt = time.Time{}, time.Time{}
}

func (w *stampStream) Len() int    { return w.s.Len() }
func (w *stampStream) Passes() int { return w.s.Passes() }

// arrivalRun is what repetitions on one seed must reproduce exactly.
type arrivalRun struct {
	weight                          graph.Weight
	branch                          string
	stack, tSize, passes, peakWords int
	mates                           []int
}

func summarize(res randarrival.WeightedResult) arrivalRun {
	return arrivalRun{
		weight: res.M.Weight(), branch: res.Branch,
		stack: res.StackSize, tSize: res.TSize, passes: res.Passes, peakWords: res.PeakWords,
		mates: matesOf(res.M),
	}
}

func (a arrivalRun) equal(b arrivalRun) bool {
	return a.weight == b.weight && a.branch == b.branch && a.stack == b.stack &&
		a.tSize == b.tSize && a.passes == b.passes && a.peakWords == b.peakWords &&
		slices.Equal(a.mates, b.mates)
}

// arrival is one opened workload input plus its checking state, and the
// stage replay's own processor, Wgt-Aug-Paths and accountant, which it
// reuses from replay to replay as the run reuses its Arena.
type arrival struct {
	fs    *stream.FileStream
	arena randarrival.Arena
	acct  stream.Accountant
	seed  int64
	first *arrivalRun
	ratio float64

	proc     *localratio.Processor
	wap      randarrival.WgtAugPaths
	stepAcct stream.Accountant
}

// run is one operation: one RandArrMatching pass over s. It returns when
// the pass returned and how long it took.
func (a *arrival) run(s stream.EdgeStream) (randarrival.WeightedResult, time.Time, time.Duration) {
	a.acct.Reset()
	start := time.Now()
	res := randarrival.RandArrMatching(arrN, s, randarrival.WeightedOptions{
		Rng:     rand.New(rand.NewSource(rngSeed(a.seed, 0))),
		Account: &a.acct,
		Arena:   &a.arena,
	})
	end := time.Now()
	return res, end, end.Sub(start)
}

// runChecked is one untraced, checked operation over the file; it returns
// the operation's time.
func (a *arrival) runChecked(rep *report) time.Duration {
	rep.attempted++
	res, _, d := a.run(a.fs)
	a.check(rep, res)
	return d
}

// check verifies one operation's output: a single pass with no read
// fault, a valid matching of stream edges, and the first operation's exact
// result on every later one.
func (a *arrival) check(rep *report, res randarrival.WeightedResult) {
	if res.Passes != 1 {
		rep.fail("RandArrMatching took %d passes", res.Passes)
	}
	if err := a.fs.Err(); err != nil {
		rep.fail("stream read fault: %v", err)
	}
	got := summarize(res)
	if a.first != nil {
		if !got.equal(*a.first) {
			rep.fail("repetition differs from the first: weight %d vs %d", got.weight, a.first.weight)
		}
		return
	}
	a.first = &got
	if err := checkMatching(res.M, arrN, edgesOf(a.fs)); err != nil {
		rep.fail("output check: %v", err)
	}
	a.ratio = certRatio(res.M.Weight(), coverBound(arrN, edgesOf(a.fs)))
	if err := a.fs.Err(); err != nil {
		rep.fail("stream read fault: %v", err)
	}
}

// setupArrival writes the shuffled stream file into dir and opens it,
// timing the two steps separately.
func setupArrival(dir string, seed int64) (fs *stream.FileStream, shuffle, open time.Duration, err error) {
	path := filepath.Join(dir, "arrivals.estream")
	rng := rand.New(rand.NewSource(graphSeed(seed, 0)))
	start := time.Now()
	wrote, err := stream.ShuffleToFile(path, arrN, graph.RandomEdgeSource(arrN, arrM, arrMaxW, rng), rng, 0)
	shuffle = time.Since(start)
	if err != nil {
		return nil, 0, 0, err
	}
	if wrote != arrM {
		return nil, 0, 0, fmt.Errorf("shuffle wrote %d of %d edges", wrote, arrM)
	}
	start = time.Now()
	fs, err = stream.OpenFile(path)
	open = time.Since(start)
	return fs, shuffle, open, err
}

// workDir creates the run's private directory for stream files under
// .bench_build in the working directory.
func workDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "stagebench-*")
}

func runArrival(cfg config, rep *report) (err error) {
	dir, err := workDir()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()

	a := &arrival{seed: cfg.seed}
	var setup, shuffles, opens []time.Duration
	for range arrSetupReps {
		if a.fs != nil {
			a.fs.Close()
		}
		fs, shuffle, open, err := setupArrival(dir, cfg.seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		a.fs = fs
		setup = append(setup, shuffle+open)
		shuffles = append(shuffles, shuffle)
		opens = append(opens, open)
	}
	defer a.fs.Close()
	rep.set("setup_s", best(durations(setup, seconds)), len(setup))
	if cfg.traced {
		rep.set("stream.shuffle_s", best(durations(shuffles, seconds)), len(shuffles))
		rep.set("stream.open_verify_ms", best(durations(opens, millis)), len(opens))
		return traceArrival(cfg, a, rep)
	}

	var runs []time.Duration
	peaks, err := measure(cfg.budget, func() {
		a.runChecked(rep)
	}, func(int) {
		runs = append(runs, a.runChecked(rep))
	})
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", median(peaks), len(peaks))
	rep.set("solve_s", best(durations(runs, seconds)), len(runs))
	rep.set("op_p50_ms", best(durations(runs, millis)), len(runs))
	rep.set("cert_ratio", a.ratio, 1)
	rep.note("ns_per_arrival %.6g ns (best of n=%d)", best(durations(runs, seconds))*1e9/arrM, len(runs))
	rep.note("peak_words %d, passes %d, branch %s", a.first.peakWords, a.first.passes, a.first.branch)
	return nil
}

// streamStages is one replay of a traced run's stages over the file.
type streamStages struct {
	read     time.Duration // a read-only pass
	prefix   time.Duration // local-ratio Process over the prefix, Unwind, Freeze
	tset     time.Duration // Residual over the suffix
	feed     time.Duration // WgtAugPaths.Init plus Feed over the suffix
	finalize time.Duration // WgtAugPaths.Finalize
}

// replayStream times the stages of RandArrMatching separately over fs and
// checks them against the real run's result res.
func (a *arrival) replayStream(res randarrival.WeightedResult) (streamStages, error) {
	var st streamStages
	fs, m := a.fs, a.fs.Len()
	prefix := prefixLen(m)

	start := time.Now()
	for range edgesOf(fs) {
	}
	st.read = time.Since(start)

	if a.proc == nil {
		a.proc = localratio.New(arrN)
	}
	proc, acct := a.proc, &a.stepAcct
	acct.Reset()
	fs.Reset()
	start = time.Now()
	proc.Reset(arrN)
	proc.SetAccountant(acct)
	for range prefix {
		e, ok := fs.Next()
		if !ok {
			break
		}
		proc.Process(e)
	}
	m0 := proc.Unwind()
	proc.Freeze()
	mid := time.Now()
	tCount := 0
	for e, ok := fs.Next(); ok; e, ok = fs.Next() {
		if proc.Residual(e) > 0 {
			tCount++
		}
	}
	st.prefix, st.tset = mid.Sub(start), time.Since(mid)
	if tCount != res.TSize {
		return st, fmt.Errorf("%w: T filter kept %d edges, the run %d", errReplay, tCount, res.TSize)
	}
	if proc.PeakStackLen() != res.StackSize {
		return st, fmt.Errorf("%w: stack %d, the run %d", errReplay, proc.PeakStackLen(), res.StackSize)
	}

	fs.Reset()
	for range prefix {
		if _, ok := fs.Next(); !ok {
			break
		}
	}
	start = time.Now()
	a.wap.Init(m0, wgtAugBeta, rand.New(rand.NewSource(rngSeed(a.seed, 0))), acct)
	for e, ok := fs.Next(); ok; e, ok = fs.Next() {
		a.wap.Feed(e)
	}
	st.feed = time.Since(start)
	start = time.Now()
	m2 := a.wap.Finalize()
	st.finalize = time.Since(start)
	if m2.Weight() > res.M.Weight() || (res.Branch == "augment" && m2.Weight() != res.M.Weight()) {
		return st, fmt.Errorf("%w: Wgt-Aug-Paths weight %d, the run %d (%s)", errReplay, m2.Weight(), res.M.Weight(), res.Branch)
	}
	return st, fs.Err()
}

// traceArrival alternates untraced runs (the overhead baseline) with runs
// through the stamping wrapper, each followed by the stage replay; the
// warm-up is an untraced run and one stage replay.
func traceArrival(cfg config, a *arrival, rep *report) error {
	var plain, traced, phase1, phase2, finalize []time.Duration
	var reads, prefixNS, tsetNS, feedNS, coverage []float64
	var last randarrival.WeightedResult
	m := a.fs.Len()
	prefix := prefixLen(m)
	suffix := m - prefix
	traceRun := func() {
		rep.attempted++
		w := &stampStream{s: a.fs, prefix: prefix}
		res, end, d := a.run(w)
		a.check(rep, res)
		if w.prefixAt.IsZero() || w.endAt.IsZero() {
			rep.fail("stream wrapper missed a stamp")
			return
		}
		st, err := a.replayStream(res)
		if err != nil {
			rep.fail("stream replay: %v", err)
			return
		}
		readNS := float64(st.read) / float64(m)
		self := func(d time.Duration, edges int) float64 {
			return (float64(d) - readNS*float64(edges)) / float64(edges)
		}
		traced = append(traced, d)
		phase1 = append(phase1, w.prefixAt.Sub(end.Add(-d)))
		phase2 = append(phase2, w.endAt.Sub(w.prefixAt))
		finalize = append(finalize, end.Sub(w.endAt))
		reads = append(reads, readNS)
		prefixNS = append(prefixNS, self(st.prefix, prefix))
		tsetNS = append(tsetNS, self(st.tset, suffix))
		feedNS = append(feedNS, self(st.feed, suffix))
		// The run reads the stream once; the replay's stages are charged
		// their self time on top of one read pass.
		replayed := float64(st.read) + float64(st.finalize) + self(st.prefix, prefix)*float64(prefix) +
			(self(st.tset, suffix)+self(st.feed, suffix))*float64(suffix)
		coverage = append(coverage, share(replayed, float64(d)))
		last = res
	}
	_, err := measure(cfg.budget, func() {
		// The replay's processor and Wgt-Aug-Paths warm up here too, so no
		// timed replay pays for their first allocation.
		rep.attempted++
		res, _, _ := a.run(a.fs)
		a.check(rep, res)
		if _, err := a.replayStream(res); err != nil {
			rep.fail("stream replay: %v", err)
		}
	}, func(p int) {
		alternate(p, func() {
			plain = append(plain, a.runChecked(rep))
		}, traceRun)
	})
	if err != nil {
		return err
	}
	if len(traced) == 0 {
		rep.fail("no traced run completed")
		return nil
	}
	n := len(traced)
	rep.set("stream.read_ns_per_edge", median(reads), n)
	rep.set("localratio.prefix_ns_per_edge", median(prefixNS), n)
	rep.set("localratio.tset_filter_ns_per_edge", median(tsetNS), n)
	rep.set("localratio.stack_size", float64(last.StackSize), n)
	rep.set("randarrival.feed_ns_per_edge", median(feedNS), n)
	rep.set("randarrival.finalize_ms", median(durations(finalize, millis)), n)
	rep.set("randarrival.tset_size", float64(last.TSize), n)
	rep.set("randarrival.tset_share", share(float64(last.TSize), float64(suffix)), n)
	rep.set("randarrival.peak_words", float64(last.PeakWords), n)
	rep.set("trace.overhead", share(median(durations(traced, millis)), median(durations(plain, millis))), n)
	rep.set("trace.replay_coverage", median(coverage), n)
	rep.note("run split: phase 1 %.4g ms, phase 2 %.4g ms, finalize %.4g ms (n=%d)",
		median(durations(phase1, millis)), median(durations(phase2, millis)), median(durations(finalize, millis)), n)
	return nil
}
