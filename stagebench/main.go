// Command stagebench is the repository benchmark. It runs one workload of
// the paper's three tiers from a seed — band-edits (the fully-dynamic tick
// loop), uniform-solve (the amortised batch solve) or arrival-stream (the
// single-pass random-arrival stream) — checks every output, and prints the
// end-to-end metrics, or with --trace 1 the per-layer metrics of a
// separate traced run, as one JSON object on the last line of standard
// output. Human-readable lines with sample counts come before it.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	stagebench --workload band-edits --seed 1 --seconds 35 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef is one metric the benchmark reports, as BENCHMARK.json lists it.
type metricDef struct {
	name, unit string
}

// endToEnd are the untraced run's metrics, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"op_p50_ms", "ms"},
	{"cert_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, reported on every workload; a
// layer the workload never enters reports 0.
var perLayer = []metricDef{
	{"core.new_runner_ms", "ms"},
	{"core.round_ms", "ms"},
	{"core.rounds", "count"},
	{"core.zero_gain_round_share", "share"},
	{"core.apply_mutations_ms", "ms"},
	{"core.mutation_index_resets", "count"},
	{"core.mutation_delta_builds", "count"},
	{"core.merge_ms", "ms"},
	{"core.unattributed_share", "share"},
	{"core.cache_hits", "count"},
	{"core.fallbacks", "count"},
	{"core.classes_skipped_dirty", "count"},
	{"layered.parametrize_ms", "ms"},
	{"layered.begin_round_ms", "ms"},
	{"layered.edit_protocol_ms", "ms"},
	{"layered.enum_ms", "ms"},
	{"layered.pairs", "count"},
	{"layered.enum_pruned", "count"},
	{"layered.survival_share", "share"},
	{"layered.build_delta_ms", "ms"},
	{"layered.build_scratch_ms", "ms"},
	{"layered.delta_builds", "count"},
	{"layered.delta_share", "share"},
	{"layered.cross_round_delta_builds", "count"},
	{"layered.walks_ms", "ms"},
	{"bipartite.solve_repair_ms", "ms"},
	{"bipartite.solve_cold_ms", "ms"},
	{"bipartite.solver_calls", "count"},
	{"bipartite.phases_per_call", "ratio"},
	{"bipartite.repair_share", "share"},
	{"stream.shuffle_s", "s"},
	{"stream.open_verify_ms", "ms"},
	{"stream.read_ns_per_edge", "ns"},
	{"localratio.prefix_ns_per_edge", "ns"},
	{"localratio.tset_filter_ns_per_edge", "ns"},
	{"localratio.stack_size", "count"},
	{"randarrival.feed_ns_per_edge", "ns"},
	{"randarrival.finalize_ms", "ms"},
	{"randarrival.tset_size", "count"},
	{"randarrival.tset_share", "share"},
	{"randarrival.peak_words", "words"},
	{"trace.overhead", "ratio"},
	{"trace.replay_coverage", "ratio"},
}

// config is one run's command line.
type config struct {
	seed   int64
	budget time.Duration
	traced bool
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config, *report) error{
	"band-edits":     runBand,
	"uniform-solve":  runUniform,
	"arrival-stream": runArrival,
}

func main() {
	// One thread of load, the garbage collector included: with a second
	// processor the collector's concurrent work competes with whatever else
	// the host runs there, which on a shared 2-vCPU container made medians
	// of identical work swing by a quarter between ten-second windows.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stagebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "band-edits, uniform-solve or arrival-stream")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	secs := fs.Float64("seconds", 20, "how long the measurement loop runs")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "stagebench: need --workload band-edits|uniform-solve|arrival-stream, --seconds > 0, --trace 0|1\n")
		return 2
	}
	cfg := config{seed: *seed, budget: time.Duration(*secs * float64(time.Second)), traced: *trace == 1}
	rep := newReport()
	if err := drive(cfg, rep); err != nil {
		fmt.Fprintf(stderr, "stagebench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	if err := rep.write(stdout, *name, defs); err != nil {
		fmt.Fprintf(stderr, "stagebench: %v\n", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// report collects one run's metrics, operation counts and failures.
type report struct {
	attempted int
	failures  []string
	values    map[string]float64
	samples   map[string]int
	notes     []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric value measured over n samples.
func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// note adds a human-readable line to the summary.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records one failed operation or output check.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.failures) == 0 }

// jsonMetric is one metric of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the result line.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints the summary lines and then the result line with exactly the
// metrics of defs. A metric the workload did not set reports 0; one left
// without a valid sample, because every operation it times failed, reports
// 0 and counts as one more failure.
func (r *report) write(w io.Writer, name string, defs []metricDef) error {
	metrics := map[string]jsonMetric{}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s has no valid sample (%v)", d.name, v)
			v = 0
		}
		metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	res := jsonResult{
		Correct:   r.correct(),
		Attempted: max(r.attempted, 1),
		Failed:    len(r.failures),
		Metrics:   metrics,
	}
	fmt.Fprintf(w, "%s: %d operations, %d failed (error rate %g)\n",
		name, r.attempted, len(r.failures), share(float64(len(r.failures)), float64(r.attempted)))
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %14.6g %-6s (n=%d)\n", d.name, metrics[d.name].Value, d.unit, r.samples[d.name])
	}
	sort.Strings(r.notes)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
