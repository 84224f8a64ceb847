// Command augrun runs one matching algorithm on a graph in the text edge
// format (see cmd/auggen) and prints the matching weight, size, and the
// algorithm's model diagnostics.
//
// Usage:
//
//	auggen -family planted -n 500 -m 3000 | augrun -algo randarrival
//	augrun -algo approx -input g.txt -granularity 0.0625
//	augrun -algo approx -json -input g.txt
//	augrun -algo approx -snapshot run.snap -resume -input g.txt
//
// Algorithms: greedy, localratio, blossom, exact, randarrival,
// randarrival-unweighted, approx, streaming, mpc.
//
// approx, streaming and mpc run the cross-round amortised pipeline with
// all of its differential machinery on (delta-chained builds,
// Hopcroft–Karp repair, the round link); it returns the naive path's
// matching bit for bit, so no flag selects it. -granularity takes 0 (the
// default, 1/8) or a value in [1/4096, 1/2] and refuses anything else. The
// golden -help test (TestHelpGolden) pins the flag surface against drift.
//
// The reduction-driven algorithms (approx, streaming, mpc) print the full
// core.Stats counter ledger, one key=value pair per counter, generated by
// reflection from the struct itself so a counter added by a future PR can
// never be silently dropped (TestStatsPrintedExactlyOnce pins this). With
// -json the run is emitted as a single JSON object whose "stats" member
// round-trips core.Stats field-for-field.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/core"
	"repro/internal/layered"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "augrun:", err)
		os.Exit(1)
	}
}

// jsonRun is the -json output shape: the headline numbers, the full
// core.Stats ledger, and the algorithm's model diagnostics (pass/round
// accounting), if any.
type jsonRun struct {
	Algo   string         `json:"algo"`
	N      int            `json:"n"`
	M      int            `json:"m"`
	Weight int64          `json:"weight"`
	Size   int            `json:"size"`
	Stats  *core.Stats    `json:"stats,omitempty"`
	Model  map[string]any `json:"model,omitempty"`
}

// printStats renders every core.Stats counter exactly once, four pairs per
// line, in the struct's own order (via Stats.Fields).
func printStats(w io.Writer, stats core.Stats) {
	fields := stats.Fields()
	for i, f := range fields {
		sep := " "
		if i == len(fields)-1 || i%4 == 3 {
			sep = "\n"
		}
		fmt.Fprintf(w, "%s=%d%s", f.Name, f.Value, sep)
	}
}

// flags is augrun's parsed flag surface.
type flags struct {
	algo, input    string
	seed           int64
	granularity    float64
	workers        int
	snapshot       string
	resume, asJSON bool
}

// newFlagSet declares augrun's flags over f. Split from run so the golden
// -help test renders the identical usage text the binary prints.
func newFlagSet(f *flags) *flag.FlagSet {
	fs := flag.NewFlagSet("augrun", flag.ContinueOnError)
	fs.StringVar(&f.algo, "algo", "approx", "algorithm to run")
	fs.StringVar(&f.input, "input", "-", "graph file in text edge format ('-' = stdin)")
	fs.Int64Var(&f.seed, "seed", 1, "random seed")
	fs.Float64Var(&f.granularity, "granularity", 0, "layered-graph granularity (0 = default 1/8)")
	fs.IntVar(&f.workers, "workers", 0, "approx: per-class worker pool size (0 = sequential)")
	fs.StringVar(&f.snapshot, "snapshot", "", "approx: persist a resumable checkpoint to this file after every round")
	fs.BoolVar(&f.resume, "resume", false, "approx: resume from the -snapshot checkpoint; an unusable snapshot degrades to a cold start")
	fs.BoolVar(&f.asJSON, "json", false, "emit the run as one JSON object (stats round-trip core.Stats)")
	return fs
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	var f flags
	fs := newFlagSet(&f)
	if err := fs.Parse(args); err != nil {
		return err
	}
	algo, input, seed, granularity := &f.algo, &f.input, &f.seed, &f.granularity
	workers := &f.workers
	snapshot, resume, asJSON := &f.snapshot, &f.resume, &f.asJSON
	if *resume && *snapshot == "" {
		return fmt.Errorf("-resume requires -snapshot")
	}
	if *snapshot != "" && *algo != "approx" {
		return fmt.Errorf("-snapshot is only supported by -algo approx")
	}
	if err := layered.CheckGranularity(*granularity); err != nil {
		return fmt.Errorf("-granularity: %w", err)
	}

	var r io.Reader = stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	g, err := repro.ReadGraph(r)
	if err != nil {
		return err
	}

	var m *repro.Matching
	var stats *core.Stats
	model := map[string]any{}
	modelLine := ""
	switch *algo {
	case "greedy":
		m = repro.GreedyWeighted(g)
	case "localratio":
		m = repro.LocalRatio(g)
	case "blossom":
		m = repro.MaxCardinality(g)
	case "exact":
		m, err = repro.MaxWeightExact(g)
		if err != nil {
			return err
		}
	case "randarrival":
		res := repro.RandomArrivalWeighted(g, repro.RandomArrivalOptions{Seed: *seed})
		m = res.M
		model["branch"], model["stack-size"], model["t-size"] = res.Branch, res.StackSize, res.TSize
		modelLine = fmt.Sprintf("branch=%s |S|=%d |T|=%d", res.Branch, res.StackSize, res.TSize)
	case "randarrival-unweighted":
		m = repro.RandomArrivalUnweighted(g, *seed)
	case "approx":
		aopts := repro.ApproxOptions{Seed: *seed, Granularity: *granularity, Workers: *workers}
		var res repro.ApproxResult
		var rerr error
		if *snapshot != "" {
			var info repro.SnapshotInfo
			res, info, rerr = repro.ApproxWeightedSnapshot(g, nil, aopts, *snapshot, *resume)
			model["snapshot-resumed"] = info.Resumed
			modelLine = fmt.Sprintf("snapshot-resumed=%t", info.Resumed)
			if info.Resumed {
				model["snapshot-resumed-round"] = info.ResumedRound
				modelLine += fmt.Sprintf(" snapshot-resumed-round=%d", info.ResumedRound)
			}
			if info.ColdStart != "" {
				model["snapshot-cold-start"] = info.ColdStart
				modelLine += fmt.Sprintf(" snapshot-cold-start=%q", info.ColdStart)
			}
		} else {
			res, rerr = repro.ApproxWeighted(g, nil, aopts)
		}
		if rerr != nil {
			return rerr
		}
		m, stats = res.M, &res.Stats
	case "streaming":
		res, rerr := repro.ApproxWeightedStreaming(g, nil, repro.ApproxOptions{Seed: *seed, Granularity: *granularity})
		if rerr != nil {
			return rerr
		}
		m, stats = res.M, &res.Stats
		model["total-passes"], model["max-round-passes"] = res.TotalPasses, res.MaxRoundPasses
		model["subroutine-passes"], model["peak-words"] = res.SubroutinePasses, res.PeakStored
		modelLine = fmt.Sprintf("passes=%d max-passes/round=%d subroutine-passes=%d peak-words=%d",
			res.TotalPasses, res.MaxRoundPasses, res.SubroutinePasses, res.PeakStored)
	case "mpc":
		res, rerr := repro.ApproxWeightedMPC(g, nil, repro.ApproxOptions{Seed: *seed, Granularity: *granularity})
		if rerr != nil {
			return rerr
		}
		m, stats = res.M, &res.Stats
		model["total-rounds"], model["max-round-rounds"] = res.TotalRounds, res.MaxRoundRounds
		model["u-m"], model["peak-load"] = res.SubroutineRounds, res.PeakLoad
		modelLine = fmt.Sprintf("mpc-rounds=%d max-rounds/round=%d U_M=%d peak-load=%d",
			res.TotalRounds, res.MaxRoundRounds, res.SubroutineRounds, res.PeakLoad)
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	if err := m.Validate(); err != nil {
		return fmt.Errorf("algorithm produced invalid matching: %w", err)
	}
	if *asJSON {
		if len(model) == 0 {
			model = nil
		}
		out, jerr := json.MarshalIndent(jsonRun{
			Algo: *algo, N: g.N(), M: g.M(),
			Weight: int64(m.Weight()), Size: m.Size(),
			Stats: stats, Model: model,
		}, "", "  ")
		if jerr != nil {
			return jerr
		}
		fmt.Fprintf(stdout, "%s\n", out)
		return nil
	}
	if modelLine != "" {
		fmt.Fprintln(stdout, modelLine)
	}
	if stats != nil {
		printStats(stdout, *stats)
	}
	fmt.Fprintf(stdout, "weight=%d size=%d n=%d m=%d\n", m.Weight(), m.Size(), g.N(), g.M())
	return nil
}
