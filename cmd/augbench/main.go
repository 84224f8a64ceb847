// Command augbench runs the experiment harness and prints the paper-style
// tables of DESIGN.md's "Experiment index".
//
// Usage:
//
//	augbench [-experiment E1,E4] [-seed 1] [-trials 5] [-quick] [-json FILE]
//
// With no -experiment flag every registered experiment runs (currently
// E1..E14, E18 and E20 — the registry in internal/bench is the authority,
// and an unknown id's error message lists it). With -json the tables are
// additionally written to FILE as machine-readable JSON (the BENCH_*.json
// format the perf ledger tracks across PRs); its seed and trials are the
// ones the experiments ran with (-seed 0 runs seed 1, -trials ≤ 0 runs 5).
// Every experiment that runs a reduction driver runs the cross-round
// amortised pipeline (the E12b counters table shows its probe, cache,
// delta and repair activity).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "augbench:", err)
		os.Exit(1)
	}
}

// jsonTable mirrors bench.Table with stable, lower-case field names so the
// emitted files stay diffable across PRs.
type jsonTable struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Claim  string     `json:"claim,omitempty"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

type jsonReport struct {
	Seed   int64       `json:"seed"`
	Trials int         `json:"trials"`
	Quick  bool        `json:"quick"`
	Tables []jsonTable `json:"tables"`
}

// flags is augbench's parsed flag surface.
type flags struct {
	experiments string
	seed        int64
	trials      int
	quick       bool
	jsonPath    string
}

// newFlagSet declares augbench's flags over f. Split from run so the
// golden -help test renders the identical usage text the binary prints.
func newFlagSet(f *flags) *flag.FlagSet {
	fs := flag.NewFlagSet("augbench", flag.ContinueOnError)
	fs.StringVar(&f.experiments, "experiment", "", "comma-separated experiment ids (default: all)")
	fs.Int64Var(&f.seed, "seed", 1, "random seed")
	fs.IntVar(&f.trials, "trials", 5, "trials per table row")
	fs.BoolVar(&f.quick, "quick", false, "shrink instance sizes")
	fs.StringVar(&f.jsonPath, "json", "", "also write the tables as JSON to this file")
	return fs
}

func run(args []string) error {
	var f flags
	fs := newFlagSet(&f)
	if err := fs.Parse(args); err != nil {
		return err
	}
	experiments, seed, trials := &f.experiments, &f.seed, &f.trials
	quick, jsonPath := &f.quick, &f.jsonPath

	// The report records what the experiments run with, not the flags.
	cfg := bench.Config{Seed: *seed, Trials: *trials, Quick: *quick}.WithDefaults()
	registry := bench.Registry()

	ids := bench.IDs()
	if *experiments != "" {
		ids = strings.Split(*experiments, ",")
	}
	report := jsonReport{Seed: cfg.Seed, Trials: cfg.Trials, Quick: cfg.Quick}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		runner, ok := registry[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q (have %v)", id, bench.IDs())
		}
		for _, t := range runner(cfg) {
			t.Render(os.Stdout)
			report.Tables = append(report.Tables, jsonTable{
				ID: t.ID, Title: t.Title, Claim: t.Claim, Header: t.Header, Rows: t.Rows,
			})
		}
	}
	if *jsonPath != "" {
		out, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		out = append(out, '\n')
		if err := os.WriteFile(*jsonPath, out, 0o644); err != nil {
			return err
		}
	}
	return nil
}
