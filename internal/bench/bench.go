// Package bench contains the experiment harness that regenerates the
// paper's quantitative claims (DESIGN.md, "Experiment index"). Each
// experiment Ek returns one or more tables whose rows are the measured
// counterparts of a theorem, lemma, table, or figure of
// Gamlath–Kale–Mitrović–Svensson (PODC 2019).
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Config scales an experiment run.
type Config struct {
	// Seed makes every experiment deterministic.
	Seed int64
	// Trials is the number of repetitions averaged per row (default 5).
	Trials int
	// Quick shrinks instance sizes for use inside testing.B loops.
	Quick bool
}

// WithDefaults returns the configuration an experiment actually runs: a
// Trials ≤ 0 becomes 5 and a Seed of 0 becomes 1.
func (c Config) WithDefaults() Config {
	if c.Trials <= 0 {
		c.Trials = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper claim this table probes
	Header []string
	Rows   [][]string
}

// Render pretty-prints the table.
func (t Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(w, "   paper: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "   %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}

// Runner is one experiment.
type Runner func(Config) []Table

// Registry maps experiment ids to runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"E1":  E1RandomArrivalWeighted,
		"E2":  E2RandomArrivalUnweighted,
		"E3":  E3ThreeAugPaths,
		"E4":  E4MultipassWeighted,
		"E5":  E5MPCWeighted,
		"E6":  E6SpaceUsage,
		"E7":  E7FilterSoundness,
		"E8":  E8LayeredCapture,
		"E9":  E9TauPairs,
		"E10": E10Overhead,
		"E11": E11Ablations,
		"E12": E12Convergence,
		"E13": E13SolverBound,
		"E14": E14UniformClass,
		"E18": E18EditStream,
		"E20": E20StreamScale,
	}
}

// IDs returns the experiment ids in order.
func IDs() []string {
	reg := Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if len(ids[i]) != len(ids[j]) {
			return len(ids[i]) < len(ids[j])
		}
		return ids[i] < ids[j]
	})
	return ids
}

// RunAll executes every experiment and renders to w.
func RunAll(cfg Config, w io.Writer) {
	reg := Registry()
	for _, id := range IDs() {
		for _, t := range reg[id](cfg) {
			t.Render(w)
		}
	}
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func fi(v int) string     { return fmt.Sprintf("%d", v) }
func fi64(v int64) string { return fmt.Sprintf("%d", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
