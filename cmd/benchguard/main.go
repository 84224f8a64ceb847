// Command benchguard turns `go test -bench` output into a pass/fail gate
// for CI. It evaluates three kinds of bounds at two severities:
//
//   - relative (GATE): -speedup "BenchmarkSolveAmortized/BenchmarkSolve>=1.2"
//     requires the first benchmark to be at least 1.2× faster than the
//     second within the same run. Ratios compare two measurements from one
//     machine, so they are immune to runner-speed variance — same-run A/B
//     ratios are the only checks that fail CI.
//   - absolute time (WARNING): -baseline BENCH_pr2.json -slack 3 compares
//     every benchmark present in both the run and the baseline file
//     against slack × its committed ns/op. Absolute bounds proved to flake
//     across container bins (the ledger documents 10–25% drift between PR
//     windows with no code change), so a breach is recorded in the -out
//     report and printed as a warning, never an exit failure — CI machines
//     are not the ledger machine. See docs/OPERATIONS.md, "Benchmark gate
//     policy".
//   - absolute allocations (WARNING): -allocslack 1.5 compares allocs/op
//     against allocslack × the committed allocs_per_op of the same
//     baseline (needs `go test -benchmem`). Deterministic in principle,
//     but tied to the same drifting bins, so warning-severity too.
//
// A benchmark that appears on several lines (go test -count=N) is gated
// and reported on the median of its lines, so one noisy sample cannot flip
// a gate.
//
// With -out FILE the parsed measurements and every check's verdict —
// including the warning-severity breaches that did not fail the run — are
// written as JSON, the per-run perf artifact CI uploads so that regressions
// can be traced across runs without rerunning anything.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkSolve' -benchmem . | benchguard \
//	    -speedup 'BenchmarkSolveAmortized/BenchmarkSolve>=1.2' \
//	    -baseline BENCH_pr2.json -slack 3 -allocslack 1.5 -out result.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdin); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}

// benchLine matches `BenchmarkName[-procs] <iters> <ns> ns/op ...`; the
// allocs group is present when the run used -benchmem.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:.*?\s([0-9]+) allocs/op)?`)

// measurement is one benchmark's numbers: the medians over its Samples
// lines. AllocsPerOp is -1 when the run did not report allocations (no
// -benchmem); a real 0 means an allocation-free benchmark, so the field is
// always emitted.
type measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Samples     int     `json:"samples"`
}

// median returns the middle value of xs, or the mean of the two middle
// values for an even count.
func median[T int64 | float64](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func parseBench(r *os.File) (map[string]measurement, error) {
	ns := make(map[string][]float64)
	allocs := make(map[string][]int64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // echo so the CI log keeps the raw numbers
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", line, err)
		}
		a := int64(-1)
		if m[3] != "" {
			if a, err = strconv.ParseInt(m[3], 10, 64); err != nil {
				return nil, fmt.Errorf("line %q: %w", line, err)
			}
		}
		ns[m[1]] = append(ns[m[1]], v)
		allocs[m[1]] = append(allocs[m[1]], a)
	}
	out := make(map[string]measurement, len(ns))
	for name, vs := range ns {
		out[name] = measurement{NsPerOp: median(vs), AllocsPerOp: median(allocs[name]), Samples: len(vs)}
	}
	return out, sc.Err()
}

// baselineFile mirrors the BENCH_*.json ledger shape: a benchmarks array
// whose entries carry a name and an `after` measurement.
type baselineFile struct {
	Benchmarks []struct {
		Name  string `json:"name"`
		After *struct {
			NsPerOp     float64 `json:"ns_per_op"`
			AllocsPerOp int64   `json:"allocs_per_op"`
		} `json:"after"`
	} `json:"benchmarks"`
}

// check is one evaluated bound's verdict, as emitted into the -out report.
// Severity "gate" fails the run on !OK; "warn" only surfaces in the report
// and the log (the absolute baseline bounds, which drift with the runner's
// bin — see the package comment).
type check struct {
	Kind     string  `json:"kind"`     // "speedup", "time-baseline", "allocs-baseline"
	Severity string  `json:"severity"` // "gate" or "warn"
	Spec     string  `json:"spec"`
	Measured float64 `json:"measured"`
	Limit    float64 `json:"limit"`
	OK       bool    `json:"ok"`
}

type report struct {
	Benchmarks map[string]measurement `json:"benchmarks"`
	Checks     []check                `json:"checks"`
	Pass       bool                   `json:"pass"`
}

func run(args []string, stdin *os.File) error {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	speedups := fs.String("speedup", "", "comma-separated relative bounds, each \"A/B>=ratio\"")
	baseline := fs.String("baseline", "", "BENCH_*.json ledger file for absolute bounds")
	slack := fs.Float64("slack", 3.0, "allowed multiple of the baseline ns/op")
	allocSlack := fs.Float64("allocslack", 0, "allowed multiple of the baseline allocs/op (0 disables; needs -benchmem input)")
	outPath := fs.String("out", "", "write the parsed measurements and check verdicts as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	got, err := parseBench(stdin)
	if err != nil {
		return err
	}
	if len(got) == 0 {
		return fmt.Errorf("no benchmark lines on stdin")
	}

	rep := report{Benchmarks: got}
	var failures []string
	record := func(c check, failure string) {
		rep.Checks = append(rep.Checks, c)
		if c.OK {
			return
		}
		if c.Severity == "gate" {
			failures = append(failures, failure)
		} else {
			// Warning severity: the breach lands in the report and the log,
			// not the exit code (absolute bounds drift with the runner bin).
			fmt.Printf("benchguard: warning: %s\n", failure)
		}
	}

	for _, spec := range strings.Split(*speedups, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		var fast, slow string
		var ratio float64
		parts := strings.SplitN(spec, ">=", 2)
		if len(parts) != 2 {
			return fmt.Errorf("bad -speedup spec %q (want A/B>=ratio)", spec)
		}
		names := strings.SplitN(parts[0], "/", 2)
		if len(names) != 2 {
			return fmt.Errorf("bad -speedup spec %q (want A/B>=ratio)", spec)
		}
		fast, slow = names[0], names[1]
		if ratio, err = strconv.ParseFloat(parts[1], 64); err != nil {
			return fmt.Errorf("bad ratio in %q: %w", spec, err)
		}
		fastM, ok1 := got[fast]
		slowM, ok2 := got[slow]
		if !ok1 || !ok2 {
			return fmt.Errorf("speedup %q: missing benchmark (have %v)", spec, keys(got))
		}
		measured := slowM.NsPerOp / fastM.NsPerOp
		ok := measured >= ratio
		record(check{Kind: "speedup", Severity: "gate", Spec: spec, Measured: measured, Limit: ratio, OK: ok},
			fmt.Sprintf("%s is only %.2fx faster than %s, want >= %.2fx", fast, measured, slow, ratio))
		if ok {
			fmt.Printf("benchguard: %s %.2fx faster than %s (>= %.2fx) ok\n", fast, measured, slow, ratio)
		}
	}

	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			return err
		}
		var base baselineFile
		if err := json.Unmarshal(raw, &base); err != nil {
			return fmt.Errorf("%s: %w", *baseline, err)
		}
		for _, b := range base.Benchmarks {
			if b.After == nil {
				continue
			}
			m, ok := got[b.Name]
			if !ok {
				continue
			}
			if b.After.NsPerOp > 0 {
				limit := b.After.NsPerOp * *slack
				ok := m.NsPerOp <= limit
				record(check{Kind: "time-baseline", Severity: "warn", Spec: b.Name, Measured: m.NsPerOp, Limit: limit, OK: ok},
					fmt.Sprintf("%s: %.0f ns/op exceeds %.1fx baseline %.0f", b.Name, m.NsPerOp, *slack, b.After.NsPerOp))
				if ok {
					fmt.Printf("benchguard: %s %.0f ns/op within %.1fx of baseline %.0f ok\n",
						b.Name, m.NsPerOp, *slack, b.After.NsPerOp)
				}
			}
			if *allocSlack > 0 && b.After.AllocsPerOp > 0 && m.AllocsPerOp >= 0 {
				limit := float64(b.After.AllocsPerOp) * *allocSlack
				ok := float64(m.AllocsPerOp) <= limit
				record(check{Kind: "allocs-baseline", Severity: "warn", Spec: b.Name, Measured: float64(m.AllocsPerOp), Limit: limit, OK: ok},
					fmt.Sprintf("%s: %d allocs/op exceeds %.1fx baseline %d", b.Name, m.AllocsPerOp, *allocSlack, b.After.AllocsPerOp))
				if ok {
					fmt.Printf("benchguard: %s %d allocs/op within %.1fx of baseline %d ok\n",
						b.Name, m.AllocsPerOp, *allocSlack, b.After.AllocsPerOp)
				}
			}
		}
	}

	rep.Pass = len(failures) == 0
	if *outPath != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		raw = append(raw, '\n')
		if err := os.WriteFile(*outPath, raw, 0o644); err != nil {
			return err
		}
	}

	if len(failures) > 0 {
		return fmt.Errorf("%s", strings.Join(failures, "; "))
	}
	return nil
}

func keys(m map[string]measurement) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
