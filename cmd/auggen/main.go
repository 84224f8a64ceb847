// Command auggen generates benchmark graphs in the text edge format
// ("p <n> <m>" header, then "<u> <v> <w>" lines) on stdout, or in the
// binary stream-file format (docs/OPERATIONS.md, "Stream files") with
// -binary.
//
// Usage:
//
//	auggen -family planted -n 1000 -m 8000 -seed 1 > g.txt
//	auggen -family stream -n 100000 -m 10000000 -binary g.estream -order random
//
// Families: random, planted, bipartite, cycle, chain, geometric, stream.
// For families with a known optimum the weight is emitted as a comment.
//
// The stream family is generated edge-by-edge and written straight to the
// binary format — no in-RAM graph or edge slice ever exists, so it scales
// to streams far larger than memory (with -order random the
// external-memory shuffle keeps that property while producing a uniformly
// random arrival order). It requires -binary and does not deduplicate
// edges (the stream is a multigraph sample).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/graph"
	"repro/internal/stream"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "auggen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("auggen", flag.ContinueOnError)
	family := fs.String("family", "random", "random|planted|bipartite|cycle|chain|geometric|stream")
	n := fs.Int("n", 100, "vertex count (segments for chain; half-length for cycle)")
	m := fs.Int("m", 500, "edge count (noise edges for planted)")
	maxw := fs.Int64("maxw", 1000, "maximum edge weight")
	seed := fs.Int64("seed", 1, "random seed")
	binary := fs.String("binary", "", "write a binary stream file to this path instead of text on stdout")
	order := fs.String("order", "arrival", "edge order for -binary: arrival|random")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *order != "arrival" && *order != "random" {
		return fmt.Errorf("unknown order %q (want arrival or random)", *order)
	}
	if *n < 0 {
		return fmt.Errorf("-n %d: want a non-negative count", *n)
	}
	if *m < 0 {
		return fmt.Errorf("-m %d: want a non-negative count", *m)
	}
	// Every weight must be positive: planted, chain and cycle draw theirs
	// from maxw/2 or 3·maxw/4, the other families from [1, maxw].
	minW := int64(1)
	if *family == "planted" || *family == "chain" || *family == "cycle" {
		minW = 2
	}
	if *maxw < minW {
		return fmt.Errorf("-maxw %d: family %s needs at least %d", *maxw, *family, minW)
	}
	rng := rand.New(rand.NewSource(*seed))

	if *family == "stream" {
		if *binary == "" {
			return fmt.Errorf("family stream generates out of core and requires -binary")
		}
		return writeBinary(*binary, *n, *order, graph.RandomEdgeSource(*n, *m, graph.Weight(*maxw), rng), rng)
	}

	var inst graph.Instance
	switch *family {
	case "random":
		inst = graph.RandomGraph(*n, *m, *maxw, rng)
	case "planted":
		inst = graph.PlantedMatching(*n, *m, *maxw/2, *maxw, rng)
	case "bipartite":
		inst = graph.RandomBipartite(*n/2, *n-*n/2, *m, *maxw, rng)
	case "cycle":
		inst = graph.WeightedCycle(*n, 3**maxw/4, *maxw)
	case "chain":
		inst = graph.AugmentingChain(*n, *maxw/2, *maxw/2+1, rng)
	case "geometric":
		inst = graph.GeometricWeights(*n, *m, 2, 12, rng)
	default:
		return fmt.Errorf("unknown family %q", *family)
	}
	if *binary != "" {
		return writeBinary(*binary, inst.G.N(), *order, stream.SliceSource(inst.G.Edges()), rng)
	}
	if inst.OptExact {
		fmt.Printf("# optimum %d\n", inst.OptWeight)
	}
	_, err := inst.G.WriteTo(os.Stdout)
	return err
}

// writeBinary lands the generated edges in the stream-file format,
// shuffled in external memory when order is "random".
func writeBinary(path string, n int, order string, src func() (graph.Edge, bool), rng *rand.Rand) error {
	var wrote int
	var err error
	if order == "random" {
		wrote, err = stream.ShuffleToFile(path, n, src, rng, 0)
	} else {
		wrote, err = stream.WriteFile(path, n, src)
	}
	if err != nil {
		return err
	}
	fmt.Printf("# wrote %d edges to %s (%s order)\n", wrote, path, order)
	return nil
}
