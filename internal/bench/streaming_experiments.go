package bench

import (
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/localratio"
	"repro/internal/matchutil"
	"repro/internal/randarrival"
	"repro/internal/stream"
	"repro/internal/unwaug"
)

// E1RandomArrivalWeighted probes Theorem 1.1: Rand-Arr-Matching beats the
// 1/2 barrier for weighted matching under random edge arrivals. Baselines:
// the sorted greedy (offline 1/2-approx) and the local-ratio algorithm run
// over the same random stream ([PS17], also a 1/2-approx).
func E1RandomArrivalWeighted(cfg Config) []Table {
	cfg = cfg.WithDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	sizes := []int{200, 500, 1000}
	if cfg.Quick {
		sizes = []int{100}
	}
	t := Table{
		ID:     "E1",
		Title:  "Theorem 1.1 — single-pass weighted matching, random arrivals",
		Claim:  "(1/2+c)-approx in expectation; baselines stall at 1/2",
		Header: []string{"n", "m", "greedy", "local-ratio", "rand-arr (Thm 1.1)", "|S|", "|T|"},
	}
	for _, n := range sizes {
		m := 8 * n
		var gSum, lrSum, raSum float64
		var sSum, tSum int
		for trial := 0; trial < cfg.Trials; trial++ {
			inst := graph.PlantedMatching(n, m-n/2, 1000, 2000, rng)
			order := stream.RandomOrder(inst.G, rng)

			greedy := matchutil.GreedyWeighted(inst.G)
			lr := localratio.Run(inst.G.N(), order.Edges())
			res := randarrival.RandArrMatching(inst.G.N(), stream.FromEdges(order.Edges()),
				randarrival.WeightedOptions{Rng: rng})

			gSum += matchutil.Ratio(greedy, inst.OptWeight)
			lrSum += matchutil.Ratio(lr, inst.OptWeight)
			raSum += matchutil.Ratio(res.M, inst.OptWeight)
			sSum += res.StackSize
			tSum += res.TSize
		}
		k := float64(cfg.Trials)
		t.Rows = append(t.Rows, []string{
			fi(n), fi(m), f3(gSum / k), f3(lrSum / k), f3(raSum / k),
			fi(sSum / cfg.Trials), fi(tSum / cfg.Trials),
		})
	}

	// Second table: the greedy-trap chains where the sorted greedy is stuck
	// near 1/2 (mid = out+1 per length-3 segment); breaking the barrier
	// requires recovering the outer edges via weighted 3-augmentations.
	trap := Table{
		ID:     "E1b",
		Title:  "Theorem 1.1 — greedy-trap chains (mid=51, out=50)",
		Claim:  "sorted greedy stuck near 0.51; Thm 1.1 algorithm recovers more",
		Header: []string{"segments", "sorted greedy", "local-ratio (rand)", "rand-arr (Thm 1.1)"},
	}
	segs := []int{200, 800}
	if cfg.Quick {
		segs = []int{100}
	}
	for _, k := range segs {
		inst := graph.AugmentingChain(k, 50, 51, rng)
		var gSum, lrSum, raSum float64
		for trial := 0; trial < cfg.Trials; trial++ {
			order := stream.RandomOrder(inst.G, rng)
			greedy := matchutil.GreedyWeighted(inst.G)
			lr := localratio.Run(inst.G.N(), order.Edges())
			res := randarrival.RandArrMatching(inst.G.N(), stream.FromEdges(order.Edges()),
				randarrival.WeightedOptions{Rng: rng})
			gSum += matchutil.Ratio(greedy, inst.OptWeight)
			lrSum += matchutil.Ratio(lr, inst.OptWeight)
			raSum += matchutil.Ratio(res.M, inst.OptWeight)
		}
		kk := float64(cfg.Trials)
		trap.Rows = append(trap.Rows, []string{
			fi(k), f3(gSum / kk), f3(lrSum / kk), f3(raSum / kk),
		})
	}
	return []Table{t, trap}
}

// E2RandomArrivalUnweighted probes Theorem 3.4: the one-pass unweighted
// algorithm beats greedy's 1/2 on hard instances (chains of 3-augmenting
// paths) under random arrivals.
func E2RandomArrivalUnweighted(cfg Config) []Table {
	cfg = cfg.WithDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	segs := []int{100, 300, 1000}
	if cfg.Quick {
		segs = []int{60}
	}
	t := Table{
		ID:     "E2",
		Title:  "Theorem 3.4 — single-pass unweighted matching, random arrivals",
		Claim:  "0.506-approx in expectation vs greedy's 1/2 (hard chains)",
		Header: []string{"segments", "n", "greedy", "Thm 3.4 alg", "lift"},
	}
	for _, k := range segs {
		inst := graph.AugmentingChain(k, 1, 1, rng)
		opt := float64(2 * k)
		var gSum, aSum float64
		for trial := 0; trial < cfg.Trials; trial++ {
			order := stream.RandomOrder(inst.G, rng)
			g := randarrival.GreedyRandomArrival(inst.G.N(), stream.FromEdges(order.Edges()))
			a := randarrival.UnweightedRandomArrival(inst.G.N(), stream.FromEdges(order.Edges()),
				randarrival.UnweightedOptions{Beta: 0.5})
			gSum += float64(g.Size()) / opt
			aSum += float64(a.M.Size()) / opt
		}
		kk := float64(cfg.Trials)
		t.Rows = append(t.Rows, []string{
			fi(k), fi(inst.G.N()), f3(gSum / kk), f3(aSum / kk), f3(aSum/kk - gSum/kk),
		})
	}
	return []Table{t}
}

// E3ThreeAugPaths probes Lemma 3.1: with beta*|M| planted vertex-disjoint
// 3-augmenting paths in the stream, Unw-3-Aug-Paths recovers at least
// (beta^2/32)*|M| using O(|M|) space.
func E3ThreeAugPaths(cfg Config) []Table {
	cfg = cfg.WithDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	k := 400
	if cfg.Quick {
		k = 100
	}
	t := Table{
		ID:     "E3",
		Title:  "Lemma 3.1 — streaming 3-augmenting path recovery",
		Claim:  "recovered >= (beta^2/32)|M| with |S| <= 4|M|",
		Header: []string{"beta", "|M|", "planted", "recovered", "bound", "|S|", "4|M|"},
	}
	for _, beta := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		var recSum, sSum int
		planted := int(beta * float64(k))
		for trial := 0; trial < cfg.Trials; trial++ {
			inst, m0 := graph.ThreeAugWorkload(k, beta, 5*k, rng)
			f := unwaug.New(m0, beta)
			s := stream.RandomOrder(inst.G, rng)
			for e, ok := s.Next(); ok; e, ok = s.Next() {
				if !m0.Has(e.U, e.V) {
					f.Feed(e)
				}
			}
			recSum += len(f.Finalize())
			sSum += f.SupportSize()
		}
		bound := int(beta * beta / 32 * float64(k))
		t.Rows = append(t.Rows, []string{
			f3(beta), fi(k), fi(planted), fi(recSum / cfg.Trials), fi(bound),
			fi(sSum / cfg.Trials), fi(4 * k),
		})
	}
	return []Table{t}
}

// E6SpaceUsage probes Lemma 3.15: under random arrival both the local-ratio
// stack S and the post-freeze set T hold O(n log n) edges, while adversarial
// (ascending weight) order blows the stack up towards m.
func E6SpaceUsage(cfg Config) []Table {
	cfg = cfg.WithDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	sizes := []int{100, 200, 400}
	if cfg.Quick {
		sizes = []int{80}
	}
	t := Table{
		ID:    "E6",
		Title: "Lemma 3.15 — local-ratio stack and T-set space",
		Claim: "|S|, |T| in O(n polylog n) whp under random arrival; " +
			"[PS17] bounding rescues adversarial order",
		Header: []string{"n", "m", "|S| random", "|S| adversarial", "|S| adv bounded [PS17]", "|T| random", "n·ln n"},
	}
	for _, n := range sizes {
		m := n * n / 4
		var sRand, sAdv, sBnd, tRand int
		for trial := 0; trial < cfg.Trials; trial++ {
			inst := graph.RandomGraph(n, m, 1<<20, rng)

			res := randarrival.RandArrMatching(n, stream.RandomOrder(inst.G, rng),
				randarrival.WeightedOptions{Rng: rng})
			sRand += res.StackSize
			tRand += res.TSize

			// Adversarial: ascending weights force every edge into the
			// stack of a plain local-ratio run; the [PS17] bounded variant
			// keeps the stack near n·log W.
			asc := inst.G.SortedEdges()
			for i, j := 0, len(asc)-1; i < j; i, j = i+1, j-1 {
				asc[i], asc[j] = asc[j], asc[i]
			}
			p := localratio.New(n)
			pb := localratio.NewBounded(n, 0.2)
			for _, e := range asc {
				p.Process(e)
				pb.Process(e)
			}
			sAdv += p.PeakStackLen()
			sBnd += pb.PeakStackLen()
		}
		t.Rows = append(t.Rows, []string{
			fi(n), fi(m), fi(sRand / cfg.Trials), fi(sAdv / cfg.Trials),
			fi(sBnd / cfg.Trials),
			fi(tRand / cfg.Trials), f1(float64(n) * math.Log(float64(n))),
		})
	}
	return []Table{t}
}
