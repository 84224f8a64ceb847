// Command augserve exposes one long-lived matching Solve as an HTTP
// service over the fully-dynamic mutation stream: clients queue edge
// inserts, deletes, and reweights; each tick applies the queued batch
// through core.Runner.ApplyMutations — the incremental index absorbs the
// edits through its change clocks, bit-identical to a cold solve on the
// post-edit graph — and re-converges the matching. Reads are snapshots of
// the current matching and the full reflective core.Stats counter ledger.
//
// Usage:
//
//	auggen -family banded -n 200 -m 1200 | augserve -addr :8080
//	augserve -input g.txt -snapshot state.snap -resume -tick 2s
//
// Endpoints:
//
//	GET  /healthz   liveness ("ok")
//	GET  /matching  current matching: weight, size, graph dims, tick, edges
//	GET  /stats     the core.Stats ledger as a flat JSON object (reflective:
//	                a counter added by a future PR appears automatically)
//	POST /mutate    queue mutations: JSON array of {"op","u","v","w"}
//	                (op: insert | delete | reweight; w ignored for delete);
//	                an unknown op, a vertex outside [0, n), a self loop or
//	                a w ≤ 0 is a 400, and the request queues nothing
//	POST /tick      apply the queued batch and re-converge; reports the
//	                ops applied, the augmentation gain, and the new weight
//	POST /snapshot  persist a resumable checkpoint to the -snapshot path
//
// With -tick > 0 the server also ticks on a timer, logging a failed tick
// to standard error; with -tick 0 (the default) ticks happen only on
// POST /tick, which is what the scripted CI smoke drives. The restart
// story is the PR 6 snapshot container: the checkpoint persists the
// post-edit graph, the matching, the accumulated stats, and the Rng
// stream position (seed + draw count); -resume picks all of it up and
// rebuilds the amortised context from scratch, the same rebuild-twin
// equivalence the degradation ladder leans on. A missing or corrupt
// snapshot degrades to a cold start, never an error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/layered"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "augserve:", err)
		os.Exit(1)
	}
}

// config is the parsed flag set of one server instance.
type config struct {
	addr        string
	input       string
	seed        int64
	granularity float64
	workers     int
	snapshot    string
	resume      bool
	tick        time.Duration
	opts        core.Options
}

// options resolves the solver configuration the flags describe. The server
// always runs the amortised pipeline — the mutation stream is its reason
// to exist.
func (c *config) options() core.Options {
	return core.Options{
		Amortize: true,
		Workers:  c.workers,
		Layered:  layered.Params{Granularity: c.granularity},
	}
}

// server owns the live Solve state: one graph, one matching, one
// persistent Runner, and the mutation batch queued for the next tick.
// Every handler takes the one mutex — ticks re-converge a whole matching,
// so there is nothing to gain from finer locking, and the coarse lock
// makes the snapshot trivially consistent.
type server struct {
	mu      sync.Mutex
	cfg     config
	g       *graph.Graph
	m       *graph.Matching
	runner  *core.Runner
	stats   core.Stats
	cs      *core.CountingSource
	seed    int64 // the Rng stream's origin seed (the checkpoint's on resume)
	pending core.MutationBatch
	ticks   int
	resumed bool
	coldMsg string // why a requested resume started cold, "" if it didn't
}

// newServer builds the service state over g, resuming from cfg.snapshot
// when requested and the checkpoint is usable. The resumed graph replaces
// g entirely — the snapshot's post-edit graph is the service's truth.
func newServer(g *graph.Graph, cfg config) *server {
	s := &server{cfg: cfg, g: g, seed: cfg.seed}
	if cfg.resume && cfg.snapshot != "" {
		if cp, err := core.LoadCheckpoint(cfg.snapshot); err != nil {
			s.coldMsg = err.Error()
		} else if !cp.Meta.Compatible(core.MetaOf(cfg.opts)) {
			s.coldMsg = core.ErrCheckpointOptions.Error()
		} else {
			s.g, s.m = cp.Graph, cp.M
			s.stats = cp.Stats
			s.ticks = cp.Round
			s.seed = cp.RngSeed
			s.cs = core.ReplayCountingSource(cp.RngSeed, cp.RngDraws)
			s.resumed = true
		}
	}
	if s.cs == nil {
		s.cs = core.NewCountingSource(s.seed)
	}
	if s.m == nil {
		s.m = graph.NewMatching(s.g.N())
	}
	opts := cfg.opts
	opts.Rng = rand.New(s.cs)
	s.runner = core.NewRunner(s.g, opts)
	return s
}

// checkpoint assembles the current state as a core.Checkpoint. Caller
// holds the lock.
func (s *server) checkpoint() *core.Checkpoint {
	return &core.Checkpoint{
		Graph: s.g, M: s.m,
		Round: s.ticks, Stalled: 0,
		Stats:   s.stats,
		RngSeed: s.seed, RngDraws: s.cs.Draws(),
		Meta: core.MetaOf(s.cfg.opts),
	}
}

// tick applies the queued batch and re-converges. Caller holds the lock.
func (s *server) tick() (applied int, gain graph.Weight, err error) {
	batch := s.pending
	s.pending = core.MutationBatch{}
	before := s.stats.MutationsApplied
	gain, err = s.runner.Tick(s.m, &batch, &s.stats)
	s.ticks++
	return s.stats.MutationsApplied - before, gain, err
}

// timedTick is one tick of the -tick timer. A failed tick is logged with
// its tick number and applied count: POST /tick returns those to its
// client, but the timer has no client to tell.
func (s *server) timedTick(logger *log.Logger) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if applied, _, err := s.tick(); err != nil {
		logger.Printf("tick %d failed after %d applied ops: %v", s.ticks, applied, err)
	}
}

// mutationReq is the wire form of one queued edit.
type mutationReq struct {
	Op string       `json:"op"`
	U  int          `json:"u"`
	V  int          `json:"v"`
	W  graph.Weight `json:"w,omitempty"`
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handler wires the endpoint set. Split from ListenAndServe so the smoke
// test drives the identical mux through httptest.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})

	mux.HandleFunc("GET /matching", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		type edge struct {
			U int          `json:"u"`
			V int          `json:"v"`
			W graph.Weight `json:"w"`
		}
		edges := make([]edge, 0, s.m.Size())
		for _, e := range s.m.Edges() {
			edges = append(edges, edge{e.U, e.V, e.W})
		}
		writeJSON(w, map[string]any{
			"weight": s.m.Weight(), "size": s.m.Size(),
			"n": s.g.N(), "m": s.g.M(),
			"tick": s.ticks, "resumed": s.resumed,
			"edges": edges,
		})
	})

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		counters := make(map[string]int64)
		for _, f := range s.stats.Fields() {
			counters[f.Name] = f.Value
		}
		writeJSON(w, counters)
	})

	mux.HandleFunc("POST /mutate", func(w http.ResponseWriter, r *http.Request) {
		var reqs []mutationReq
		if err := json.NewDecoder(r.Body).Decode(&reqs); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// Validate the whole request into a local batch before touching the
		// queue: a rejected request must queue nothing. The previous loop
		// appended straight into s.pending and bailed mid-iteration on an
		// unknown op, so a 400 response could leave the request's valid
		// prefix queued for the next tick — the client retries the fixed
		// request and the prefix applies twice. Each op must also pass the
		// graph's edge rules here: a queued op that fails them stops the
		// next tick, and the ops other clients queued behind it are lost.
		// The vertex count never changes, so reading it needs no lock.
		n := s.g.N()
		var batch core.MutationBatch
		for i, q := range reqs {
			e := graph.Edge{U: q.U, V: q.V, W: q.W}
			switch q.Op {
			case "insert":
				batch.InsertEdge(q.U, q.V, q.W)
			case "delete":
				batch.DeleteEdge(q.U, q.V)
				e.W = 1 // a delete ignores w: only its endpoints are checked
			case "reweight":
				batch.ReweightEdge(q.U, q.V, q.W)
			default:
				http.Error(w, fmt.Sprintf("unknown op %q", q.Op), http.StatusBadRequest)
				return
			}
			if err := graph.CheckEdge(n, e); err != nil {
				http.Error(w, fmt.Sprintf("op %d: %v", i, err), http.StatusBadRequest)
				return
			}
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		s.pending.Extend(batch.Ops())
		writeJSON(w, map[string]any{"queued": s.pending.Len()})
	})

	mux.HandleFunc("POST /tick", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		applied, gain, err := s.tick()
		if err != nil {
			// The batch prefix before the failing op stays applied and the
			// runner stays consistent (see ApplyMutations); report the error
			// with the post-tick state so the client can reconcile.
			writeJSON(w, map[string]any{
				"error": err.Error(), "tick": s.ticks, "applied": applied,
				"weight": s.m.Weight(), "size": s.m.Size(),
			})
			return
		}
		writeJSON(w, map[string]any{
			"tick": s.ticks, "applied": applied, "gain": gain,
			"weight": s.m.Weight(), "size": s.m.Size(),
		})
	})

	mux.HandleFunc("POST /snapshot", func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.snapshot == "" {
			http.Error(w, "no -snapshot path configured", http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		cp := s.checkpoint()
		if err := core.SaveCheckpoint(s.cfg.snapshot, cp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, map[string]any{
			"path": s.cfg.snapshot, "tick": s.ticks, "rng-draws": s.cs.Draws(),
		})
	})

	return mux
}

// newFlagSet declares augserve's flags; shared with the golden -help test.
func newFlagSet(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("augserve", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8377", "listen address")
	fs.StringVar(&cfg.input, "input", "-", "graph file in text edge format ('-' = stdin)")
	fs.Int64Var(&cfg.seed, "seed", 1, "random seed for the bipartition stream")
	fs.Float64Var(&cfg.granularity, "granularity", 0, "layered-graph granularity (0 = default 1/8)")
	fs.IntVar(&cfg.workers, "workers", 0, "per-class worker pool size (0 = sequential)")
	fs.StringVar(&cfg.snapshot, "snapshot", "", "checkpoint path for POST /snapshot and -resume")
	fs.BoolVar(&cfg.resume, "resume", false, "resume from the -snapshot checkpoint; an unusable snapshot degrades to a cold start")
	fs.DurationVar(&cfg.tick, "tick", 0, "tick period (0 = tick only on POST /tick)")
	return fs
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	var cfg config
	fs := newFlagSet(&cfg)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.resume && cfg.snapshot == "" {
		return fmt.Errorf("-resume requires -snapshot")
	}
	cfg.opts = cfg.options()

	var r io.Reader = stdin
	if cfg.input != "-" {
		f, err := os.Open(cfg.input)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	g, err := graph.Read(r)
	if err != nil {
		return err
	}

	s := newServer(g, cfg)
	if s.resumed {
		fmt.Fprintf(stdout, "resumed tick=%d n=%d m=%d weight=%d\n", s.ticks, s.g.N(), s.g.M(), s.m.Weight())
	} else if cfg.resume {
		fmt.Fprintf(stdout, "cold start (snapshot unusable: %s)\n", s.coldMsg)
	}
	if cfg.tick > 0 {
		logger := log.New(os.Stderr, "augserve: ", log.LstdFlags)
		go func() {
			for range time.Tick(cfg.tick) {
				s.timedTick(logger)
			}
		}()
	}
	fmt.Fprintf(stdout, "listening on %s (n=%d m=%d)\n", cfg.addr, g.N(), g.M())
	return http.ListenAndServe(cfg.addr, s.handler())
}
