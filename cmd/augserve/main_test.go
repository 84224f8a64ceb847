package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// postJSON posts v to url and decodes the JSON response into out.
func postJSON(t *testing.T, url string, v any, out any) *http.Response {
	t.Helper()
	var body bytes.Buffer
	if v != nil {
		if err := json.NewEncoder(&body).Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestServeSmoke is the CI smoke: start the server, drive a scripted
// mutation batch through /mutate + /tick, and assert (a) the resulting
// weight equals a cold Solve on the post-edit graph — the service is just
// the dynamic pipeline behind HTTP — and (b) the stats ledger's fallback
// row is clean: nothing in the scripted run degraded.
func TestServeSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inst := graph.RandomGraph(40, 160, 64, rng)
	cfg := config{seed: 9}
	cfg.opts = cfg.options()
	s := newServer(inst.G.Clone(), cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	// Scripted batch: one insert, one delete, one reweight — applied to a
	// twin graph by hand for the cold-solve comparison below.
	twin := inst.G.Clone()
	e0, e1 := twin.EdgeAt(0), twin.EdgeAt(1)
	muts := []mutationReq{
		{Op: "insert", U: 2, V: 37, W: 99},
		{Op: "delete", U: e0.U, V: e0.V},
		{Op: "reweight", U: e1.U, V: e1.V, W: e1.W + 17},
	}
	if err := twin.AddEdge(graph.Edge{U: 2, V: 37, W: 99}); err != nil {
		t.Fatal(err)
	}
	i, _ := twin.FindEdge(e0.U, e0.V)
	if _, err := twin.RemoveEdgeAt(i); err != nil {
		t.Fatal(err)
	}
	i, _ = twin.FindEdge(e1.U, e1.V)
	if err := twin.SetEdgeWeight(i, e1.W+17); err != nil {
		t.Fatal(err)
	}

	var queued struct{ Queued int }
	postJSON(t, ts.URL+"/mutate", muts, &queued)
	if queued.Queued != 3 {
		t.Fatalf("queued = %d, want 3", queued.Queued)
	}
	var tick struct {
		Tick, Applied int
		Weight        int64
		Size          int
	}
	postJSON(t, ts.URL+"/tick", nil, &tick)
	if tick.Applied != 3 || tick.Tick != 1 {
		t.Fatalf("tick = %+v, want 3 ops applied on tick 1", tick)
	}

	// The batch landed before any round, so the converged weight must be a
	// cold Solve's on the post-edit graph under the same seed (the counting
	// source draws from the very generator rand.NewSource yields).
	cold, err := core.Solve(twin, nil, core.Options{
		Amortize: true, Rng: rand.New(rand.NewSource(9)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if tick.Weight != int64(cold.M.Weight()) {
		t.Fatalf("served weight %d != cold solve weight %d on post-edit graph", tick.Weight, cold.M.Weight())
	}

	var matching struct {
		Weight int64
		Size   int
		M      int
		Edges  []mutationReq
	}
	getJSON(t, ts.URL+"/matching", &matching)
	if matching.Weight != tick.Weight || matching.Size != tick.Size {
		t.Fatalf("/matching %+v disagrees with /tick %+v", matching, tick)
	}
	if matching.M != twin.M() {
		t.Fatalf("graph has %d edges, want %d after the batch", matching.M, twin.M())
	}

	counters := map[string]int64{}
	getJSON(t, ts.URL+"/stats", &counters)
	if counters["mutations-applied"] != 3 {
		t.Errorf("mutations-applied = %d, want 3", counters["mutations-applied"])
	}
	if counters["rounds"] == 0 {
		t.Error("no rounds recorded")
	}
	for name, v := range counters {
		if strings.HasPrefix(name, "fallback-") && v != 0 {
			t.Errorf("dirty fallback row: %s = %d", name, v)
		}
	}
}

// TestServeSnapshotRestart pins the restart story: snapshot a served run,
// bring up a second server resuming from it, and drive both with the same
// further batch — the restarted server must continue bit-identically
// (same weights, same matching edges), because the checkpoint pins the
// graph, matching, stats, and Rng stream position.
func TestServeSnapshotRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inst := graph.RandomGraph(30, 120, 32, rng)
	snap := filepath.Join(t.TempDir(), "serve.snap")
	cfg := config{seed: 11, snapshot: snap}
	cfg.opts = cfg.options()

	s1 := newServer(inst.G.Clone(), cfg)
	ts1 := httptest.NewServer(s1.handler())
	defer ts1.Close()

	postJSON(t, ts1.URL+"/mutate", []mutationReq{{Op: "insert", U: 1, V: 28, W: 50}}, nil)
	postJSON(t, ts1.URL+"/tick", nil, nil)
	var snapResp struct{ Tick int }
	postJSON(t, ts1.URL+"/snapshot", nil, &snapResp)
	if snapResp.Tick != 1 {
		t.Fatalf("snapshot at tick %d, want 1", snapResp.Tick)
	}

	cfg2 := cfg
	cfg2.resume = true
	// The resumed server's input graph is ignored in favour of the
	// checkpoint's post-edit graph; hand it the stale original to prove it.
	s2 := newServer(inst.G.Clone(), cfg2)
	if !s2.resumed {
		t.Fatalf("server did not resume (cold: %s)", s2.coldMsg)
	}
	ts2 := httptest.NewServer(s2.handler())
	defer ts2.Close()

	// Same continuation on both: delete one matched edge, re-converge.
	var m1 struct{ Edges []mutationReq }
	getJSON(t, ts1.URL+"/matching", &m1)
	if len(m1.Edges) == 0 {
		t.Fatal("no matched edges to continue with")
	}
	cont := []mutationReq{{Op: "delete", U: m1.Edges[0].U, V: m1.Edges[0].V}}
	var t1, t2 struct {
		Weight int64
		Size   int
	}
	postJSON(t, ts1.URL+"/mutate", cont, nil)
	postJSON(t, ts1.URL+"/tick", nil, &t1)
	postJSON(t, ts2.URL+"/mutate", cont, nil)
	postJSON(t, ts2.URL+"/tick", nil, &t2)
	if t1 != t2 {
		t.Fatalf("continuations diverge: original %+v vs restarted %+v", t1, t2)
	}
	var e1, e2 struct{ Edges []mutationReq }
	getJSON(t, ts1.URL+"/matching", &e1)
	getJSON(t, ts2.URL+"/matching", &e2)
	if fmt.Sprint(e1) != fmt.Sprint(e2) {
		t.Fatalf("matchings diverge after restart:\n%v\nvs\n%v", e1, e2)
	}
}

// TestSnapshotReportsPending: a snapshot holds the last tick's state, so
// ops /mutate queued after that tick are not in it. The /snapshot response
// counts them, and a server resumed from the snapshot has not applied them.
func TestSnapshotReportsPending(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inst := graph.RandomGraph(30, 120, 32, rng)
	cfg := config{seed: 11, snapshot: filepath.Join(t.TempDir(), "serve.snap")}
	cfg.opts = cfg.options()
	s1 := newServer(inst.G.Clone(), cfg)
	ts1 := httptest.NewServer(s1.handler())
	defer ts1.Close()

	postJSON(t, ts1.URL+"/mutate", []mutationReq{
		{Op: "insert", U: 1, V: 28, W: 50},
		{Op: "insert", U: 2, V: 27, W: 40},
	}, nil)
	var snap struct{ Tick, Pending int }
	postJSON(t, ts1.URL+"/snapshot", nil, &snap)
	if snap.Tick != 0 || snap.Pending != 2 {
		t.Fatalf("snapshot response tick %d pending %d, want 0 and 2", snap.Tick, snap.Pending)
	}

	cfg2 := cfg
	cfg2.resume = true
	s2 := newServer(inst.G.Clone(), cfg2)
	if !s2.resumed {
		t.Fatalf("server did not resume (cold: %s)", s2.coldMsg)
	}
	ts2 := httptest.NewServer(s2.handler())
	defer ts2.Close()
	var m struct{ M int }
	getJSON(t, ts2.URL+"/matching", &m)
	if m.M != inst.G.M() {
		t.Fatalf("resumed graph has %d edges, want the %d of the last tick", m.M, inst.G.M())
	}
}

// TestMutateRejectQueuesNothing is the regression for the /mutate
// partial-queue seam bug (PR 9): a request rejected with 400 — a valid
// prefix followed by an unknown op, or by an op that breaks the graph's
// edge rules — must leave the pending queue untouched. The old handler
// appended ops as it validated and bailed mid-loop, so the rejected
// request's prefix applied on the next tick; a client that fixed and
// retried the request would apply it twice. A body over the size cap is
// rejected the same way, with 413.
func TestMutateRejectQueuesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	inst := graph.RandomGraph(12, 30, 16, rng)
	cfg := config{seed: 2}
	cfg.opts = cfg.options()
	s := newServer(inst.G.Clone(), cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	e0 := inst.G.EdgeAt(0)
	prefix := []mutationReq{
		{Op: "insert", U: 1, V: 7, W: 40},
		{Op: "delete", U: e0.U, V: e0.V},
	}
	for _, bad := range []mutationReq{
		{Op: "sideways", U: 2, V: 3},
		{Op: "insert", U: 3, V: 12, W: 5}, // vertex out of range
		{Op: "insert", U: -1, V: 4, W: 5}, // negative vertex
		{Op: "insert", U: 5, V: 5, W: 5},  // self loop
		{Op: "insert", U: 2, V: 9, W: 0},  // zero weight
		{Op: "reweight", U: e0.U, V: e0.V, W: -3},
		{Op: "delete", U: 0, V: 40}, // vertex out of range
	} {
		req := append(append([]mutationReq(nil), prefix...), bad)
		if resp := postJSON(t, ts.URL+"/mutate", req, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("batch ending in %+v: status %d, want 400", bad, resp.StatusCode)
		}
		var tick struct {
			Applied int
			Error   string
		}
		postJSON(t, ts.URL+"/tick", nil, &tick)
		if tick.Applied != 0 || tick.Error != "" {
			t.Fatalf("request ending in %+v left ops behind: tick applied %d (error %q), want 0",
				bad, tick.Applied, tick.Error)
		}
	}

	// A body over the 1 MiB cap is refused with 413 and queues nothing,
	// even though it is a well-formed array of one valid op.
	huge := `[{"op":"insert","u":1,"v":7,"w":40}` + strings.Repeat(" ", maxMutateBody) + "]"
	resp, err := http.Post(ts.URL+"/mutate", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	var tick struct{ Applied int }
	postJSON(t, ts.URL+"/tick", nil, &tick)
	if tick.Applied != 0 {
		t.Fatalf("oversized body left %d ops behind, want 0", tick.Applied)
	}

	// The corrected retry applies exactly its own ops.
	var queued struct{ Queued int }
	postJSON(t, ts.URL+"/mutate", prefix, &queued)
	if queued.Queued != 2 {
		t.Fatalf("queued = %d, want 2", queued.Queued)
	}
	postJSON(t, ts.URL+"/tick", nil, &tick)
	if tick.Applied != 2 {
		t.Fatalf("retry applied %d ops, want 2", tick.Applied)
	}
}

// TestMutateBadOpSparesOtherClients is the regression for one client's
// bad op costing another client its ops: /mutate used to accept an insert
// with an out-of-range vertex, the next tick stopped on it, and a valid
// insert queued behind it by a second request was dropped unapplied.
func TestMutateBadOpSparesOtherClients(t *testing.T) {
	inst := graph.RandomGraph(12, 20, 16, rand.New(rand.NewSource(9)))
	cfg := config{seed: 2}
	cfg.opts = cfg.options()
	s := newServer(inst.G.Clone(), cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	bad := []mutationReq{{Op: "insert", U: 3, V: 99, W: 40}}
	if resp := postJSON(t, ts.URL+"/mutate", bad, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range insert: status %d, want 400", resp.StatusCode)
	}
	postJSON(t, ts.URL+"/mutate", []mutationReq{{Op: "insert", U: 3, V: 7, W: 40}}, nil)
	var tick struct {
		Applied int
		Error   string
	}
	postJSON(t, ts.URL+"/tick", nil, &tick)
	var matching struct{ M int }
	getJSON(t, ts.URL+"/matching", &matching)
	if tick.Error != "" || tick.Applied != 1 || matching.M != inst.G.M()+1 {
		t.Fatalf("tick applied %d (error %q), graph has %d edges; want the valid insert applied, %d edges",
			tick.Applied, tick.Error, matching.M, inst.G.M()+1)
	}
}

// TestTimedTickLogsFailure: a failed tick of the -tick timer is logged
// with its tick number and applied count instead of being dropped.
func TestTimedTickLogsFailure(t *testing.T) {
	inst := graph.RandomGraph(10, 20, 16, rand.New(rand.NewSource(5)))
	cfg := config{seed: 2}
	cfg.opts = cfg.options()
	s := newServer(inst.G.Clone(), cfg)
	var logged bytes.Buffer
	logger := log.New(&logged, "", 0)

	s.pending.InsertEdge(0, 1, 7)
	s.timedTick(logger)
	if logged.Len() != 0 {
		t.Fatalf("clean tick logged %q", logged.String())
	}

	// A delete of an absent edge passes /mutate's checks and fails only
	// when the tick applies it, after the insert queued ahead of it.
	u, v := 2, 3
	for _, ok := inst.G.FindEdge(u, v); ok; _, ok = inst.G.FindEdge(u, v) {
		v++
	}
	s.pending.InsertEdge(0, 1, 9)
	s.pending.DeleteEdge(u, v)
	s.timedTick(logger)
	want := "tick 2 failed after 1 applied ops: " + core.ErrNoSuchEdge.Error()
	if !strings.Contains(logged.String(), want) {
		t.Fatalf("log %q does not contain %q", logged.String(), want)
	}
}

// TestServeConcurrentHammer drives every mutating and reading endpoint from
// concurrent clients — valid /mutate batches, rejected /mutate batches,
// /tick, /matching, /stats, /snapshot — to pin the queue-swap-under-lock
// contract. The CI serve-smoke job runs this under -race, which is the
// test's real teeth: any handler touching server state outside s.mu, or
// any tick observing a half-spliced queue, surfaces as a race or a torn
// response here. Functional assertions keep it honest without racing the
// scheduler: every response is well-formed, the server stays healthy, and
// the final drained state reconciles applied ops against accepted ones.
func TestServeConcurrentHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := graph.RandomGraph(30, 120, 32, rng)
	snap := filepath.Join(t.TempDir(), "hammer.snap")
	cfg := config{seed: 13, snapshot: snap}
	cfg.opts = cfg.options()
	s := newServer(inst.G.Clone(), cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	const (
		writers  = 4
		tickers  = 2
		readers  = 4
		perIters = 8
	)
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for wkr := 0; wkr < writers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(100 + wkr)))
			for i := 0; i < perIters; i++ {
				u, v := wrng.Intn(inst.G.N()), wrng.Intn(inst.G.N())
				if u == v {
					v = (v + 1) % inst.G.N()
				}
				batch := []mutationReq{{Op: "insert", U: u, V: v, W: graph.Weight(1 + wrng.Intn(60))}}
				if i%3 == 2 {
					// Every third request is malformed and must queue nothing.
					batch = append(batch, mutationReq{Op: "sideways"})
				}
				resp := postJSON(t, ts.URL+"/mutate", batch, nil)
				switch resp.StatusCode {
				case http.StatusOK:
					accepted.Add(int64(len(batch)))
				case http.StatusBadRequest:
				default:
					t.Errorf("/mutate: unexpected status %d", resp.StatusCode)
				}
			}
		}(wkr)
	}
	for tk := 0; tk < tickers; tk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perIters; i++ {
				var tick struct {
					Error string
					Tick  int
				}
				postJSON(t, ts.URL+"/tick", nil, &tick)
				if tick.Error != "" {
					t.Errorf("hammer tick error: %s", tick.Error)
				}
				postJSON(t, ts.URL+"/snapshot", nil, nil)
			}
		}()
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perIters; i++ {
				var matching struct {
					Weight int64
					Size   int
					Edges  []mutationReq
				}
				getJSON(t, ts.URL+"/matching", &matching)
				if len(matching.Edges) != matching.Size {
					t.Errorf("torn /matching: %d edges, size %d", len(matching.Edges), matching.Size)
				}
				counters := map[string]int64{}
				getJSON(t, ts.URL+"/stats", &counters)
				if _, ok := counters["rounds"]; !ok {
					t.Error("torn /stats: no rounds counter")
				}
			}
		}()
	}
	wg.Wait()

	// Drain: one final tick flushes whatever the last writers queued; the
	// total applied must then equal exactly the accepted ops — rejected
	// requests contributed nothing, accepted ones exactly once.
	var final struct{ Error string }
	postJSON(t, ts.URL+"/tick", nil, &final)
	if final.Error != "" {
		t.Fatalf("drain tick: %s", final.Error)
	}
	counters := map[string]int64{}
	getJSON(t, ts.URL+"/stats", &counters)
	if got := counters["mutations-applied"]; got != accepted.Load() {
		t.Errorf("mutations-applied = %d, want %d accepted ops", got, accepted.Load())
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("server unhealthy after hammer: %v %v", resp.Status, err)
	}
	resp.Body.Close()
}

// TestServeErrors pins the failure surface: a bad op is a 400, a snapshot
// without a configured path is a 400, and a delete of a nonexistent edge
// surfaces in the tick response without killing the server.
func TestServeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := graph.RandomGraph(10, 20, 16, rng)
	cfg := config{seed: 2}
	cfg.opts = cfg.options()
	s := newServer(inst.G.Clone(), cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	if resp := postJSON(t, ts.URL+"/mutate", []mutationReq{{Op: "sideways"}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad op: status %d, want 400", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/snapshot", nil, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("snapshot without path: status %d, want 400", resp.StatusCode)
	}
	postJSON(t, ts.URL+"/mutate", []mutationReq{{Op: "delete", U: 0, V: 9}}, nil)
	var tick struct {
		Error string
		Tick  int
	}
	postJSON(t, ts.URL+"/tick", nil, &tick)
	if _, ok := inst.G.FindEdge(0, 9); !ok {
		if tick.Error == "" {
			t.Error("delete of nonexistent edge reported no error")
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("server unhealthy after failed tick: %v %v", resp.Status, err)
	}
	resp.Body.Close()
}

// TestHTTPServerTimeouts pins the limits of the http.Server run serves on:
// a stalled header, a stalled body and an idle keep-alive connection are
// all cut off, and there is no write timeout, because a POST /tick may
// re-converge for seconds before it answers.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Fatalf("server not wired to its address and handler: %+v", srv)
	}
	if srv.ReadHeaderTimeout != 10*time.Second || srv.ReadTimeout != time.Minute || srv.IdleTimeout != 2*time.Minute {
		t.Fatalf("timeouts: read-header %v, read %v, idle %v; want 10s, 1m, 2m",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v would cut off long ticks; want none", srv.WriteTimeout)
	}
}

// TestListeningLineReportsResumedGraph: after a resume, the "listening on"
// line reports the graph the server actually serves — the snapshot's
// post-edit graph — not the -input graph it replaced, so it agrees with
// the "resumed" line printed above it. The unusable -addr makes run
// return right after printing, without serving.
func TestListeningLineReportsResumedGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inst := graph.RandomGraph(30, 120, 32, rng)
	dir := t.TempDir()
	input := filepath.Join(dir, "g.txt")
	var buf bytes.Buffer
	if _, err := inst.G.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(input, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Snapshot a server whose graph gained one edge.
	snap := filepath.Join(dir, "serve.snap")
	cfg := config{seed: 11, snapshot: snap}
	cfg.opts = cfg.options()
	s := newServer(inst.G.Clone(), cfg)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	u, v := 0, 1
	for ; v < inst.G.N(); v++ {
		if _, ok := inst.G.FindEdge(u, v); !ok {
			break
		}
	}
	postJSON(t, ts.URL+"/mutate", []mutationReq{{Op: "insert", U: u, V: v, W: 40}}, nil)
	postJSON(t, ts.URL+"/tick", nil, nil)
	postJSON(t, ts.URL+"/snapshot", nil, nil)
	n, m := inst.G.N(), inst.G.M()+1

	var out bytes.Buffer
	err := run([]string{"-input", input, "-seed", "11", "-snapshot", snap, "-resume",
		"-addr", "127.0.0.1:99999"}, nil, &out)
	if err == nil {
		t.Fatal("run served on an unusable address")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want the resumed and listening lines, got %q", out.String())
	}
	if want := fmt.Sprintf(" n=%d m=%d ", n, m); !strings.HasPrefix(lines[0], "resumed tick=1") ||
		!strings.Contains(lines[0], want) {
		t.Fatalf("resumed line %q, want tick=1 and%s", lines[0], want)
	}
	if want := fmt.Sprintf("listening on 127.0.0.1:99999 (n=%d m=%d)", n, m); lines[1] != want {
		t.Fatalf("listening line %q, want %q", lines[1], want)
	}
}
