// Package graph provides the weighted-graph and matching substrate used by
// every algorithm in this repository.
//
// Vertices are integers in [0, n). Edges carry positive integer weights
// (the paper assumes integral weights bounded by poly(n); see Section 3.2
// of Gamlath–Kale–Mitrović–Svensson, PODC 2019). The package also contains
// workload generators with planted optimal matchings so that approximation
// ratios can be measured exactly at scales where exact solvers are
// infeasible.
package graph

import (
	"errors"
	"fmt"
)

// Weight is the edge-weight type used throughout the repository. The paper
// assumes positive integer weights bounded by poly(n), which int64 covers
// for every feasible instance size.
type Weight = int64

// Edge is an undirected weighted edge between vertices U and V.
type Edge struct {
	U, V int
	W    Weight
}

// Other returns the endpoint of e that is not v. It returns -1 when v is not
// an endpoint of e.
func (e Edge) Other(v int) int {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	default:
		return -1
	}
}

// Canonical returns a copy of e with U <= V so that edges can be used as map
// keys irrespective of endpoint order.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Key identifies an undirected vertex pair; it is the canonical map key for
// an edge irrespective of weight.
type Key struct {
	U, V int
}

// KeyOf returns the canonical key of the pair (u, v).
func KeyOf(u, v int) Key {
	if u > v {
		u, v = v, u
	}
	return Key{U: u, V: v}
}

// EdgeKey returns the canonical key of e.
func (e Edge) EdgeKey() Key { return KeyOf(e.U, e.V) }

// String implements fmt.Stringer.
func (e Edge) String() string {
	return fmt.Sprintf("{%d-%d w=%d}", e.U, e.V, e.W)
}

// Graph is a simple undirected weighted graph with a fixed vertex count.
// The zero value is an empty graph on zero vertices; use New for a graph
// with vertices.
type Graph struct {
	n     int
	edges []Edge
	// adj caches Adjacency(); AddEdge invalidates it.
	adj [][]IncidentEdge
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	return &Graph{n: n}
}

// FromEdges builds a graph on n vertices with a copy of the given edges.
// It returns an error if any edge is a self loop, references a vertex
// outside [0, n), or has non-positive weight.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdge(e); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the graph's edge slice. Callers must not mutate it; use
// CopyEdges for a private copy.
func (g *Graph) Edges() []Edge { return g.edges }

// CopyEdges returns a fresh copy of the edge slice.
func (g *Graph) CopyEdges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

var (
	// ErrSelfLoop is returned when an edge connects a vertex to itself.
	ErrSelfLoop = errors.New("graph: self loop")
	// ErrVertexRange is returned when an edge references a vertex outside [0, n).
	ErrVertexRange = errors.New("graph: vertex out of range")
	// ErrNonPositiveWeight is returned for edges of weight <= 0.
	ErrNonPositiveWeight = errors.New("graph: non-positive edge weight")
)

// CheckEdge validates e as an edge of a graph on n vertices: no self loop,
// both endpoints in [0, n), positive weight. It is AddEdge's rule set,
// exported so a caller can reject an edge before it reaches a graph.
func CheckEdge(n int, e Edge) error {
	if e.U == e.V {
		return fmt.Errorf("%w: %v", ErrSelfLoop, e)
	}
	if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
		return fmt.Errorf("%w: %v (n=%d)", ErrVertexRange, e, n)
	}
	if e.W <= 0 {
		return fmt.Errorf("%w: %v", ErrNonPositiveWeight, e)
	}
	return nil
}

// AddEdge appends an edge after validating it (see CheckEdge).
func (g *Graph) AddEdge(e Edge) error {
	if err := CheckEdge(g.n, e); err != nil {
		return err
	}
	g.edges = append(g.edges, e)
	g.adj = nil
	return nil
}

// MustAddEdge is AddEdge for construction sites where the inputs are
// compile-time constants (tests, examples). It panics on invalid edges.
func (g *Graph) MustAddEdge(u, v int, w Weight) {
	if err := g.AddEdge(Edge{U: u, V: v, W: w}); err != nil {
		panic(err)
	}
}

// IncidentEdge is an adjacency entry: the neighbour and the index of the
// underlying edge in Edges().
type IncidentEdge struct {
	To        int
	W         Weight
	EdgeIndex int
}

// Adjacency materialises adjacency lists. The result is cached until the
// next AddEdge, so repeated callers share one materialisation; callers must
// not mutate the returned lists (use Adjacency only for reads, or copy).
// The cache is not synchronised — confine concurrent use to reads after a
// first materialising call.
func (g *Graph) Adjacency() [][]IncidentEdge {
	if g.adj != nil {
		return g.adj
	}
	deg := make([]int, g.n)
	for _, e := range g.edges {
		deg[e.U]++
		deg[e.V]++
	}
	adj := make([][]IncidentEdge, g.n)
	for v := range adj {
		adj[v] = make([]IncidentEdge, 0, deg[v])
	}
	for i, e := range g.edges {
		adj[e.U] = append(adj[e.U], IncidentEdge{To: e.V, W: e.W, EdgeIndex: i})
		adj[e.V] = append(adj[e.V], IncidentEdge{To: e.U, W: e.W, EdgeIndex: i})
	}
	g.adj = adj
	return adj
}

// MaxWeight returns the largest edge weight, or 0 on an edgeless graph.
func (g *Graph) MaxWeight() Weight {
	var maxW Weight
	for _, e := range g.edges {
		if e.W > maxW {
			maxW = e.W
		}
	}
	return maxW
}

// SortedEdges returns a copy of the edges sorted by descending weight,
// breaking ties by (U, V) for determinism: the greedy order of OrderKey.
func (g *Graph) SortedEdges() []Edge {
	keys := make([]OrderKey, len(g.edges))
	for i, e := range g.edges {
		keys[i] = MakeOrderKey(e.W, e.U, e.V)
	}
	keys, _ = SortOrderKeys(keys, nil)
	out := make([]Edge, len(keys))
	for i, k := range keys {
		out[i] = Edge{U: k.U(), V: k.V(), W: k.Key()}
	}
	return out
}
