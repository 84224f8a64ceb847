package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text edge format is one header line "p <n> <m>" followed by m lines
// "<u> <v> <w>". It is the interchange format of cmd/auggen and cmd/augrun.

// WriteTo writes g in the text edge format.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	n, err := fmt.Fprintf(bw, "p %d %d\n", g.n, len(g.edges))
	total += int64(n)
	if err != nil {
		return total, err
	}
	for _, e := range g.edges {
		n, err = fmt.Fprintf(bw, "%d %d %d\n", e.U, e.V, e.W)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, bw.Flush()
}

// Read parses a graph in the text edge format.
func Read(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var g *Graph
	expect := 0
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if g == nil {
			if len(fields) != 3 || fields[0] != "p" {
				return nil, fmt.Errorf("graph: line %d: want header \"p <n> <m>\", got %q", line, text)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad n: %w", line, err)
			}
			if n < 0 {
				return nil, fmt.Errorf("graph: line %d: negative vertex count %d", line, n)
			}
			m, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad m: %w", line, err)
			}
			g = New(n)
			expect = m
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("graph: line %d: want \"<u> <v> <w>\", got %q", line, text)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad u: %w", line, err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad v: %w", line, err)
		}
		w, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad w: %w", line, err)
		}
		if err := g.AddEdge(Edge{U: u, V: v, W: w}); err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graph: empty input")
	}
	if len(g.edges) != expect {
		return nil, fmt.Errorf("graph: header declared %d edges, read %d", expect, len(g.edges))
	}
	return g, nil
}
