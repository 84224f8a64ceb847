package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inst := RandomGraph(20, 50, 30, rng)
	var buf bytes.Buffer
	if _, err := inst.G.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != inst.G.N() || g2.M() != inst.G.M() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d", g2.N(), g2.M(), inst.G.N(), inst.G.M())
	}
	for i, e := range g2.Edges() {
		if e != inst.G.Edges()[i] {
			t.Fatalf("edge %d changed: %v vs %v", i, e, inst.G.Edges()[i])
		}
	}
}

func TestReadErrors(t *testing.T) {
	tests := []struct {
		name, in string
	}{
		{"empty", ""},
		{"bad header", "q 3 1\n0 1 2\n"},
		{"bad n", "p x 1\n0 1 2\n"},
		{"negative n", "p -3 0\n"},
		{"bad edge arity", "p 3 1\n0 1\n"},
		{"edge count mismatch", "p 3 2\n0 1 2\n"},
		{"out of range", "p 2 1\n0 5 2\n"},
		{"zero weight", "p 2 1\n0 1 0\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(tt.in)); err == nil {
				t.Errorf("Read(%q) succeeded, want error", tt.in)
			}
		})
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# comment\n\np 2 1\n# another\n0 1 7\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 || g.Edges()[0].W != 7 {
		t.Errorf("parsed %v", g.Edges())
	}
}
