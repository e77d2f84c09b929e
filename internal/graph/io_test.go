package graph

import (
	"bytes"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	for trial := 0; trial < 20; trial++ {
		n := rng.IntN(25)
		g := randomGraph(n, 0.2, rng)
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEdgeList(&buf, math.MaxInt)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(g) {
			t.Fatalf("round trip mismatch:\n%v\n%v", g, back)
		}
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# a comment\nn 4\n\n0 1\n# another\n2 3\n"
	g, err := ReadEdgeList(strings.NewReader(in), 4) // n and endpoints at the bound
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 2 || !g.HasEdge(0, 1) || !g.HasEdge(2, 3) {
		t.Fatalf("parsed %v", g)
	}
}

func TestReadEdgeListImplicitVertices(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 5\n"), math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 6 || !g.HasEdge(0, 5) {
		t.Fatalf("parsed %v", g)
	}
	// A header after the edges may declare more vertices, and may repeat.
	g, err = ReadEdgeList(strings.NewReader("0 5\nn 7\n1 6\nn 7\n"), math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 7 || g.M() != 2 || !g.HasEdge(1, 6) {
		t.Fatalf("parsed %v", g)
	}
}

// badEdgeLists are inputs ReadEdgeList must reject with a vertex limit
// of 4.
var badEdgeLists = []string{
	"0 0\n",       // self loop
	"0 1\n0 1\n",  // duplicate
	"n -3\n",      // bad count
	"a b\n",       // garbage
	"0 1 2\n",     // too many fields
	"-1 0\n",      // negative vertex
	"n 2\nx 1\n",  // bad vertex
	"n 2\n0 zz\n", // bad vertex
	"n 5\n",       // count above the bound of 4
	"0 4\n",       // endpoint implying a fifth vertex
	"0 1x\n",      // trailing garbage after a vertex
	"2 3.5\n",     // fractional vertex
	"n 4x\n",      // trailing garbage after the count
	"n 2\n0 3\n",  // endpoint outside the declared count
	"0 3\nn 2\n",  // count below an endpoint already read
	"n 3\nn 2\n",  // a second header contradicting the first
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, bad := range badEdgeLists {
		if _, err := ReadEdgeList(strings.NewReader(bad), 4); err == nil {
			t.Errorf("input %q should fail", bad)
		}
	}
}

func TestWriteEdgeListIsolatedVertices(t *testing.T) {
	g := New(3)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 3 || back.M() != 0 {
		t.Fatalf("isolated vertices lost: %v", back)
	}
}
