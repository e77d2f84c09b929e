package forestlp

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nodedp/internal/generate"
	"nodedp/internal/graph"
	"nodedp/internal/mechanism"
)

// gridGoldenPath pins the engine's exact output: for every graph of
// gridGoldenSet, the float64 bits of each Δ-grid value and the sweep's
// full Stats. A change to the simplex, the separation oracle or the
// cutting-plane loop that is meant to leave values alone must reproduce it
// bit for bit. Regenerate it ONLY in a change that moves values on purpose:
// NODEDP_UPDATE_GOLDEN=1 go test -run TestGridGolden ./internal/forestlp
var gridGoldenPath = filepath.Join("testdata", "grid-golden.txt")

// goldenSpider is the hub-articulated spider of the BENCH_sep.json
// families: k small ER clusters, each tied to one hub by a single bridge.
func goldenSpider(k int, seed uint64) *graph.Graph {
	rng := generate.NewRand(seed)
	clusters := make([]*graph.Graph, k)
	for i := range clusters {
		clusters[i] = generate.ErdosRenyi(4+rng.IntN(5), 0.65, rng)
	}
	g := generate.DisjointUnion(clusters...)
	hub := g.AddVertex()
	off := 0
	for _, c := range clusters {
		if err := g.AddEdge(hub, off+rng.IntN(c.N())); err != nil {
			panic(err)
		}
		off += c.N()
	}
	return g
}

// goldenHubs is a sparse ER graph with hubs joined to a random quarter of
// its vertices each, so that triage's greedy forests decide around hubs.
func goldenHubs(n, hubs int, seed uint64) *graph.Graph {
	rng := generate.NewRand(seed)
	return generate.WithHubs(generate.ErdosRenyi(n, 1.2/float64(n), rng), hubs, 0.25, rng)
}

// gridGoldenSet is the pinned graph set: the planted 30-vertex blocks of
// the end-to-end benchmark's input, the spider-er-a giant, two spiders
// that stall a piece (the 40-cluster seed 50, on a standing solver that
// falls back, and a 16-cluster one on the rebuild path; the 40-cluster
// seed 53 also stalls but sweeps for ten seconds), sparse ER graphs near
// the connectivity threshold, one random geometric graph, and two
// hub-heavy graphs: four hubs of degree 62 to 76 on a sparse ER graph, and
// a caterpillar whose spine vertices have degree 22. Together they reach
// the standing solver, the rebuild path, the stall bailout, multi-wave
// separation and the triage's greedy forests around hubs, and sweep in
// under a second at one worker.
func gridGoldenSet() []struct {
	name string
	g    *graph.Graph
} {
	blocks := make([]int, 40)
	for i := range blocks {
		blocks[i] = 30
	}
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"planted-40x30", generate.PlantedComponents(blocks, 3.2/30, generate.NewRand(30))},
		{"spider-er-a", goldenSpider(40, 54)},
		{"spider-stall-50", goldenSpider(40, 50)},
		{"spider16-stall-7", goldenSpider(16, 7)},
		{"er-80-a", generate.ErdosRenyi(80, 1.6/80, generate.NewRand(3))},
		{"er-80-b", generate.ErdosRenyi(80, 2.2/80, generate.NewRand(4))},
		{"er-120", generate.ErdosRenyi(120, 2.5/120, generate.NewRand(5))},
		{"rgg-300", generate.Geometric(300, 0.9/math.Sqrt(300), generate.NewRand(7))},
		{"er-300-hubs", goldenHubs(300, 4, 304)},
		{"caterpillar-30x20", generate.Caterpillar(30, 20)},
	}
}

// gridGolden sweeps every graph of the set at the given worker count and
// renders the fixture text. Stats.Workers follows the setting, so it is
// zeroed; every other field is a deterministic work counter or gauge.
func gridGolden(t *testing.T, workers int) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("# forestlp Δ-grid golden: per graph, each grid value's math.Float64bits\n")
	b.WriteString("# and the sweep's Stats (Workers zeroed). See gridGoldenPath.\n")
	for _, c := range gridGoldenSet() {
		grid, err := mechanism.PowerOfTwoGrid(float64(max(c.g.N(), 1)))
		if err != nil {
			t.Fatal(err)
		}
		values, st, err := NewPlan(c.g).GridValues(context.Background(), grid, Options{Workers: workers})
		if err != nil {
			t.Fatalf("%s at workers %d: %v", c.name, workers, err)
		}
		st.Workers = 0
		fmt.Fprintf(&b, "graph %s n=%d m=%d\n", c.name, c.g.N(), c.g.M())
		for i, v := range values {
			fmt.Fprintf(&b, "  delta=%v value=%016x (%v)\n", grid[i], math.Float64bits(v), v)
		}
		fmt.Fprintf(&b, "  stats %+v\n", st)
	}
	return b.String()
}

// TestGridGolden recomputes the pinned set at Workers 1 and 2 and requires
// the committed fixture exactly.
func TestGridGolden(t *testing.T) {
	if os.Getenv("NODEDP_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(gridGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(gridGoldenPath, []byte(gridGolden(t, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(gridGoldenPath)
	if err != nil {
		t.Fatalf("reading golden fixture: %v", err)
	}
	want := strings.Split(string(raw), "\n")
	for _, workers := range []int{1, 2} {
		got := strings.Split(gridGolden(t, workers), "\n")
		for i := 0; i < max(len(got), len(want)); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Fatalf("workers %d: fixture line %d differs:\ngot  %q\nwant %q", workers, i+1, g, w)
			}
		}
	}
}
