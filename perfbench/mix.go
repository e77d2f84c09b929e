package main

// This file generates mix2k, the one input graph of every workload, and the
// operation streams the workloads send. All of it is a pure function of the
// workload seed and runs before the daemon starts; the daemon only ever sees
// the resulting JSON.

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"nodedp/internal/generate"
	"nodedp/internal/graph"
	"nodedp/internal/httpapi"
)

// mix2k is the disjoint union of three parts, chosen so that one cold plan
// runs every planner path:
//   - planted Erdős–Rényi blocks (the planted-er shape of
//     BENCH_parallel.json), whose LP pieces stay below the incremental
//     gate and run the dense rebuild path;
//   - BENCH_sep.json's spider-er-a giant component, a fixed instance known
//     to converge, whose LP stays live across the grid and runs the
//     parametric path;
//   - a random geometric graph, mostly settled by the fast path.
//
// The blocks, like the spider, are one fixed instance: their LPs are most of
// a cold plan and all of a delta, and the benchmark compares runs made with
// different seeds, so the seed draws the geometric graph and every
// operation stream but not the work those LPs do. Sparse ER graphs near the
// connectivity threshold are left out: one cold plan of them takes seconds
// and stalls a piece.
const (
	blockCount  = 40
	blockSize   = 30
	blockDegree = 3.2
	blockSeed   = 30
	spiderSeed  = 54
	rggN        = 800
	rggRadius   = 0.9 // times 1/√rggN

	benchTenant = "bench"
	coldTenant  = "cold"
	budget      = 1e12
	queryEps    = 1e-6
	probeEps    = 0.5
)

// queryOps is the rotation of every query stream.
var queryOps = [3]string{"cc", "cc-known-n", "sf"}

// mix is one generated mix2k instance.
type mix struct {
	g           *graph.Graph
	fingerprint string
	components  int
	nontrivial  int
	// spiderLo and spiderHi bound the spider's vertex range.
	spiderLo, spiderHi int
	// giants[b] lists the vertices of planted block b's largest component,
	// the endpoints live-mutate's bridges are drawn from.
	giants [][]int
	edges  [][2]int
}

func newMix(seed uint64) (*mix, error) {
	sizes := make([]int, blockCount)
	for i := range sizes {
		sizes[i] = blockSize
	}
	blocks := generate.PlantedComponents(sizes, blockDegree/blockSize, generate.NewRand(blockSeed))
	spider := spiderGraph(40, 4, 5, 0.65, spiderSeed)
	rgg := generate.Geometric(rggN, rggRadius/math.Sqrt(rggN), generate.NewRand(seed))
	g := generate.DisjointUnion(blocks, spider, rgg)

	m := &mix{g: g, fingerprint: g.Fingerprint().String(), spiderLo: blocks.N(), spiderHi: blocks.N() + spider.N()}
	labels, count := g.Components()
	m.components = count
	size := make([]int, count)
	for _, l := range labels {
		size[l]++
	}
	for _, s := range size {
		if s >= 2 {
			m.nontrivial++
		}
	}
	for b := 0; b < blockCount; b++ {
		lo := b * blockSize
		best := labels[lo]
		for v := lo; v < lo+blockSize; v++ {
			if size[labels[v]] > size[best] {
				best = labels[v]
			}
		}
		var giant []int
		for v := lo; v < lo+blockSize; v++ {
			if labels[v] == best {
				giant = append(giant, v)
			}
		}
		if len(giant) < 2 {
			return nil, fmt.Errorf("seed %d: planted block %d has no edge to bridge", seed, b)
		}
		m.giants = append(m.giants, giant)
	}
	for _, e := range g.Edges() {
		m.edges = append(m.edges, [2]int{e.U, e.V})
	}
	return m, nil
}

// spiderGraph is BENCH_sep.json's hub-articulated giant component: k small
// ER clusters, each tied to a central hub by exactly one bridge.
func spiderGraph(k, minSize, spread int, p float64, seed uint64) *graph.Graph {
	rng := generate.NewRand(seed)
	sizes := make([]int, k)
	clusters := make([]*graph.Graph, k)
	for i := range clusters {
		sizes[i] = minSize + rng.IntN(spread)
		clusters[i] = generate.ErdosRenyi(sizes[i], p, rng)
	}
	g := generate.DisjointUnion(clusters...)
	hub := g.AddVertex()
	off := 0
	for i := 0; i < k; i++ {
		if err := g.AddEdge(hub, off+rng.IntN(sizes[i])); err != nil {
			panic(err) // the hub is new, so every edge is new
		}
		off += sizes[i]
	}
	return g
}

// uploadBody is the POST /v1/graphs body for mix2k.
func (m *mix) uploadBody(tenant, requestID string) []byte {
	raw, err := json.Marshal(httpapi.CreateSessionRequest{
		Tenant: tenant, N: m.g.N(), Edges: m.edges, Budget: budget, RequestID: requestID,
	})
	if err != nil {
		panic(err) // ints, a float and strings always marshal
	}
	return raw
}

// appendQuery appends query i of a stream to b. The request ID is unique
// within the stream, and no seed is sent, so the daemon draws crypto noise
// as in production.
func appendQuery(b []byte, op, stream string, i int) []byte {
	b = append(b, `{"op":"`...)
	b = append(b, op...)
	b = append(b, `","epsilon":1e-06,"request_id":"`...)
	b = append(b, stream...)
	b = append(b, '-')
	b = strconv.AppendInt(b, int64(i), 10)
	return append(b, `"}`...)
}

// bridge is one live-mutate delta: it adds edge {u, v} between the largest
// components of planted blocks a and b, and removes the previous bridge.
type bridge struct{ a, b, u, v int }

// bridges draws n distinct bridges. Consecutive bridges touch four distinct
// blocks, so each delta splits the previous merge back into two blocks whose
// sub-plans are cached and forms one new merged component: exactly one
// sub-plan miss. No bridge repeats, so no mutated graph repeats within a run
// and no delta is a whole-plan cache hit.
func (m *mix) bridges(seed uint64, n int) []bridge {
	rng := generate.NewRand(seed ^ 0x6272696467657321)
	used := make(map[[2]int]bool, n)
	out := make([]bridge, 0, n)
	prevA, prevB := -1, -1
	for len(out) < n {
		a, b := rng.IntN(blockCount), rng.IntN(blockCount)
		if a == b || a == prevA || a == prevB || b == prevA || b == prevB {
			continue
		}
		u := m.giants[a][rng.IntN(len(m.giants[a]))]
		v := m.giants[b][rng.IntN(len(m.giants[b]))]
		e := [2]int{min(u, v), max(u, v)}
		if used[e] {
			continue
		}
		used[e] = true
		out = append(out, bridge{a: a, b: b, u: u, v: v})
		prevA, prevB = a, b
	}
	return out
}

// deltaFingerprints returns the fingerprint of the graph after each delta
// of the stream: mix2k plus bridge k.
func (m *mix) deltaFingerprints(br []bridge) []string {
	g := m.g.Clone()
	out := make([]string, len(br))
	for k, b := range br {
		if k > 0 {
			g.RemoveEdge(br[k-1].u, br[k-1].v)
		}
		if err := g.AddEdge(b.u, b.v); err != nil {
			panic(err) // bridges join distinct blocks, so the edge is new
		}
		out[k] = g.Fingerprint().String()
	}
	return out
}

// appendPatch appends the PATCH /v1/graphs/{id} body of delta k to b.
func appendPatch(b []byte, br []bridge, k int) []byte {
	b = append(b, `{"adds":[[`...)
	b = strconv.AppendInt(b, int64(br[k].u), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(br[k].v), 10)
	b = append(b, "]]"...)
	if k > 0 {
		b = append(b, `,"removes":[[`...)
		b = strconv.AppendInt(b, int64(br[k-1].u), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(br[k-1].v), 10)
		b = append(b, "]]"...)
	}
	b = append(b, `,"request_id":"d-`...)
	b = strconv.AppendInt(b, int64(k), 10)
	return append(b, `"}`...)
}
