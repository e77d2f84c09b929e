package graph

// This file implements canonical graph fingerprints: a 128-bit digest of a
// graph's exact vertex count and edge set, independent of how the graph was
// built (edge insertion order, intermediate removals, Graph vs. CSR). The
// plan cache in internal/core keys the expensive Δ-grid evaluations of
// Algorithm 1 by fingerprint, so re-reading the same graph from disk — or
// opening a second serving session on an identical graph — skips planning
// entirely, while any one-edge difference changes the key.
//
// The digest is commutative over edges so it supports O(1) incremental
// maintenance under mutation: each edge {u,v} is hashed independently into
// a 128-bit avalanched value, the per-edge values are combined by wrapping
// 64-bit addition per lane (order-free and invertible — removing an edge
// subtracts its value back out), and the finalizer mixes the vertex count,
// edge count, and both lane sums through a fresh two-lane hash. The mutable
// Graph carries the live lane sums, updated by AddEdge/RemoveEdge, so
// Graph.Fingerprint is O(1); CSR.Fingerprint recomputes the same digest
// from the snapshot. The two lanes are FNV-1a-style with independent seeds
// and multipliers, each finished with a murmur-style avalanche so the sums
// spread across all 128 bits even for tiny graphs.
//
// It is a content hash for caching, not a cryptographic commitment:
// collisions are astronomically unlikely by accident (and the additive
// combination gives up nothing a cache key needs) but not hard to construct
// on purpose, so the cache must never be shared with untrusted writers.

import "fmt"

// Fingerprint is a 128-bit canonical digest of a graph's vertex count and
// edge set. Two graphs with the same vertices and edges have the same
// fingerprint regardless of construction order; graphs differing in even a
// single edge differ (up to hash collision). The zero value is not the
// fingerprint of any graph, including the empty one.
type Fingerprint struct {
	Hi, Lo uint64
}

// String formats the fingerprint as 32 hex digits.
func (f Fingerprint) String() string { return fmt.Sprintf("%016x%016x", f.Hi, f.Lo) }

// IsZero reports whether f is the zero value (no graph hashes to it).
func (f Fingerprint) IsZero() bool { return f.Hi == 0 && f.Lo == 0 }

const (
	// Lane seeds and multipliers: lane lo is standard FNV-1a 64; lane hi
	// uses a distinct odd multiplier (the 64-bit golden-ratio constant,
	// forced odd) and seed so the two lanes evolve independently.
	fpLoOffset = 0xcbf29ce484222325
	fpLoPrime  = 0x00000100000001b3
	fpHiOffset = 0x6a09e667f3bcc909 // frac(sqrt(2)), the SHA-512 IV word
	fpHiPrime  = 0x9e3779b97f4a7c15 | 1
)

// fpHasher accumulates the two lanes.
type fpHasher struct {
	hi, lo uint64
}

func newFPHasher() fpHasher { return fpHasher{hi: fpHiOffset, lo: fpLoOffset} }

// mix folds one 64-bit word into both lanes, byte by byte.
func (h *fpHasher) mix(x uint64) {
	for i := 0; i < 8; i++ {
		b := uint64(byte(x))
		x >>= 8
		h.lo = (h.lo ^ b) * fpLoPrime
		h.hi = (h.hi ^ b) * fpHiPrime
	}
}

// sum finalizes the digest with an avalanche pass so that short inputs
// (small graphs, single edges) still spread across all 128 bits.
func (h fpHasher) sum() Fingerprint {
	fin := func(x uint64) uint64 {
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		x *= 0xc4ceb9fe1a85ec53
		x ^= x >> 33
		return x
	}
	return Fingerprint{Hi: fin(h.hi ^ h.lo<<1), Lo: fin(h.lo)}
}

// edgeHash hashes one undirected edge into its 128-bit avalanched lane
// contribution. The pair is normalized first, so edgeHash(u,v) ==
// edgeHash(v,u).
func edgeHash(u, v int) (hi, lo uint64) {
	if u > v {
		u, v = v, u
	}
	h := newFPHasher()
	h.mix(uint64(u))
	h.mix(uint64(v))
	f := h.sum()
	return f.Hi, f.Lo
}

// composeFingerprint finalizes the digest from the vertex count, edge
// count, and the wrapping per-lane sums of the edge hashes.
func composeFingerprint(n, m int, hi, lo uint64) Fingerprint {
	h := newFPHasher()
	h.mix(uint64(n))
	h.mix(uint64(m))
	h.mix(hi)
	h.mix(lo)
	return h.sum()
}

// Fingerprint returns the canonical 128-bit digest of g's vertex count and
// edge set. It is independent of insertion order and of whether the graph
// was built directly or round-tripped through removals, CSR snapshots, or
// the edge-list exchange format. Cost: O(1) — the graph maintains its edge
// lane sums incrementally under AddEdge/RemoveEdge, so only the finalizer
// runs here.
func (g *Graph) Fingerprint() Fingerprint {
	return composeFingerprint(g.N(), g.m, g.fpHi, g.fpLo)
}

// Fingerprint returns the canonical digest of the snapshot's vertex count
// and edge set. It equals Graph.Fingerprint of the graph the snapshot was
// taken from. Cost: O(n + m).
func (c *CSR) Fingerprint() Fingerprint {
	hi, lo := c.laneSums()
	return composeFingerprint(c.N(), c.M(), hi, lo)
}

// laneSums returns the wrapping per-lane sums of the snapshot's edge
// hashes. Cost: O(n + m).
func (c *CSR) laneSums() (hi, lo uint64) {
	for u, n := 0, c.N(); u < n; u++ {
		for _, v := range c.Neighbors(u) {
			if u < v {
				eh, el := edgeHash(u, v)
				hi += eh
				lo += el
			}
		}
	}
	return hi, lo
}

// ComponentFingerprints returns the canonical fingerprint of every
// component shard, aligned with ComponentShards: entry i equals
// shards[i].CSR.Fingerprint() — the digest of the component renumbered to
// local rank ids — without materializing any shard, in one O(n + m) pass.
// A Decomposition carries the same fingerprints and, across a delta,
// recomputes only the touched components'.
func (c *CSR) ComponentFingerprints() []Fingerprint {
	labels, count := c.Components()
	n := c.N()

	// Local rank ids: scanning v = 0..n-1 assigns each vertex the next
	// free id of its component, matching the ComponentShards renumbering.
	local := make([]int, n)
	vcount := make([]int, count)
	for v := 0; v < n; v++ {
		comp := labels[v]
		local[v] = vcount[comp]
		vcount[comp]++
	}

	type acc struct {
		m      int
		hi, lo uint64
	}
	accs := make([]acc, count)
	for u := 0; u < n; u++ {
		for _, v := range c.Neighbors(u) {
			if u < v {
				a := &accs[labels[u]]
				hi, lo := edgeHash(local[u], local[v])
				a.hi += hi
				a.lo += lo
				a.m++
			}
		}
	}
	out := make([]Fingerprint, count)
	for i := range out {
		out[i] = composeFingerprint(vcount[i], accs[i].m, accs[i].hi, accs[i].lo)
	}
	return out
}
