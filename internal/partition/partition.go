// Package partition implements the graph partitioners the paper evaluates:
//
//   - Block: contiguous equal-size 1D block distribution (CAGNET default).
//   - Random: random symmetric permutation followed by block distribution —
//     good compute balance, terrible communication, as Section 5 discusses.
//   - MetisLike: a multilevel partitioner (heavy-edge-matching coarsening,
//     greedy graph-growing initial partition, FM-style boundary refinement)
//     with METIS's objective — minimize total edgecut under a balance
//     constraint, oblivious to communication load balance.
//   - GVB: the same multilevel pipeline plus a final volume-based
//     refinement stage modeled on Graph-VB (Acer, Selvitopi, Aykanat 2016)
//     whose objective is the pair (maximum per-part send volume, total send
//     volume) — the partitioner the paper shows is necessary to remove the
//     communication bottleneck.
//
// A Partition assigns every vertex a part; Perm() converts it into the
// symmetric matrix permutation used to redistribute A and H before
// training.
package partition

import (
	"math/rand"

	"sagnn/internal/graph"
)

// Partition maps each vertex to one of K parts.
type Partition struct {
	K     int
	Parts []int
}

// PartOf returns the part owning vertex v (in the original, un-permuted
// vertex numbering). It is the ownership lookup consumers outside the
// training stack — the serving router above all — should use instead of
// re-deriving ownership from Perm/Offsets internals. v must be in
// [0, len(p.Parts)); out-of-range lookups panic like the slice access
// they are.
func (p *Partition) PartOf(v int) int { return p.Parts[v] }

// Perm returns the relabeling perm[old] = new that makes every part a
// contiguous vertex range, preserving relative order within a part.
func (p *Partition) Perm() []int {
	offsets := make([]int, p.K+1)
	for _, pt := range p.Parts {
		offsets[pt+1]++
	}
	for i := 0; i < p.K; i++ {
		offsets[i+1] += offsets[i]
	}
	next := make([]int, p.K)
	copy(next, offsets[:p.K])
	perm := make([]int, len(p.Parts))
	for v, pt := range p.Parts {
		perm[v] = next[pt]
		next[pt]++
	}
	return perm
}

// Offsets returns the K+1 block-row boundaries of the permuted ordering:
// part i owns new vertex ids [Offsets[i], Offsets[i+1]).
func (p *Partition) Offsets() []int {
	offsets := make([]int, p.K+1)
	for _, pt := range p.Parts {
		offsets[pt+1]++
	}
	for i := 0; i < p.K; i++ {
		offsets[i+1] += offsets[i]
	}
	return offsets
}

// Partitioner computes a K-way partition of a symmetric graph.
type Partitioner interface {
	Name() string
	Partition(g *graph.Graph, k int) *Partition
}

// Block assigns contiguous runs of ⌈n/k⌉ vertices to each part — the plain
// 1D block distribution CAGNET uses without any reordering.
type Block struct{}

// Name implements Partitioner.
func (Block) Name() string { return "block" }

// Partition implements Partitioner.
func (Block) Partition(g *graph.Graph, k int) *Partition {
	n := g.NumVertices()
	parts := make([]int, n)
	chunk := (n + k - 1) / k
	for v := range parts {
		pt := v / chunk
		if pt >= k {
			pt = k - 1
		}
		parts[v] = pt
	}
	return &Partition{K: k, Parts: parts}
}

// Random applies a seeded random assignment balancing vertex counts. It
// models the "randomly permute for load balance" strategy whose
// communication pathology motivates Section 5.
type Random struct{ Seed int64 }

// Name implements Partitioner.
func (r Random) Name() string { return "random" }

// Partition implements Partitioner.
func (r Random) Partition(g *graph.Graph, k int) *Partition {
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(r.Seed))
	perm := rng.Perm(n)
	parts := make([]int, n)
	chunk := (n + k - 1) / k
	for v, pos := range perm {
		pt := pos / chunk
		if pt >= k {
			pt = k - 1
		}
		parts[v] = pt
	}
	return &Partition{K: k, Parts: parts}
}
