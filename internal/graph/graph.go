// Package graph provides the graph substrate for GNN training: an adjacency
// structure built on CSR, symmetrization, the GCN normalization
// D^{-1/2}(A+I)D^{-1/2} of Kipf & Welling, and traversal utilities used by
// the partitioners.
package graph

import (
	"fmt"
	"math"
	"sort"

	"sagnn/internal/sparse"
)

// Graph is an unweighted directed graph stored as a CSR adjacency matrix;
// Adj.At(u, v) != 0 means an edge u→v.
type Graph struct {
	Adj *sparse.CSR
}

// FromEdges builds a graph on n vertices from an edge list. Duplicate edges
// collapse to a single edge of weight 1; self loops are dropped (the GCN
// normalization re-adds them explicitly).
func FromEdges(n int, edges [][2]int) *Graph {
	coords := make([]sparse.Coord, 0, len(edges))
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		coords = append(coords, sparse.Coord{Row: e[0], Col: e[1], Val: 1})
	}
	g := &Graph{Adj: sparse.NewCSR(n, n, coords)}
	g.clampWeights()
	return g
}

// clampWeights resets duplicate-summed entries back to weight 1.
func (g *Graph) clampWeights() {
	for i := range g.Adj.Val {
		g.Adj.Val[i] = 1
	}
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.Adj.NumRows }

// NumEdges returns the number of stored directed edges (nnz of Adj).
func (g *Graph) NumEdges() int { return g.Adj.NNZ() }

// Degree returns the out-degree of vertex v.
func (g *Graph) Degree(v int) int { return g.Adj.RowNNZ(v) }

// Neighbors returns the out-neighbors of v (aliases internal storage; do
// not modify).
func (g *Graph) Neighbors(v int) []int {
	return g.Adj.ColIdx[g.Adj.RowPtr[v]:g.Adj.RowPtr[v+1]]
}

// Symmetrize returns a new graph whose adjacency is A ∪ Aᵀ, making every
// edge bidirectional. The paper's datasets are all symmetric, letting the
// algorithms assume A = Aᵀ and store the matrix once.
func (g *Graph) Symmetrize() *Graph {
	n := g.NumVertices()
	coords := make([]sparse.Coord, 0, 2*g.NumEdges())
	for _, c := range g.Adj.ToCoords() {
		coords = append(coords, sparse.Coord{Row: c.Row, Col: c.Col, Val: 1})
		coords = append(coords, sparse.Coord{Row: c.Col, Col: c.Row, Val: 1})
	}
	out := &Graph{Adj: sparse.NewCSR(n, n, coords)}
	out.clampWeights()
	return out
}

// IsSymmetric reports whether the adjacency structure is symmetric.
func (g *Graph) IsSymmetric() bool { return g.Adj.IsSymmetric(0) }

// NormalizedAdjacency returns the GCN propagation matrix
// Â = D̃^{-1/2}(A + I)D̃^{-1/2} where D̃ is the degree matrix of A + I.
// The result is symmetric whenever A is, so Â = Âᵀ and training needs no
// explicit transpose (Section 4 of the paper).
func (g *Graph) NormalizedAdjacency() *sparse.CSR {
	a, n := g.Adj, g.NumVertices()
	// A + I in one merge pass over A's sorted rows: the identity lands in
	// each row's column order, and adds 1 to a diagonal A already stores.
	withSelf := &sparse.CSR{NumRows: n, NumCols: n, RowPtr: make([]int, n+1),
		ColIdx: make([]int, 0, a.NNZ()+n), Val: make([]float64, 0, a.NNZ()+n)}
	for r := 0; r < n; r++ {
		lo, hi := a.RowPtr[r], a.RowPtr[r+1]
		d := lo + sort.SearchInts(a.ColIdx[lo:hi], r) // where the diagonal goes
		e, self := d, 1.0                             // e: A's first entry right of it
		if d < hi && a.ColIdx[d] == r {
			e, self = d+1, a.Val[d]+1
		}
		withSelf.ColIdx = append(append(append(withSelf.ColIdx, a.ColIdx[lo:d]...), r), a.ColIdx[e:hi]...)
		withSelf.Val = append(append(append(withSelf.Val, a.Val[lo:d]...), self), a.Val[e:hi]...)
		withSelf.RowPtr[r+1] = len(withSelf.ColIdx)
	}
	invSqrt := make([]float64, n)
	for i := 0; i < n; i++ {
		d := 0.0
		for p := withSelf.RowPtr[i]; p < withSelf.RowPtr[i+1]; p++ {
			d += withSelf.Val[p]
		}
		invSqrt[i] = 1 / math.Sqrt(d)
	}
	for r := 0; r < n; r++ {
		for p := withSelf.RowPtr[r]; p < withSelf.RowPtr[r+1]; p++ {
			withSelf.Val[p] *= invSqrt[r] * invSqrt[withSelf.ColIdx[p]]
		}
	}
	return withSelf
}

// BFS returns the order in which vertices are visited starting from src,
// following out-edges. Unreachable vertices are absent.
func (g *Graph) BFS(src int) []int {
	n := g.NumVertices()
	if src < 0 || src >= n {
		panic(fmt.Sprintf("graph: BFS source %d out of range [0,%d)", src, n))
	}
	visited := make([]bool, n)
	order := make([]int, 0, n)
	queue := []int{src}
	visited[src] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range g.Neighbors(v) {
			if !visited[w] {
				visited[w] = true
				queue = append(queue, w)
			}
		}
	}
	return order
}

// ConnectedComponents returns, for a symmetric graph, the component id of
// every vertex and the number of components.
func (g *Graph) ConnectedComponents() (comp []int, count int) {
	n := g.NumVertices()
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		for _, v := range g.BFS(s) {
			comp[v] = count
		}
		count++
	}
	return comp, count
}

// DegreeStats summarises the degree distribution; used to report dataset
// properties alongside the paper's Table 3.
type DegreeStats struct {
	Min, Max int
	Mean     float64
	// CV is the coefficient of variation (stddev/mean) of the degree
	// distribution — the irregularity measure that predicts how hard a graph
	// is to partition (Amazon/Reddit high, Protein low in the paper).
	CV float64
}

// Degrees returns statistics over out-degrees.
func (g *Graph) Degrees() DegreeStats {
	n := g.NumVertices()
	if n == 0 {
		return DegreeStats{}
	}
	min, max, sum := g.Degree(0), g.Degree(0), 0.0
	for v := 0; v < n; v++ {
		d := g.Degree(v)
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
		sum += float64(d)
	}
	mean := sum / float64(n)
	varsum := 0.0
	for v := 0; v < n; v++ {
		d := float64(g.Degree(v)) - mean
		varsum += d * d
	}
	cv := 0.0
	if mean > 0 {
		cv = math.Sqrt(varsum/float64(n)) / mean
	}
	return DegreeStats{Min: min, Max: max, Mean: mean, CV: cv}
}

// Permute relabels vertex i as perm[i] and returns the new graph.
func (g *Graph) Permute(perm []int) *Graph {
	return &Graph{Adj: g.Adj.PermuteSymmetric(perm)}
}
