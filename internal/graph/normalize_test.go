package graph_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"sagnn/internal/gen"
	"sagnn/internal/graph"
	"sagnn/internal/graphio"
	"sagnn/internal/sparse"
)

// refNormalizedAdjacency is the COO construction NormalizedAdjacency
// replaced: A's entries plus one identity entry per row through NewCSR,
// which sums a stored diagonal with its 1, then the symmetric scaling.
func refNormalizedAdjacency(a *sparse.CSR) *sparse.CSR {
	n := a.NumRows
	coords := a.ToCoords()
	for i := 0; i < n; i++ {
		coords = append(coords, sparse.Coord{Row: i, Col: i, Val: 1})
	}
	m := sparse.NewCSR(n, n, coords)
	invSqrt := make([]float64, n)
	for i := 0; i < n; i++ {
		d := 0.0
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			d += m.Val[p]
		}
		invSqrt[i] = 1 / math.Sqrt(d)
	}
	for r := 0; r < n; r++ {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			m.Val[p] *= invSqrt[r] * invSqrt[m.ColIdx[p]]
		}
	}
	return m
}

// TestNormalizedAdjacencyBits compares NormalizedAdjacency with
// refNormalizedAdjacency by Float64bits. The MatrixMarket input stores
// diagonal entries (FromEdges would drop them), has an empty row (1) and an
// isolated vertex (5), and is not symmetric.
func TestNormalizedAdjacencyBits(t *testing.T) {
	withDiag, err := graphio.ReadMatrixMarket(strings.NewReader(`%%MatrixMarket matrix coordinate real general
6 6 9
1 1 0.25
1 3 0.7
1 5 0.3
3 1 0.7
3 3 2.5
4 2 0.1
4 5 0.9
5 1 1.3
5 5 1.5
`))
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]*sparse.CSR{
		"diagonal":     withDiag,
		"amazon-sim":   gen.MustLoad(gen.AmazonSim, 1, 64).G.Adj,
		"no vertices":  sparse.NewCSR(0, 0, nil),
		"edgeless (3)": sparse.NewCSR(3, 3, nil),
	} {
		want, got := refNormalizedAdjacency(a), (&graph.Graph{Adj: a}).NormalizedAdjacency()
		if got.NumRows != want.NumRows || !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
			t.Fatalf("%s: structure %v %v, want %v %v", name, got.RowPtr, got.ColIdx, want.RowPtr, want.ColIdx)
		}
		for i, v := range want.Val {
			if math.Float64bits(got.Val[i]) != math.Float64bits(v) {
				t.Fatalf("%s: entry %d = %v, want %v", name, i, got.Val[i], v)
			}
		}
	}
}

var setupSink *sparse.CSR

// BenchmarkNormalizedAdjacencySetup normalises reddit-sim at full size, the
// fullbatch-sa-sim shape.
func BenchmarkNormalizedAdjacencySetup(b *testing.B) {
	g := gen.MustLoad(gen.RedditSim, 1, 1).G
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setupSink = g.NormalizedAdjacency()
	}
}
