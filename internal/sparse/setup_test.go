package sparse_test

import (
	"testing"

	"sagnn/internal/gen"
	"sagnn/internal/partition"
	"sagnn/internal/sparse"
)

// The set-up benchmarks run at the fullbatch-sa-sim shape: reddit-sim at
// full size (4096 vertices), partitioned four ways by GVB.

var setupSink *sparse.CSR

// BenchmarkNewCSRSetup builds reddit-sim's adjacency from both directions
// of every edge, as Graph.Symmetrize does.
func BenchmarkNewCSRSetup(b *testing.B) {
	a := gen.MustLoad(gen.RedditSim, 1, 1).G.Adj
	var coords []sparse.Coord
	for _, c := range a.ToCoords() {
		coords = append(coords, c, sparse.Coord{Row: c.Col, Col: c.Row, Val: c.Val})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setupSink = sparse.NewCSR(a.NumRows, a.NumCols, coords)
	}
}

// BenchmarkPermuteSymmetricSetup reorders reddit-sim's Â by its GVB k = 4
// partition.
func BenchmarkPermuteSymmetricSetup(b *testing.B) {
	ds := gen.MustLoad(gen.RedditSim, 1, 1)
	aHat, perm := ds.G.NormalizedAdjacency(), partition.GVB{Seed: 1}.Partition(ds.G, 4).Perm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setupSink = aHat.PermuteSymmetric(perm)
	}
}
