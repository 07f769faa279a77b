package serve

import (
	"strconv"
	"testing"
)

// BenchmarkGatherCost measures the sparsity-aware inference cost as a
// function of request size, exposing the receptive-field overlap that makes
// micro-batching pay: on the dense quickstart dataset the gathered row
// count saturates toward the full graph within a few dozen targets, so the
// marginal vertex is nearly free once a batch is deep.
func BenchmarkGatherCost(b *testing.B) {
	ds, model := benchProblem(b)
	n := ds.G.NumVertices()
	for _, k := range []int{1, 8, 32, 128, 512} {
		if k > n {
			continue
		}
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			verts := make([]int, k)
			for i := range verts {
				verts[i] = (i * 97) % n
			}
			probs := make([]float64, k*model.Classes())
			gathered := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				gathered, err = model.ProbabilitiesInto(probs, ds, verts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(gathered), "rows-gathered")
		})
	}
}
