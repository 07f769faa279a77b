package distmm

import (
	"fmt"
	"testing"

	"sagnn/internal/dense"
	"sagnn/internal/gen"
	"sagnn/internal/partition"
	"sagnn/internal/sparse"
)

// BenchmarkLocalMultiplyNarrow is one rank's Algorithm 1 local multiply at
// the fullbatch-sa-sim shape — reddit-sim ÷1 in its GVB k = 4 order, the
// rank with the most nonzeros — at the hidden width: "sweep" is the one
// pass over the diagonal block and the merged peer blocks the executor
// runs, "slots" the zeroed accumulator and one multiply per block it
// replaces.
func BenchmarkLocalMultiplyNarrow(b *testing.B) {
	const p, f = 4, 16
	ds := gen.MustLoad(gen.RedditSim, 1, 1)
	part := partition.GVB{Seed: 1}.Partition(ds.G, p)
	aHat := ds.G.NormalizedAdjacency().PermuteSymmetric(part.Perm())
	layout := LayoutFromOffsets(part.Offsets())
	sched := buildNnzSchedule(layoutRows(aHat, layout), layout, nil, new(nnzSchedule))
	me := 0
	for i := range sched.diag {
		if sched.diag[i].NNZ()+sched.halo[i].NNZ() > sched.diag[me].NNZ()+sched.halo[me].NNZ() {
			me = i
		}
	}
	diag, merged := sched.diag[me], sched.halo[me]
	h := dense.New(layout.Count(me), f)
	halo := dense.New(merged.NumCols, f)
	for i := range h.Data {
		h.Data[i] = float64(i%7) - 3
	}
	for i := range halo.Data {
		halo.Data[i] = float64(i%5) - 2
	}
	slots := make([]*sparse.CSR, len(sched.recvIdx[me]))
	for j := range slots {
		if j != me {
			slots[j] = sched.slots(me, j, j+1)
		}
	}
	out := dense.New(diag.NumRows, f)
	flops := float64(diag.Flops(f) + merged.Flops(f))
	forms := []struct {
		name string
		run  func()
	}{
		{"sweep", func() { diag.SpMMPairInto(out, h, merged, halo) }},
		{"slots", func() {
			out.Zero()
			diag.SpMMAddInto(out, h)
			for j, blk := range slots {
				if blk != nil && blk.NumCols > 0 {
					lo, hi := sched.haloAt[me][j], sched.haloAt[me][j+1]
					blk.SpMMAddInto(out, halo.SliceRows(lo, hi))
				}
			}
		}},
	}
	for _, form := range forms {
		b.Run(fmt.Sprintf("%d/%s", f, form.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				form.run()
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
