package distmm

import (
	"math/rand"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/gen"
	"sagnn/internal/machine"
	"sagnn/internal/partition"
)

// TestMeasuredVolumeMatchesPartitionPrediction is the cross-module
// invariant behind Table 2: the bytes the sparsity-aware 1D algorithm
// actually sends in one Multiply must equal the partitioner's analytic
// send-volume metric (rows × f × wire bytes) exactly, per process.
func TestMeasuredVolumeMatchesPartitionPrediction(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 6, 33))
	n := g.NumVertices()
	const p, f = 8, 10

	part := partition.MetisLike{Seed: 5}.Partition(g, p)
	vs := partition.Volumes(g, part)
	perm := part.Perm()

	aHat := g.NormalizedAdjacency().PermuteSymmetric(perm)
	h := dense.NewRandom(rand.New(rand.NewSource(34)), n, f, 1.0)

	w := comm.NewWorld(p, machine.Perlmutter())
	e := NewSparsityAware1D(w, aHat, LayoutFromOffsets(part.Offsets()))
	lay := e.Layout()
	w.Run(func(r *comm.Rank) {
		lo, hi := lay.Range(r.ID)
		e.MultiplyInto(r, h.SliceRows(lo, hi).Clone(), dense.New(hi-lo, h.Cols))
	})

	for rank := 0; rank < p; rank++ {
		want := vs.SendRows[rank] * int64(f) * machine.BytesPerElem
		got := w.Stats().BytesSent(rank)
		if got != want {
			t.Fatalf("rank %d: measured %d bytes, partition model predicts %d", rank, got, want)
		}
	}
	// and the oblivious algorithm's receive volume is the full dense matrix
	// minus the local block, per rank, independent of sparsity.
	wO := comm.NewWorld(p, machine.Perlmutter())
	eo := NewOblivious1D(wO, aHat, LayoutFromOffsets(part.Offsets()))
	wO.Run(func(r *comm.Rank) {
		lo, hi := lay.Range(r.ID)
		eo.MultiplyInto(r, h.SliceRows(lo, hi).Clone(), dense.New(hi-lo, h.Cols))
	})
	for rank := 0; rank < p; rank++ {
		lo, hi := lay.Range(rank)
		want := int64(n-(hi-lo)) * int64(f) * machine.BytesPerElem
		if got := wO.Stats().BytesRecv(rank); got != want {
			t.Fatalf("oblivious rank %d: recv %d, want %d", rank, got, want)
		}
	}
}

// TestSA15DVolumeScalesDownWithReplication: with layout fixed at k blocks,
// the 1.5D stage traffic for one Multiply equals the 1D sparsity-aware
// volume for the same k-block partition — replication redistributes who
// receives what but the union of stage transfers covers each off-diagonal
// block exactly once.
func TestSA15DVolumeCoversBlocksOnce(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 5, 35))
	n := g.NumVertices()
	const f = 6
	aHat := g.NormalizedAdjacency()
	h := dense.NewRandom(rand.New(rand.NewSource(36)), n, f, 1.0)

	// 1D with k=4 blocks.
	w1 := comm.NewWorld(4, machine.Perlmutter())
	e1 := NewSparsityAware1D(w1, aHat, UniformLayout(n, 4))
	w1.Run(func(r *comm.Rank) {
		lo, hi := e1.Layout().Range(r.ID)
		e1.MultiplyInto(r, h.SliceRows(lo, hi).Clone(), dense.New(hi-lo, h.Cols))
	})
	oneD := w1.Stats().Snapshot().TotalSent()

	// 1.5D with p=8, c=2 → same 4 block rows.
	w2 := comm.NewWorld(8, machine.Perlmutter())
	e2 := NewSparsityAware15D(w2, aHat, 2, UniformLayout(n, 4))
	w2.Run(func(r *comm.Rank) {
		lo, hi := e2.Layout().Range(e2.BlockOf(r.ID))
		e2.MultiplyInto(r, h.SliceRows(lo, hi).Clone(), dense.New(hi-lo, h.Cols))
	})
	// subtract the all-reduce traffic (1.5D-only) to isolate stage sends:
	// allreduce accounting adds n/k×f elements per rank.
	var allreduceBytes int64
	for rank := 0; rank < 8; rank++ {
		lo, hi := e2.Layout().Range(e2.BlockOf(rank))
		allreduceBytes += int64(hi-lo) * f * machine.BytesPerElem
	}
	stageBytes := w2.Stats().Snapshot().TotalSent() - allreduceBytes
	if stageBytes != oneD {
		t.Fatalf("1.5D stage traffic %d != 1D volume %d", stageBytes, oneD)
	}
}
