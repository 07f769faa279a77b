package gcn

import (
	"fmt"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/distmm"
	"sagnn/internal/opt"
)

// Distributed trains a GCN full-batch with block-row parallelism over any
// distmm.Engine (oblivious or sparsity-aware, 1D or 1.5D): the step of
// step.go over the engine operand, gradients all-reduced over the engine's
// gradient group so every rank's weight replica stays bit-consistent.
type Distributed struct {
	World  *comm.World
	Engine distmm.Engine
	// X, Labels, Train are global and already permuted into the engine's
	// vertex order (see ApplyPerm).
	X      *dense.Matrix
	Labels []int
	Train  []int
	Dims   []int
	LR     float64
	Seed   int64
	// NewOpt, if non-nil, constructs each rank's optimizer (each weight
	// replica needs its own optimizer state; determinism keeps replicas
	// identical). Nil means SGD at LR.
	NewOpt func() opt.Optimizer
	// Variant selects the layer operation (GCNConv default or SAGEConv).
	// The communication pattern is identical for both — one distributed
	// SpMM per layer per direction — which is the paper's generality claim.
	Variant Variant
}

// NewDistributed validates shapes.
func NewDistributed(w *comm.World, e distmm.Engine, x *dense.Matrix, labels []int, train []int, dims []int, lr float64, seed int64) *Distributed {
	if e.Layout().N() != x.Rows {
		panic(fmt.Sprintf("gcn: engine layout n=%d, X has %d rows", e.Layout().N(), x.Rows))
	}
	if len(labels) != x.Rows {
		panic("gcn: labels misaligned")
	}
	if dims[0] != x.Cols {
		panic(fmt.Sprintf("gcn: dims[0]=%d, X has %d features", dims[0], x.Cols))
	}
	return &Distributed{World: w, Engine: e, X: x, Labels: labels, Train: train, Dims: dims, LR: lr, Seed: seed}
}

// engineOperand is the distributed full-batch operand: Â·H is one
// collective Engine.MultiplyInto over this rank's block rows. The engine
// charges its own SpMMs.
type engineOperand struct {
	e distmm.Engine
	r *comm.Rank
	x *dense.Matrix
}

func (o *engineOperand) Input() *dense.Matrix                   { return o.x }
func (o *engineOperand) Rows(int) int                           { return o.x.Rows }
func (o *engineOperand) Aggregate(_ int, dst, h *dense.Matrix)  { o.e.MultiplyInto(o.r, h, dst) }
func (o *engineOperand) AggregateT(_ int, dst, g *dense.Matrix) { o.e.MultiplyInto(o.r, g, dst) }
func (o *engineOperand) Symmetric() bool                        { return true }

// rankTrain is one rank's share of the full-batch epoch: its operand and
// the training vertices inside its block rows (local row indices) with
// their classes.
type rankTrain struct {
	op           engineOperand
	rows, labels []int
}

// Stepper builds the per-rank replicas and returns the step-wise driver
// whose body is one full-batch epoch: forward, loss, backward, update.
func (d *Distributed) Stepper() *Stepper {
	newOpt := d.NewOpt
	if newOpt == nil {
		lr := d.LR
		newOpt = func() opt.Optimizer { return &opt.SGD{LR: lr} }
	}
	ranks := make([]rankTrain, d.World.P)
	body := func(r *comm.Rank, rep *Replica, _ int) (float64, float64, error) {
		rt := &ranks[r.ID]
		rt.op.r = r
		return rep.WS.Step(rep.Opt, rep.Model, d.Variant, &rt.op, rt.rows, rt.labels, len(d.Train),
			Collective{Rank: r, Group: rep.Group})
	}
	return NewStepper(d.World, len(d.Train), body, func(r *comm.Rank) *Replica {
		lo, hi := d.Engine.Layout().Range(d.Engine.BlockOf(r.ID))
		rep := &Replica{
			X:      d.X.SliceRows(lo, hi).Clone(),
			Model:  NewModelVariant(d.Seed, d.Dims, d.Variant),
			NewOpt: newOpt,
			Group:  d.Engine.GradGroup(r.ID),
		}
		rt := &ranks[r.ID]
		rt.op = engineOperand{e: d.Engine, x: rep.X}
		for _, v := range d.Train {
			if v >= lo && v < hi {
				rt.rows = append(rt.rows, v-lo)
				rt.labels = append(rt.labels, d.Labels[v])
			}
		}
		return rep
	})
}

// ApplyPerm relabels a dataset into a partitioner's vertex order: features
// move to permuted rows, labels follow, and index sets are mapped. It is
// the "rearranging the rows of H to match the new vertex ids" preprocessing
// step of Section 6.2.
func ApplyPerm(perm []int, x *dense.Matrix, labels []int, idxSets ...[]int) (*dense.Matrix, []int, [][]int) {
	px := x.PermuteRows(perm)
	plabels := make([]int, len(labels))
	for v, l := range labels {
		plabels[perm[v]] = l
	}
	psets := make([][]int, len(idxSets))
	for s, set := range idxSets {
		ps := make([]int, len(set))
		for i, v := range set {
			ps[i] = perm[v]
		}
		psets[s] = ps
	}
	return px, plabels, psets
}
