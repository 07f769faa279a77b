package gcn

import (
	"context"
	"fmt"
	"sync/atomic"

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
	// Input is Â·X over Engine and X, computed ahead of the first epoch that
	// needs it. NewDistributed starts a private one; trainers over one
	// distributed graph (its sessions) assign the graph's and share it.
	Input *InputProduct
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
	return &Distributed{World: w, Engine: e, X: x, Labels: labels, Train: train, Dims: dims, LR: lr, Seed: seed,
		Input: &InputProduct{World: w, Engine: e, X: x}}
}

// multiplyObserver, when it holds a function, is told the dense width of
// every collective multiply the full-batch trainers issue, in order, once
// per multiply (by the process's recorder rank).
var multiplyObserver atomic.Pointer[func(width int)]

// ObserveMultiplies installs fn as the process-wide multiply observer; nil
// removes it. Tests use it to count what a session runs — one feature-width
// multiply per distributed graph, EpochMultiplyWidths per epoch — instead
// of trusting a hand-written width list.
func ObserveMultiplies(fn func(width int)) { multiplyObserver.Store(&fn) }

// multiply is this rank's part of one collective Â·h over the engine.
func multiply(e distmm.Engine, r *comm.Rank, h, out *dense.Matrix) {
	if fn := multiplyObserver.Load(); fn != nil && *fn != nil && r.ID == r.World().LocalRank() {
		(*fn)(h.Cols)
	}
	e.MultiplyInto(r, h, out)
}

// InputProduct is Â·H⁰ of a distributed graph: the one multiply of the
// full-batch epoch whose operands training never changes — Â and H⁰ = X are
// fixed by the distribution — and the widest, at the feature width. It is
// computed once, by the collective Engine.MultiplyInto an epoch would have
// issued, so on every engine, replication factor, exec mode and transport
// its bits are that multiply's; every epoch of every trainer over it then
// reads it. Not safe for concurrent use: Ensure is collective over the
// world, like a step.
type InputProduct struct {
	World  *comm.World
	Engine distmm.Engine
	// X is the global feature matrix, in the engine's vertex order.
	X *dense.Matrix
	// blocks[rank] is a hosted rank's block rows of Â·X. Nil until Ensure
	// has succeeded: no rank's block is kept unless every rank's is.
	blocks []*dense.Matrix
}

// Ensure computes the product unless an earlier call has, in one collective
// launch of its own. A fault or cancellation inside the launch aborts it
// like any other (the typed *comm.RankError) and keeps nothing, so a retry
// recomputes the whole product, to the same bits.
func (p *InputProduct) Ensure(ctx context.Context) error {
	if p.blocks != nil {
		return nil
	}
	blocks := make([]*dense.Matrix, p.World.P)
	err := p.World.RunCtx(ctx, func(r *comm.Rank) error {
		lo, hi := p.Engine.Layout().Range(p.Engine.BlockOf(r.ID))
		blocks[r.ID] = dense.New(hi-lo, p.X.Cols)
		multiply(p.Engine, r, p.X.SliceRows(lo, hi), blocks[r.ID])
		return nil
	})
	if err == nil {
		p.blocks = blocks
	}
	return err
}

// Block returns a hosted rank's block rows of the product, nil until Ensure
// has succeeded. Read-only.
func (p *InputProduct) Block(rank int) *dense.Matrix {
	if p.blocks == nil {
		return nil
	}
	return p.blocks[rank]
}

// engineOperand is the distributed full-batch operand: layer 1 reads this
// rank's rows of the input product, and Â·H above it is one collective
// Engine.MultiplyInto over this rank's block rows. The engine charges its
// own SpMMs.
type engineOperand struct {
	e  distmm.Engine
	r  *comm.Rank
	x  *dense.Matrix
	in *InputProduct
}

func (o *engineOperand) First() (agg, h0 *dense.Matrix)            { return o.in.Block(o.r.ID), o.x }
func (o *engineOperand) Rows(int) int                              { return o.x.Rows }
func (o *engineOperand) Aggregate(_ int, dst, h *dense.Matrix)     { multiply(o.e, o.r, h, dst) }
func (o *engineOperand) Self(_ int, h *dense.Matrix) *dense.Matrix { return h }
func (o *engineOperand) AggregateT(_ int, dst, g *dense.Matrix)    { multiply(o.e, o.r, g, dst) }

// rankTrain is one rank's share of the full-batch epoch: its operand and
// the training vertices inside its block rows (local row indices) with
// their classes.
type rankTrain struct {
	op           engineOperand
	rows, labels []int
}

// Stepper builds the per-rank replicas and returns the step-wise driver
// whose body is one full-batch epoch: forward, loss, backward, update. Its
// set-up is Input, so the first step computes Â·X ahead of its first epoch
// unless a trainer sharing Input already has.
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
	return NewStepper(d.World, len(d.Train), d.Input.Ensure, body, func(r *comm.Rank) *Replica {
		lo, hi := d.Engine.Layout().Range(d.Engine.BlockOf(r.ID))
		rep := &Replica{
			X:      d.X.SliceRows(lo, hi), // a view: the step only reads it
			Model:  NewModelVariant(d.Seed, d.Dims, d.Variant),
			NewOpt: newOpt,
			Group:  d.Engine.GradGroup(r.ID),
		}
		rt := &ranks[r.ID]
		rt.op = engineOperand{e: d.Engine, x: rep.X, in: d.Input}
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
