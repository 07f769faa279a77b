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
	// Labels and Train are global and in the engine's vertex order (see
	// ApplyPerm); the features are Input's.
	Labels []int
	Train  []int
	Dims   []int
	LR     float64
	Seed   int64
	// NewOpt, if non-nil, constructs each rank's optimizer (each weight
	// replica needs its own optimizer state; determinism keeps replicas
	// identical). Nil means SGD at LR.
	NewOpt func() opt.Optimizer
	// Input is Â·X over Engine, computed ahead of the first epoch that needs
	// it; the epoch reads nothing else of the features. NewDistributed
	// starts a private one; trainers over one distributed graph (its
	// sessions) share the graph's.
	Input *InputProduct
}

// NewDistributed validates shapes. x holds every feature row, in the
// engine's vertex order.
func NewDistributed(w *comm.World, e distmm.Engine, x *dense.Matrix, labels []int, train []int, dims []int, lr float64, seed int64) *Distributed {
	if n := e.Layout().N(); x.Rows != n || len(labels) != n || dims[0] != x.Cols {
		panic(fmt.Sprintf("gcn: %d×%d features and %d labels for %d vertices and dims[0]=%d", x.Rows, x.Cols, len(labels), n, dims[0]))
	}
	return &Distributed{World: w, Engine: e, Labels: labels, Train: train, Dims: dims, LR: lr, Seed: seed,
		Input: &InputProduct{World: w, Engine: e, X: x}}
}

// multiplyObserver, when it holds a function, is told the dense width of
// every collective multiply the full-batch trainers issue, in order, once
// per multiply (by the process's recorder rank).
var multiplyObserver atomic.Pointer[func(width int)]

// ObserveMultiplies installs fn as the process-wide multiply observer; nil
// removes it. Tests use it to count what a session runs — the set-up's
// panels (distmm.SetupWidths) once per distributed graph,
// EpochMultiplyWidths per epoch — instead of trusting a hand-written width
// list.
func ObserveMultiplies(fn func(width int)) { multiplyObserver.Store(&fn) }

// multiply is this rank's part of one collective Â·h over the engine.
func multiply(e distmm.Engine, r *comm.Rank, h, out *dense.Matrix) {
	if fn := multiplyObserver.Load(); fn != nil && *fn != nil && r.ID == r.World().LocalRank() {
		(*fn)(h.Cols)
	}
	e.MultiplyInto(r, h, out)
}

// HostedSpan returns the rows [lo, hi) of the global vertex order that the
// ranks this process hosts own, given each rank's rows: every row on an
// in-process world, one rank's block over TCP.
func HostedSpan(w *comm.World, rowsOf func(rank int) (lo, hi int)) (lo, hi int) {
	lo = -1
	for _, rank := range w.Hosted() {
		l, h := rowsOf(rank)
		if lo < 0 || l < lo {
			lo = l
		}
		hi = max(hi, h)
	}
	return lo, hi
}

// HostedRows returns a hosted rank's rows of x (a view), where x is a
// matrix in an n-row vertex order held whole or as exactly the process's
// HostedSpan — how a multi-process rank keeps its sampled trainer's
// features: only its own block's rows, which is all it reads. Any other x
// panics.
func HostedRows(w *comm.World, n int, rowsOf func(rank int) (lo, hi int), x *dense.Matrix, rank int) *dense.Matrix {
	lo, hi := rowsOf(rank)
	if x.Rows == n {
		return x.SliceRows(lo, hi)
	}
	off, end := HostedSpan(w, rowsOf)
	if x.Rows != end-off {
		panic(fmt.Sprintf("gcn: X has %d rows: neither the layout's %d nor the %d rows [%d,%d) this process hosts", x.Rows, n, end-off, off, end))
	}
	return x.SliceRows(lo-off, hi-off)
}

// InputProduct is Â·H⁰ of a distributed graph: the one multiply of the
// full-batch epoch whose operands training never changes — Â and H⁰ = X are
// fixed by the distribution — and the widest, at the feature width. It is
// computed once, in one launch, as the collective Engine.MultiplyInto of
// each column panel of X (distmm.SetupWidths), each gathered from X's rows
// of the rank's block and its output written into its columns of the
// block: every output element sums its products in
// ascending CSR position without FMA on every engine, replication factor
// and transport, so a column's bits do not depend on the columns beside it
// and the product is that of one feature-width multiply, while the
// executor and transport buffers the launch grows stay panel-wide. Every
// epoch of every trainer over it then reads it, and layer 1's weight
// gradient reads its transpose, built in the same launch. Not safe for
// concurrent use: Ensure is collective over the world, like a step.
type InputProduct struct {
	World  *comm.World
	Engine distmm.Engine
	// X is the feature matrix, every row, read only by Ensure. Rows[i] is
	// the row of X that holds engine-order vertex i; nil means X is in the
	// engine's vertex order. A distributed graph passes its dataset's
	// features and the inverse of the partitioner's relabeling, so no
	// permuted copy of X exists.
	X    *dense.Matrix
	Rows []int
	// blocks[rank] is a hosted rank's block rows of Â·X, and blocksT[rank]
	// their transpose. Nil until Ensure has succeeded: no rank's block is
	// kept unless every rank's is.
	blocks, blocksT []*dense.Matrix
}

// Ensure computes the product unless an earlier call has, in one collective
// launch of its own. A fault or cancellation inside the launch aborts it
// like any other (the typed *comm.RankError) and keeps nothing, so a retry
// recomputes the whole product, to the same bits.
func (p *InputProduct) Ensure(ctx context.Context) error {
	if p.blocks != nil {
		return nil
	}
	blocks, blocksT := make([]*dense.Matrix, p.World.P), make([]*dense.Matrix, p.World.P)
	widths := distmm.SetupWidths(p.X.Cols)
	err := p.World.RunCtx(ctx, func(r *comm.Rank) error {
		lo, hi := p.Engine.Layout().Range(p.Engine.BlockOf(r.ID))
		block := dense.New(hi-lo, p.X.Cols)
		var in, out *dense.Matrix
		c := 0
		for _, w := range widths {
			in, out = dense.Reshape(in, hi-lo, w), dense.Reshape(out, hi-lo, w)
			for i := 0; i < in.Rows; i++ {
				v := lo + i
				if p.Rows != nil {
					v = p.Rows[v]
				}
				copy(in.Row(i), p.X.Row(v)[c:c+w])
			}
			multiply(p.Engine, r, in, out)
			dense.CopyCols(block, c, out, 0, w)
			c += w
		}
		blocks[r.ID], blocksT[r.ID] = block, block.Transpose()
		return nil
	})
	if err == nil {
		p.blocks, p.blocksT = blocks, blocksT
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
	e    distmm.Engine
	r    *comm.Rank
	rows int // this rank's block rows
	in   *InputProduct
}

func (o *engineOperand) First() *dense.Matrix                   { return o.in.Block(o.r.ID) }
func (o *engineOperand) FirstT() *dense.Matrix                  { return o.in.blocksT[o.r.ID] }
func (o *engineOperand) Rows(int) int                           { return o.rows }
func (o *engineOperand) Aggregate(_ int, dst, h *dense.Matrix)  { multiply(o.e, o.r, h, dst) }
func (o *engineOperand) AggregateT(_ int, dst, g *dense.Matrix) { multiply(o.e, o.r, g, dst) }

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
		return rep.WS.Step(rep.Opt, rep.Model, &rt.op, rt.rows, rt.labels, len(d.Train),
			Collective{Rank: r, Group: rep.Group})
	}
	return NewStepper(d.World, len(d.Train), d.Input.Ensure, body, func(r *comm.Rank) *Replica {
		lo, hi := d.Engine.Layout().Range(d.Engine.BlockOf(r.ID))
		rep := &Replica{
			Model:  NewModel(d.Seed, d.Dims),
			NewOpt: newOpt,
			Group:  d.Engine.GradGroup(r.ID),
		}
		rt := &ranks[r.ID]
		rt.op = engineOperand{e: d.Engine, rows: hi - lo, in: d.Input}
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
	plabels, psets := Relabel(perm, labels, idxSets...)
	return x.PermuteRows(perm), plabels, psets
}

// Relabel is ApplyPerm without the features: labels move to permuted
// vertices and index sets are mapped. The features of a distributed graph
// stay where they lie: InputProduct reads them through the inverse
// relabeling (InputProduct.Rows).
func Relabel(perm []int, labels []int, idxSets ...[]int) ([]int, [][]int) {
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
	return plabels, psets
}
