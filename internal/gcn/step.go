package gcn

import (
	"errors"
	"math"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/opt"
)

// ErrEmptyTrainSet is returned by every trainer asked to step over no
// training vertices: there is nothing to average, so no loss exists.
var ErrEmptyTrainSet = errors.New("gcn: empty training set")

// ForwardOperand is the sparse side of a forward pass: the first layer's
// aggregate Â_1·H⁰, handed over whole, and for each layer above it the
// aggregation Â_l·H^{l−1}, dims[l−1] columns wide. The layer recurrence
// below is written once over it; the serial trainer, the distributed
// engines, the sampled block chains and the serving frontier differ only in
// the operand they pass.
type ForwardOperand interface {
	// First returns Â_1·H⁰. It does not depend on the weights, so an operand
	// over a fixed graph and fixed features computes the product once and
	// returns the same matrix on every pass; the step only reads it.
	First() *dense.Matrix
	// Rows returns the row count of Â_l (and so of H^l), l = 2..L.
	Rows(l int) int
	// Aggregate writes Â_l·h into dst (Rows(l) × h.Cols), l = 2..L.
	Aggregate(l int, dst, h *dense.Matrix)
}

// Operand is the sparse side of one training step: the forward half and,
// for each layer above the first, Â_lᵀ·(G^l (W^l)ᵀ) (backward), dims[l−1]
// columns wide.
type Operand interface {
	ForwardOperand
	// AggregateT writes Â_lᵀ·g into dst (Rows(l−1) × g.Cols), l = 2..L.
	AggregateT(l int, dst, g *dense.Matrix)
}

// Collective is what a distributed caller adds to the recurrence: the
// rank whose ledger every local GEMM is charged to and the group the loss
// pair and the weight gradients are all-reduced over. The zero value is the
// serial caller: no charge, no reduction.
type Collective struct {
	Rank  *comm.Rank
	Group *comm.Group
}

// chargeGEMM prices an m×k by k×n product on the rank's ledger.
func (c Collective) chargeGEMM(m, k, n int) {
	if c.Rank != nil {
		c.Rank.ChargeCompute("local", c.Rank.World().Params.GEMMTime(2*int64(m)*int64(k)*int64(n)))
	}
}

// EpochCharges is the trainer's share of one full-batch epoch on a rank that
// holds rows block rows: what Step charges besides its operand's
// multiplies. It returns the flops of the 3L−1 local GEMMs (L forward, then
// from layer L down (P^l)ᵀ·G^l and, above layer 1, G^l·(W^l)ᵀ) and the
// lengths of the L+1 all-reduces (the loss pair, then the weight gradients
// from layer L down), in the order Step charges them. An epoch priced
// without running it charges exactly these.
func EpochCharges(dims []int, rows int) (gemmFlops []int64, reductions []int) {
	L := len(dims) - 1
	gemm := func(l int) int64 { return 2 * int64(rows) * int64(dims[l-1]) * int64(dims[l]) }
	for l := 1; l <= L; l++ {
		gemmFlops = append(gemmFlops, gemm(l))
	}
	reductions = append(reductions, 2) // the loss pair
	for l := L; l >= 1; l-- {
		gemmFlops = append(gemmFlops, gemm(l))
		reductions = append(reductions, dims[l-1]*dims[l])
		if l > 1 {
			gemmFlops = append(gemmFlops, gemm(l))
		}
	}
	return gemmFlops, reductions
}

// Workspace holds the buffers of one training step. Every buffer grows to
// the largest shape it has been asked for and is then reused, so full-batch
// epochs (fixed shapes) and sampled steps (shapes bounded by the batch)
// both run allocation-free once warm, and a workspace that only ever runs
// Forward never grows the backward buffers.
type Workspace struct {
	layers      []layerBufs     // layers[l] serves layer l = 1..L
	grads       []*dense.Matrix // the L weight gradients Gradients returns
	red, redOut [2]float64      // loss / correct reduction staging
}

// layerBufs is one layer's share of a Workspace.
type layerBufs struct {
	agg, z, act *dense.Matrix // Â·H (l ≥ 2), pre-activation, ReLU output
	p           *dense.Matrix // the GEMM input: the aggregate (the operand's at l = 1)
	g, back     *dense.Matrix // ∂L/∂Z, G·Wᵀ
	yl          *dense.Matrix // local weight gradient awaiting its all-reduce
}

// fit sizes the per-layer tables for an L-layer model.
func (ws *Workspace) fit(L int) {
	if len(ws.layers) != L+1 {
		ws.layers = make([]layerBufs, L+1)
		ws.grads = make([]*dense.Matrix, L)
	}
}

// grow reshapes the buffer in slot to rows×cols, reallocating only when it
// has never been that large.
func grow(slot **dense.Matrix, rows, cols int) *dense.Matrix {
	*slot = dense.Reshape(*slot, rows, cols)
	return *slot
}

// Forward runs Z^l = P^l W^l, H^l = σ(Z^l) over every layer, with P^l = Â_l
// H^{l−1}, and returns the logits Z^L. Layer 1's aggregate is the operand's
// (First) and is read where it lies — it may be shared, so it never enters a
// workspace slot; the layers above aggregate into the workspace. The result
// is workspace-backed and overwritten by the next pass.
func (ws *Workspace) Forward(m *Model, op ForwardOperand, c Collective) *dense.Matrix {
	L := m.Layers()
	ws.fit(L)
	agg := op.First()
	var h *dense.Matrix
	for l := 1; l <= L; l++ {
		w, b := m.Weights[l-1], &ws.layers[l]
		if l > 1 {
			agg = grow(&b.agg, op.Rows(l), h.Cols)
			op.Aggregate(l, agg, h)
		}
		b.p = agg
		z := grow(&b.z, b.p.Rows, w.Cols)
		dense.MatMulInto(z, b.p, w)
		c.chargeGEMM(b.p.Rows, w.Rows, w.Cols)
		h = z
		if l < L {
			h = grow(&b.act, z.Rows, z.Cols)
			z.ReLUInto(h)
		}
	}
	return h
}

// Probabilities is an inference pass: Forward, then the row-wise softmax of
// the logits in place. The result is workspace-backed like the logits.
func (ws *Workspace) Probabilities(m *Model, op ForwardOperand) *dense.Matrix {
	probs := ws.Forward(m, op, Collective{})
	dense.SoftmaxRows(probs)
	return probs
}

// loss is the softmax cross-entropy of the trained rows and its gradient:
// labels[k] is the class of logits row rows[k] (row k when rows is nil).
// It writes (softmax − onehot)·inv into those rows of ∂L/∂Z^L, zero
// elsewhere, and returns the summed negative log-likelihood and the count
// of correct argmax predictions — sums, so distributed callers can reduce
// them before normalising.
func (ws *Workspace) loss(logits *dense.Matrix, rows, labels []int, inv float64) (lossSum, correct float64) {
	g := grow(&ws.layers[len(ws.layers)-1].g, logits.Rows, logits.Cols)
	g.Zero()
	for k, y := range labels {
		i := k
		if rows != nil {
			i = rows[k]
		}
		row := g.Row(i)
		copy(row, logits.Row(i))
		dense.SoftmaxRow(row)
		p := row[y]
		if p < 1e-12 {
			p = 1e-12
		}
		lossSum -= math.Log(p)
		if dense.ArgmaxRow(row) == y {
			correct++
		}
		for j, v := range row {
			row[j] = v * inv
		}
		row[y] -= inv
	}
	return lossSum, correct
}

// backward is Forward's transposed chain from the output gradient loss
// left behind: Y^l = (P^l)ᵀ G^l (all-reduced when distributed) and G^{l−1} =
// ∂L/∂H^{l−1} ⊙ σ′(Z^{l−1}), from layer L down. ∂L/∂H^{l−1} = Â_lᵀ G^l (W^l)ᵀ
// is associated Wᵀ-first on every operand: the aggregation — the
// multiply a distributed operand exchanges rows for — then runs at dims[l−1],
// the width the forward aggregated at, not at dims[l], which is the class
// count at the top layer and wider than the hidden width in every preset.
func (ws *Workspace) backward(m *Model, op Operand, c Collective) []*dense.Matrix {
	L := m.Layers()
	g := ws.layers[L].g
	for l := L; l >= 1; l-- {
		w, b := m.Weights[l-1], &ws.layers[l]
		grad := grow(&ws.grads[l-1], w.Rows, w.Cols)
		yl := grad
		if c.Group != nil {
			yl = grow(&b.yl, w.Rows, w.Cols)
		}
		dense.MatMulTransAInto(yl, b.p, g)
		c.chargeGEMM(b.p.Rows, w.Rows, w.Cols)
		if c.Group != nil {
			c.Group.AllReduceSumInto(c.Rank, yl.Data, grad.Data, "allreduce")
		}
		if l == 1 {
			break
		}
		below := &ws.layers[l-1]
		z := below.z
		gPrev := grow(&below.g, z.Rows, z.Cols)
		dc := grow(&b.back, g.Rows, w.Rows)
		dense.MatMulTransBInto(dc, g, w)
		c.chargeGEMM(g.Rows, w.Cols, w.Rows)
		op.AggregateT(l, gPrev, dc)
		gPrev.HadamardReLUDeriv(z)
		g = gPrev
	}
	return ws.grads
}

// Step is one training step: Gradients, then the optimizer's update of m.
func (ws *Workspace) Step(o opt.Optimizer, m *Model, op Operand, rows, labels []int, n int, c Collective) (lossSum, correct float64, err error) {
	lossSum, correct, grads, err := ws.Gradients(m, op, rows, labels, n, c)
	if err == nil {
		o.Step(m.Weights, grads)
	}
	return lossSum, correct, err
}

// Gradients runs one step short of the update: forward, loss over the rows
// this caller trains on (see loss), the loss-pair reduction, and backward
// with its L gradient reductions. n is the step's global example count, the
// one gradient scale 1/n every path shares; zero is ErrEmptyTrainSet. It
// returns the (reduced) loss sum and correct count and the workspace-backed
// weight gradients, overwritten by the next call.
func (ws *Workspace) Gradients(m *Model, op Operand, rows, labels []int, n int, c Collective) (lossSum, correct float64, grads []*dense.Matrix, err error) {
	if n == 0 {
		return 0, 0, nil, ErrEmptyTrainSet
	}
	logits := ws.Forward(m, op, c)
	sums := &ws.red
	sums[0], sums[1] = ws.loss(logits, rows, labels, 1/float64(n))
	if c.Group != nil {
		c.Group.AllReduceSumInto(c.Rank, ws.red[:], ws.redOut[:], "allreduce")
		sums = &ws.redOut
	}
	return sums[0], sums[1], ws.backward(m, op, c), nil
}
