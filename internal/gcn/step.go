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
	// First returns Â_1·H⁰ and H⁰. Neither depends on the weights, so an
	// operand over a fixed graph and fixed features computes the product
	// once and returns the same matrix on every pass; the step only reads
	// them. H⁰ is SAGEConv's self half and may be nil where the operand
	// never materialises it (the distributed sampled gather, GCNConv only).
	First() (agg, h0 *dense.Matrix)
	// Rows returns the row count of Â_l (and so of H^l), l = 2..L.
	Rows(l int) int
	// Aggregate writes Â_l·h into dst (Rows(l) × h.Cols), l = 2..L.
	Aggregate(l int, dst, h *dense.Matrix)
	// Self returns SAGEConv's self half of layer l: the rows of h = H^{l−1}
	// that Â_l's rows name, Rows(l) of them, l = 2..L. A square operand
	// returns h.
	Self(l int, h *dense.Matrix) *dense.Matrix
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
	agg, cat, z, act *dense.Matrix // Â·H (l ≥ 2), SAGE [Â·H | H], pre-activation, ReLU output
	p                *dense.Matrix // the GEMM input: the aggregate (the operand's at l = 1) or cat
	g, back, deriv   *dense.Matrix // ∂L/∂Z, G·Wᵀ, σ′(Z)
	dp, dself        *dense.Matrix // SAGE: aggregated / self halves of G·Wᵀ
	yl               *dense.Matrix // local weight gradient awaiting its all-reduce
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
// H^{l−1} (GCNConv) or [Â_l H^{l−1} | H^{l−1}] (SAGEConv), and returns the
// logits Z^L. Layer 1's aggregate is the operand's (First) and is read where
// it lies — it may be shared, so it never enters a workspace slot; the layers
// above aggregate into the workspace. The result is workspace-backed and
// overwritten by the next pass.
//
//sagnn:steadystate
func (ws *Workspace) Forward(m *Model, v Variant, op ForwardOperand, c Collective) *dense.Matrix {
	L := m.Layers()
	ws.fit(L)
	agg, h := op.First()
	for l := 1; l <= L; l++ {
		w, b := m.Weights[l-1], &ws.layers[l]
		if l > 1 {
			agg = grow(&b.agg, op.Rows(l), h.Cols)
			op.Aggregate(l, agg, h)
			if v == SAGEConv {
				h = op.Self(l, h)
			}
		}
		b.p = agg
		if v == SAGEConv {
			b.p = grow(&b.cat, agg.Rows, 2*h.Cols)
			dense.HStackInto(b.p, agg, h)
		}
		z := grow(&b.z, b.p.Rows, w.Cols)
		dense.MatMulInto(z, b.p, w)
		c.chargeGEMM(b.p.Rows, w.Rows, w.Cols)
		h = z
		if l < L {
			h = grow(&b.act, z.Rows, z.Cols)
			h.CopyFrom(z)
			h.ReLU()
		}
	}
	return h
}

// Probabilities is an inference pass: Forward, then the row-wise softmax of
// the logits in place. The result is workspace-backed like the logits.
func (ws *Workspace) Probabilities(m *Model, v Variant, op ForwardOperand) *dense.Matrix {
	probs := ws.Forward(m, v, op, Collective{})
	dense.SoftmaxRows(probs)
	return probs
}

// loss is the softmax cross-entropy of the trained rows and its gradient:
// labels[k] is the class of logits row rows[k] (row k when rows is nil).
// It writes (softmax − onehot)·inv into those rows of ∂L/∂Z^L, zero
// elsewhere, and returns the summed negative log-likelihood and the count
// of correct argmax predictions — sums, so distributed callers can reduce
// them before normalising.
//
//sagnn:steadystate
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
		best, bestv := 0, row[0]
		for j, v := range row {
			if v > bestv {
				best, bestv = j, v
			}
			row[j] = v * inv
		}
		row[y] -= inv
		if best == y {
			correct++
		}
	}
	return lossSum, correct
}

// backward is Forward's transposed chain from the output gradient loss
// left behind: Y^l = (P^l)ᵀ G^l (all-reduced when distributed) and G^{l−1} =
// ∂L/∂H^{l−1} ⊙ σ′(Z^{l−1}), from layer L down. ∂L/∂H^{l−1} = Â_lᵀ G^l (W^l)ᵀ
// is associated Wᵀ-first on every operand and variant: the aggregation — the
// multiply a distributed operand exchanges rows for — then runs at dims[l−1],
// the width the forward aggregated at, not at dims[l], which is the class
// count at the top layer and wider than the hidden width in every preset.
//
//sagnn:steadystate
func (ws *Workspace) backward(m *Model, v Variant, op Operand, c Collective) []*dense.Matrix {
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
		if v == SAGEConv {
			// ∂L/∂H^{l−1} = Â·dP + dSelf over the two halves of [Â·H | H].
			dp := grow(&b.dp, g.Rows, z.Cols)
			dself := grow(&b.dself, g.Rows, z.Cols)
			dc.SplitColsInto(dp, dself)
			op.AggregateT(l, gPrev, dp)
			gPrev.Add(dself)
		} else {
			op.AggregateT(l, gPrev, dc)
		}
		deriv := grow(&below.deriv, z.Rows, z.Cols)
		z.ReLUDerivInto(deriv)
		gPrev.Hadamard(deriv)
		g = gPrev
	}
	return ws.grads
}

// Step is one training step: Gradients, then the optimizer's update of m.
func (ws *Workspace) Step(o opt.Optimizer, m *Model, v Variant, op Operand, rows, labels []int, n int, c Collective) (lossSum, correct float64, err error) {
	lossSum, correct, grads, err := ws.Gradients(m, v, op, rows, labels, n, c)
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
func (ws *Workspace) Gradients(m *Model, v Variant, op Operand, rows, labels []int, n int, c Collective) (lossSum, correct float64, grads []*dense.Matrix, err error) {
	if n == 0 {
		return 0, 0, nil, ErrEmptyTrainSet
	}
	logits := ws.Forward(m, v, op, c)
	sums := &ws.red
	sums[0], sums[1] = ws.loss(logits, rows, labels, 1/float64(n))
	if c.Group != nil {
		c.Group.AllReduceSumInto(c.Rank, ws.red[:], ws.redOut[:], "allreduce")
		sums = &ws.redOut
	}
	return sums[0], sums[1], ws.backward(m, v, op, c), nil
}
