// Package gcn is the one GCN training step and the one stepper that drives
// it. The four training equations are the paper's Section 2:
//
//	Z^l  ← Â H^{l-1} W^l            (forward SpMM + GEMM)
//	H^l  ← σ(Z^l)                   (local ReLU)
//	G^{l-1} ← Â G^l (W^l)ᵀ ⊙ σ′(Z^{l-1})   (backward SpMM + GEMM)
//	W^l  ← W^l − η Y^l,  Y^l = (Â H^{l-1})ᵀ G^l  (f×f reduction)
//
// step.go writes that recurrence once — Forward, the softmax cross-entropy
// loss, and the transposed chain back — over an aggregation Operand, which
// hands over the first layer's Â·H⁰ and supplies Â_l·H / Â_lᵀ·G for the
// layers above, and a grow-only Workspace. Forward needs only the forward
// half (ForwardOperand). Only the operand changes between trainers: Serial
// aggregates with a local SpMM over the whole Â,
// Distributed with a collective Engine.MultiplyInto over its block rows
// (both symmetric, Â = Âᵀ, so no transpose communication is needed — the
// assumption the paper makes for its symmetric datasets), and package
// minibatch with chains of sampled rectangular blocks. Over a fixed graph
// Â·H⁰ = Â·X never changes, so the two full-batch operands compute it once
// — the feature-width SpMM and its exchange are set-up, not epoch work —
// while a sampled chain computes it per batch. Distributed callers add a Collective: the all-reduce
// of the loss pair and of every Y^l, and the ledger charge of each local
// GEMM.
//
// Stepper owns what persists between epochs — one Replica per hosted rank
// (feature slice, weights, optimizer, gradient group, workspace), the epoch
// counter and the dirty flag — and runs whichever EpochBody it holds, so a
// session trains full-batch and sampled over one replica set. SubsetEval is
// the fourth, forward-only operand: serving's frontier chain, which gathers
// the rows of one shared Â·X its request's receptive field needs and
// multiplies induced submatrices of Â above it — or Â itself when the
// request is every vertex, which is how full-batch prediction runs.
package gcn

import (
	"fmt"
	"math/rand"

	"sagnn/internal/dense"
)

// Model is the GCN parameter set: one weight matrix per layer.
type Model struct {
	Weights []*dense.Matrix
}

// LayerDims builds the dimension chain [fin, hidden, ..., hidden, classes]
// for the given number of layers; the paper uses 3 layers with 16 hidden
// units.
func LayerDims(fin, hidden, classes, layers int) []int {
	if layers < 1 {
		panic(fmt.Sprintf("gcn: %d layers", layers))
	}
	dims := make([]int, 0, layers+1)
	dims = append(dims, fin)
	for l := 1; l < layers; l++ {
		dims = append(dims, hidden)
	}
	dims = append(dims, classes)
	return dims
}

// EpochMultiplyWidths returns the dense operand widths of the distributed
// SpMMs one full-batch training epoch issues, in trainer order: L−1 forward
// multiplies at the layer input widths dims[1..L−1], then L−1 backward
// multiplies at the same widths in reverse, dims[L−1..1] — the backward
// multiplies by (W^l)ᵀ before it aggregates (Workspace.backward). The first
// layer's multiply, Â·X at width dims[0], is not among them: its operands
// never change, so it is set-up, paid once per distributed graph
// (InputProduct) and priced apart at distmm.SetupWidths(fin): fin in
// column panels.
// The communication-plan cost model prices epochs against exactly this
// sequence, so it lives here, next to the trainer that defines it.
//
// sage selects nothing — there is one layer type — and classes no longer
// reaches a multiply; the five-argument signature stays only until the next
// change to benchmark/, which compiles against it.
func EpochMultiplyWidths(fin, hidden, classes, layers int, sage bool) []int {
	dims := LayerDims(fin, hidden, classes, layers)
	widths := append([]int(nil), dims[1:layers]...)
	for l := layers; l >= 2; l-- {
		widths = append(widths, dims[l-1])
	}
	return widths
}

// Variant names the layer operation. GCNConv, the Kipf & Welling layer the
// paper trains (Z^l = Â H^{l-1} W^l), is the only one; the type stays only
// until the next change to benchmark/, which passes it to NewSubsetEval.
type Variant int

// GCNConv is the one layer operation.
const GCNConv Variant = iota

// CheckChain verifies that consecutive layers compose: layer l must consume
// exactly the columns layer l−1 produces. Decoders call it, so a weight set
// that could never run a forward pass is rejected at load time instead of
// failing inside the first GEMM.
func (m *Model) CheckChain() error {
	for l := 1; l < len(m.Weights); l++ {
		if got, want := m.Weights[l].Rows, m.Weights[l-1].Cols; got != want {
			return fmt.Errorf("gcn: layer %d has %d input rows, layer %d produces %d", l, got, l-1, want)
		}
	}
	return nil
}

// NewModel creates Glorot-initialised weights, deterministic in seed. Every
// replica that constructs a model from the same seed holds bit-identical
// parameters, which keeps distributed weight replicas in lockstep.
func NewModel(seed int64, dims []int) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := &Model{}
	for l := 0; l+1 < len(dims); l++ {
		m.Weights = append(m.Weights, dense.NewGlorot(rng, dims[l], dims[l+1]))
	}
	return m
}

// Layers returns the number of layers.
func (m *Model) Layers() int { return len(m.Weights) }

// Clone deep-copies the model.
func (m *Model) Clone() *Model {
	c := &Model{Weights: make([]*dense.Matrix, len(m.Weights))}
	for i, w := range m.Weights {
		c.Weights[i] = w.Clone()
	}
	return c
}

// Step applies one SGD update W^l ← W^l − lr·grad^l for every layer.
func (m *Model) Step(grads []*dense.Matrix, lr float64) {
	if len(grads) != len(m.Weights) {
		panic(fmt.Sprintf("gcn: %d grads for %d layers", len(grads), len(m.Weights)))
	}
	for l, g := range grads {
		m.Weights[l].AXPY(-lr, g)
	}
}

// MaxWeightDiff returns the largest parameter difference to another model;
// used by tests asserting replica consistency.
func (m *Model) MaxWeightDiff(o *Model) float64 {
	maxd := 0.0
	for l := range m.Weights {
		if d := m.Weights[l].MaxAbsDiff(o.Weights[l]); d > maxd {
			maxd = d
		}
	}
	return maxd
}

// EpochResult reports one training epoch.
type EpochResult struct {
	Epoch    int
	Loss     float64
	TrainAcc float64
}
