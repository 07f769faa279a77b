package gcn

import (
	"fmt"

	"sagnn/internal/dense"
	"sagnn/internal/opt"
	"sagnn/internal/sparse"
)

// Serial is the single-process reference trainer. It is the ground truth
// the distributed trainers are tested against (same seeds → same loss
// trajectory to floating-point reassociation tolerance).
//
// A Serial is NOT safe for concurrent use: Predict, Gradients, and Epoch
// all share the cached workspace below.
type Serial struct {
	A      *sparse.CSR // GCN-normalized adjacency, symmetric
	X      *dense.Matrix
	Labels []int
	Train  []int
	Model  *Model
	LR     float64
	// Opt overrides the optimizer; nil means SGD at LR.
	Opt opt.Optimizer
	// Variant selects the layer operation (GCNConv default, or SAGEConv);
	// the model's weights must be shaped accordingly (NewModelVariant).
	Variant Variant

	// ws is the lazily-built epoch-persistent workspace (shared layout with
	// the distributed trainer's per-rank workspace): every forward/backward
	// buffer is preallocated on first use so steady-state epochs run
	// allocation-free. Rebuilt automatically if Model shape, X, or Variant
	// change between calls.
	ws     *rankWorkspace
	wsDims []int
	wsVar  Variant
}

// NewSerial validates shapes and wraps the training state.
func NewSerial(a *sparse.CSR, x *dense.Matrix, labels []int, train []int, model *Model, lr float64) *Serial {
	if a.NumRows != a.NumCols || a.NumRows != x.Rows {
		panic(fmt.Sprintf("gcn: A %dx%d vs X %d rows", a.NumRows, a.NumCols, x.Rows))
	}
	if len(labels) != x.Rows {
		panic("gcn: labels misaligned")
	}
	if model.Weights[0].Rows != x.Cols && model.Weights[0].Rows != 2*x.Cols {
		panic(fmt.Sprintf("gcn: W1 expects %d input rows, X has %d features", model.Weights[0].Rows, x.Cols))
	}
	return &Serial{A: a, X: x, Labels: labels, Train: train, Model: model, LR: lr}
}

// workspace builds (and caches) the preallocated buffer set for the current
// model shape and variant, rebuilding if the caller swapped Model, X, or
// Variant since the last pass. The cache-hit path allocates nothing.
func (s *Serial) workspace() *rankWorkspace {
	if s.wsValid() {
		return s.ws
	}
	L := s.Model.Layers()
	// dims[l] is the feature width of H^l, recovered from the weight chain.
	dims := make([]int, L+1)
	dims[0] = s.X.Cols
	for l := 1; l <= L; l++ {
		dims[l] = s.Model.Weights[l-1].Cols
	}
	s.ws = newRankWorkspace(s.X.Rows, dims, s.Model, s.Variant)
	s.ws.hs[0] = s.X
	s.wsDims = dims
	s.wsVar = s.Variant
	return s.ws
}

// wsValid reports whether the cached workspace still matches the trainer's
// mutable public fields (Model shape, X, Variant).
func (s *Serial) wsValid() bool {
	if s.ws == nil || s.wsVar != s.Variant || s.ws.hs[0] != s.X {
		return false
	}
	if len(s.wsDims) != s.Model.Layers()+1 || s.wsDims[0] != s.X.Cols {
		return false
	}
	for l, w := range s.Model.Weights {
		if s.wsDims[l+1] != w.Cols {
			return false
		}
		if g := s.ws.grads[l]; g.Rows != w.Rows || g.Cols != w.Cols {
			return false
		}
	}
	return true
}

// forward runs all layers through the workspace, returning pre-activations
// Z, activations H (H[0] = X), and the cached GEMM inputs P[l] (Â·H[l-1]
// for GCNConv, [Â·H[l-1] | H[l-1]] for SAGEConv). The returned slices are
// workspace-backed and overwritten by the next forward.
func (s *Serial) forward() (zs, hs, ps []*dense.Matrix) {
	L := s.Model.Layers()
	ws := s.workspace()
	for l := 1; l <= L; l++ {
		s.A.SpMMInto(ws.agg[l], ws.hs[l-1])
		if s.Variant == SAGEConv {
			dense.HStackInto(ws.ps[l], ws.agg[l], ws.hs[l-1])
		}
		dense.MatMulInto(ws.zs[l], ws.ps[l], s.Model.Weights[l-1])
		if l < L {
			ws.hs[l].CopyFrom(ws.zs[l])
			ws.hs[l].ReLU()
		}
	}
	return ws.zs, ws.hs, ws.ps
}

// Predict returns row-wise class probabilities for all vertices.
func (s *Serial) Predict() *dense.Matrix {
	probs := dense.New(s.X.Rows, s.Model.Weights[s.Model.Layers()-1].Cols)
	s.PredictInto(probs)
	return probs
}

// PredictInto writes row-wise class probabilities for all vertices into
// dst (NumVertices × classes) — the allocation-free serving form of
// Predict for callers that reuse a probability buffer across calls.
func (s *Serial) PredictInto(dst *dense.Matrix) {
	_, hs, _ := s.forward()
	dst.CopyFrom(hs[len(hs)-1])
	dense.SoftmaxRows(dst)
}

// Gradients runs one forward/backward pass and returns (loss, trainAcc,
// weight gradients) without updating the model. The gradients are fresh
// copies the caller owns; the training loop uses the workspace-backed
// gradientsInto instead.
func (s *Serial) Gradients() (float64, float64, []*dense.Matrix) {
	loss, acc, wsGrads := s.gradientsInto()
	grads := make([]*dense.Matrix, len(wsGrads))
	for l, g := range wsGrads {
		grads[l] = g.Clone()
	}
	return loss, acc, grads
}

// gradientsInto runs one forward/backward pass entirely inside the
// workspace and returns (loss, trainAcc, workspace gradients). The returned
// matrices are overwritten by the next call.
func (s *Serial) gradientsInto() (float64, float64, []*dense.Matrix) {
	L := s.Model.Layers()
	ws := s.workspace()
	zs, hs, ps := s.forward()
	probs := ws.probs
	probs.CopyFrom(hs[L])
	dense.SoftmaxRows(probs)
	loss := dense.CrossEntropyLossInto(probs, s.Labels, s.Train, ws.g[L])
	acc := dense.Accuracy(probs, s.Labels, s.Train)

	g := ws.g[L]
	for l := L; l >= 1; l-- {
		// Y^l = P^lᵀ G^l with the GEMM input cached from forward.
		dense.MatMulTransAInto(ws.grads[l-1], ps[l], g)
		if l == 1 {
			break
		}
		if s.Variant == SAGEConv {
			// dC = G^l (W^l)ᵀ splits into the aggregated and self paths:
			// ∂L/∂H^{l-1} = Â·dP + dSelf.
			dense.MatMulTransBInto(ws.dc[l], g, s.Model.Weights[l-1])
			ws.dc[l].SplitColsInto(ws.dp[l], ws.dself[l])
			s.A.SpMMInto(ws.g[l-1], ws.dp[l])
			ws.g[l-1].Add(ws.dself[l])
		} else {
			// G^{l-1} = Â G^l (W^l)ᵀ ⊙ σ′(Z^{l-1})
			s.A.SpMMInto(ws.ag[l], g)
			dense.MatMulTransBInto(ws.g[l-1], ws.ag[l], s.Model.Weights[l-1])
		}
		zs[l-1].ReLUDerivInto(ws.deriv[l-1])
		ws.g[l-1].Hadamard(ws.deriv[l-1])
		g = ws.g[l-1]
	}
	return loss, acc, ws.grads
}

// Epoch runs one full-batch training step and returns loss and train
// accuracy measured before the update.
func (s *Serial) Epoch() (float64, float64) {
	loss, acc, grads := s.gradientsInto()
	if s.Opt == nil {
		s.Opt = &opt.SGD{LR: s.LR}
	}
	s.Opt.Step(s.Model.Weights, grads)
	return loss, acc
}

// Train runs the given number of epochs.
func (s *Serial) TrainEpochs(epochs int) []EpochResult {
	var out []EpochResult
	for e := 0; e < epochs; e++ {
		loss, acc := s.Epoch()
		out = append(out, EpochResult{Epoch: e, Loss: loss, TrainAcc: acc})
	}
	return out
}

// Accuracy evaluates classification accuracy on an arbitrary vertex set.
func (s *Serial) Accuracy(mask []int) float64 {
	return dense.Accuracy(s.Predict(), s.Labels, mask)
}
