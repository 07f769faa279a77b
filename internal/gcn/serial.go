package gcn

import (
	"fmt"

	"sagnn/internal/dense"
	"sagnn/internal/opt"
	"sagnn/internal/sparse"
)

// Serial is the single-process reference trainer: the step of step.go over
// the whole normalized adjacency. It is the ground truth the distributed
// trainers are tested against (same seeds → same loss trajectory to
// floating-point reassociation tolerance).
//
// A Serial is NOT safe for concurrent use: its epochs share the workspace
// below.
type Serial struct {
	Labels []int
	Train  []int
	Model  *Model
	LR     float64
	// Opt overrides the optimizer; nil means SGD at LR.
	Opt opt.Optimizer

	ws          Workspace
	op          csrOperand // over the constructor's Â and X, for the trainer's life
	trainLabels []int      // Labels[Train[k]], rebuilt every epoch into the same storage
}

// NewSerial validates shapes and wraps the training state over a, the
// GCN-normalized (symmetric) adjacency, and the features x, both fixed from
// here on. No buffer is built until the first pass — which computes Â·X,
// once — and inference grows the forward half only.
func NewSerial(a *sparse.CSR, x *dense.Matrix, labels []int, train []int, model *Model, lr float64) *Serial {
	if a.NumRows != a.NumCols || a.NumRows != x.Rows {
		panic(fmt.Sprintf("gcn: A %dx%d vs X %d rows", a.NumRows, a.NumCols, x.Rows))
	}
	if len(labels) != x.Rows {
		panic("gcn: labels misaligned")
	}
	if model.Weights[0].Rows != x.Cols {
		panic(fmt.Sprintf("gcn: W1 expects %d input rows, X has %d features", model.Weights[0].Rows, x.Cols))
	}
	return &Serial{Labels: labels, Train: train, Model: model, LR: lr, op: csrOperand{a: a, x: x}}
}

// csrOperand is the serial operand: every layer aggregates over the one
// symmetric Â with a local SpMM, Â·X is computed by the first pass and
// kept, and its transpose by the first backward pass, which inference never
// runs.
type csrOperand struct {
	a       *sparse.CSR
	x       *dense.Matrix
	ax, axT *dense.Matrix // Â·X and its transpose; nil until first needed
}

func (o *csrOperand) First() *dense.Matrix {
	if o.ax == nil {
		o.ax = dense.New(o.a.NumRows, o.x.Cols)
		o.a.SpMMInto(o.ax, o.x)
	}
	return o.ax
}
func (o *csrOperand) FirstT() *dense.Matrix {
	if o.axT == nil {
		o.axT = o.First().Transpose()
	}
	return o.axT
}
func (o *csrOperand) Rows(int) int                           { return o.a.NumRows }
func (o *csrOperand) Aggregate(_ int, dst, h *dense.Matrix)  { o.a.SpMMInto(dst, h) }
func (o *csrOperand) AggregateT(_ int, dst, g *dense.Matrix) { o.a.SpMMInto(dst, g) }

// Epoch runs one full-batch training step and returns loss and train
// accuracy measured before the update.
func (s *Serial) Epoch() (loss, acc float64, err error) {
	s.trainLabels = s.trainLabels[:0]
	for _, v := range s.Train {
		s.trainLabels = append(s.trainLabels, s.Labels[v])
	}
	if s.Opt == nil {
		s.Opt = &opt.SGD{LR: s.LR}
	}
	n := len(s.Train)
	lossSum, correct, err := s.ws.Step(s.Opt, s.Model, &s.op, s.Train, s.trainLabels, n, Collective{})
	if err != nil {
		return 0, 0, err
	}
	return lossSum * (1 / float64(n)), correct / float64(n), nil
}

// TrainEpochs runs the given number of epochs.
func (s *Serial) TrainEpochs(epochs int) ([]EpochResult, error) {
	var out []EpochResult
	for e := 0; e < epochs; e++ {
		loss, acc, err := s.Epoch()
		if err != nil {
			return out, err
		}
		out = append(out, EpochResult{Epoch: e, Loss: loss, TrainAcc: acc})
	}
	return out, nil
}
