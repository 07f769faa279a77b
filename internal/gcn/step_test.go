package gcn

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sagnn/internal/dense"
	"sagnn/internal/gen"
	"sagnn/internal/sparse"
)

// rectChain is a rectangular operand for the tests: layer l aggregates over
// its own blocks[l-1], transposed with the allocating sparse.Transpose, and
// layer 1 is recomputed on every pass, as a sampled chain's is.
type rectChain struct {
	blocks []*sparse.CSR
	x      *dense.Matrix
}

func (c *rectChain) First() *dense.Matrix                  { return c.blocks[0].SpMM(c.x) }
func (c *rectChain) FirstT() *dense.Matrix                 { return nil }
func (c *rectChain) Rows(l int) int                        { return c.blocks[l-1].NumRows }
func (c *rectChain) Aggregate(l int, dst, h *dense.Matrix) { c.blocks[l-1].SpMMInto(dst, h) }
func (c *rectChain) AggregateT(l int, dst, g *dense.Matrix) {
	c.blocks[l-1].Transpose().SpMMInto(dst, g)
}

// randomBlock is a dense-ish rows×cols aggregation block with a diagonal, so
// no row or column is empty.
func randomBlock(rng *rand.Rand, rows, cols int) *sparse.CSR {
	var coords []sparse.Coord
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if r == c || rng.Float64() < 0.4 {
				coords = append(coords, sparse.Coord{Row: r, Col: c, Val: rng.Float64()})
			}
		}
	}
	return sparse.NewCSR(rows, cols, coords)
}

// TestGradientsFiniteDifference is the numerical anchor of the one step:
// the analytic weight gradients of every operand shape and depth agree with
// central differences of the mean loss. The rectangular case is the sampled
// chain's Wᵀ-first backward through Â_lᵀ.
func TestGradientsFiniteDifference(t *testing.T) {
	er := gen.ErdosRenyi(10, 4, 3).NormalizedAdjacency()
	erX := dense.NewRandom(rand.New(rand.NewSource(4)), 10, 3, 1.0)
	sbm, sbmX, sbmLabels, sbmTrain := tinyProblem(41)
	sbmTrainLabels := make([]int, len(sbmTrain))
	for k, v := range sbmTrain {
		sbmTrainLabels[k] = sbmLabels[v]
	}
	rng := rand.New(rand.NewSource(8))
	rect := &rectChain{
		blocks: []*sparse.CSR{randomBlock(rng, 6, 9), randomBlock(rng, 4, 6)},
		x:      dense.NewRandom(rng, 9, 3, 1.0),
	}
	cases := []struct {
		name         string
		op           Operand
		model        *Model
		rows, labels []int
	}{
		{"square GCNConv", &csrOperand{a: er, x: erX}, NewModel(5, LayerDims(3, 4, 3, 2)),
			[]int{0, 2, 4, 6, 8}, []int{0, 2, 1, 0, 2}},
		{"square 3 layers", &csrOperand{a: sbm, x: sbmX}, NewModel(42, LayerDims(sbmX.Cols, 6, 4, 3)),
			sbmTrain, sbmTrainLabels},
		{"rectangular chain", rect, NewModel(6, LayerDims(3, 5, 3, 2)),
			nil, []int{0, 1, 2, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ws Workspace
			n := len(tc.labels)
			meanLoss := func() float64 {
				lossSum, _, _, err := ws.Gradients(tc.model, tc.op, tc.rows, tc.labels, n, Collective{})
				if err != nil {
					t.Fatal(err)
				}
				return lossSum / float64(n)
			}
			_, _, wsGrads, _ := ws.Gradients(tc.model, tc.op, tc.rows, tc.labels, n, Collective{})
			grads := make([]*dense.Matrix, len(wsGrads))
			for l, g := range wsGrads {
				grads[l] = g.Clone()
			}
			const h = 1e-6
			for l, w := range tc.model.Weights {
				for _, idx := range []int{0, len(w.Data) / 2, len(w.Data) - 1} {
					orig := w.Data[idx]
					w.Data[idx] = orig + h
					lp := meanLoss()
					w.Data[idx] = orig - h
					lm := meanLoss()
					w.Data[idx] = orig
					numeric := (lp - lm) / (2 * h)
					analytic := grads[l].Data[idx]
					if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
						t.Fatalf("layer %d idx %d: numeric %g analytic %g", l, idx, numeric, analytic)
					}
				}
			}
		})
	}
}

// TestLossValueAndGradient pins the one loss routine on a case worked by
// hand: the summed negative log-likelihood, the correct count, gradient rows
// that sum to zero (the softmax cross-entropy property), and zero gradient
// on rows that are not trained on.
func TestLossValueAndGradient(t *testing.T) {
	logits := dense.FromSlice(3, 2, []float64{math.Log(0.9), math.Log(0.1), 5, -5, math.Log(0.2), math.Log(0.8)})
	var ws Workspace
	ws.fit(1)
	lossSum, correct := ws.loss(logits, []int{0, 2}, []int{0, 0}, 0.5)
	if want := -(math.Log(0.9) + math.Log(0.2)); math.Abs(lossSum-want) > 1e-12 {
		t.Fatalf("loss sum %v, want %v", lossSum, want)
	}
	if correct != 1 {
		t.Fatalf("correct %v, want 1 (row 0 right, row 2 wrong)", correct)
	}
	g := ws.layers[1].g
	for _, i := range []int{0, 2} {
		if s := g.At(i, 0) + g.At(i, 1); math.Abs(s) > 1e-12 {
			t.Fatalf("grad row %d sums to %v", i, s)
		}
	}
	if want := (0.9 - 1) * 0.5; math.Abs(g.At(0, 0)-want) > 1e-12 {
		t.Fatalf("grad[0][0] = %v, want %v", g.At(0, 0), want)
	}
	if g.At(1, 0) != 0 || g.At(1, 1) != 0 {
		t.Fatal("untrained row has nonzero grad")
	}
}

// TestGradientsEmptyTrainSet: a step over zero examples has no loss.
func TestGradientsEmptyTrainSet(t *testing.T) {
	a, x, _, _ := tinyProblem(3)
	var ws Workspace
	_, _, _, err := ws.Gradients(NewModel(1, LayerDims(x.Cols, 4, 4, 2)), &csrOperand{a: a, x: x}, nil, nil, 0, Collective{})
	if !errors.Is(err, ErrEmptyTrainSet) {
		t.Fatalf("got %v, want ErrEmptyTrainSet", err)
	}
}

// TestDivergedEpochReportsNonFiniteLoss: the kernels skip no zero of their
// left operand, so a weight that blew up reaches every logit it feeds. A
// diverged epoch still returns — a NaN loss and no error for the caller's
// finiteness check to catch — and never panics.
func TestDivergedEpochReportsNonFiniteLoss(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		a, x, labels, train := tinyProblem(9)
		s := NewSerial(a, x, labels, train, NewModel(1, LayerDims(x.Cols, 8, 4, 2)), 0.1)
		s.Model.Weights[1].Set(3, 2, bad)
		for e := 0; e < 2; e++ { // the second epoch runs on weights the first one poisoned
			loss, _, err := s.Epoch()
			if err != nil || !math.IsNaN(loss) {
				t.Fatalf("weight %v, epoch %d: loss %v, err %v; want NaN, nil", bad, e, loss, err)
			}
		}
	}
}
