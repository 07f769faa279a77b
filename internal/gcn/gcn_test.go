package gcn

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/distmm"
	"sagnn/internal/gen"
	"sagnn/internal/machine"
	"sagnn/internal/sparse"
)

// tinyProblem builds a small SBM classification task with learnable signal.
func tinyProblem(seed int64) (*sparse.CSR, *dense.Matrix, []int, []int) {
	g, comms := gen.SBM(64, 4, 8, 2, seed)
	a := g.NormalizedAdjacency()
	rng := rand.New(rand.NewSource(seed + 1))
	x := gen.Features(rng, comms, 4, 12, 0.4)
	train := make([]int, 0, 32)
	for v := 0; v < 64; v += 2 {
		train = append(train, v)
	}
	return a, x, comms, train
}

// trainSerial runs epochs on the serial trainer, failing the test on error.
func trainSerial(t *testing.T, s *Serial, epochs int) []EpochResult {
	t.Helper()
	res, err := s.TrainEpochs(epochs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// stepN runs n epochs in one collective launch, failing the test on error.
func stepN(t *testing.T, st *Stepper, n int) []EpochResult {
	t.Helper()
	res, err := st.StepNCtx(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLayerDims(t *testing.T) {
	d := LayerDims(100, 16, 7, 3)
	want := []int{100, 16, 16, 7}
	for i, w := range want {
		if d[i] != w {
			t.Fatalf("dims %v", d)
		}
	}
	if len(LayerDims(5, 16, 2, 1)) != 2 {
		t.Fatal("1-layer dims")
	}
}

func TestNewModelDeterministic(t *testing.T) {
	a := NewModel(3, []int{5, 4, 3})
	b := NewModel(3, []int{5, 4, 3})
	if a.MaxWeightDiff(b) != 0 {
		t.Fatal("same seed must give identical models")
	}
	c := NewModel(4, []int{5, 4, 3})
	if a.MaxWeightDiff(c) == 0 {
		t.Fatal("different seeds should differ")
	}
}

func TestModelStepAndClone(t *testing.T) {
	m := NewModel(1, []int{3, 2})
	c := m.Clone()
	g := dense.New(3, 2)
	g.Set(0, 0, 1)
	m.Step([]*dense.Matrix{g}, 0.5)
	if m.Weights[0].At(0, 0) != c.Weights[0].At(0, 0)-0.5 {
		t.Fatal("Step wrong")
	}
	if c.MaxWeightDiff(m) == 0 {
		t.Fatal("Clone aliased")
	}
}

func TestSerialLossDecreases(t *testing.T) {
	a, x, labels, train := tinyProblem(1)
	model := NewModel(7, LayerDims(x.Cols, 16, 4, 3))
	s := NewSerial(a, x, labels, train, model, 0.5)
	res := trainSerial(t, s, 60)
	if res[len(res)-1].Loss >= res[0].Loss {
		t.Fatalf("loss did not decrease: %v -> %v", res[0].Loss, res[len(res)-1].Loss)
	}
	if res[len(res)-1].TrainAcc < 0.8 {
		t.Fatalf("train accuracy %v too low on separable SBM", res[len(res)-1].TrainAcc)
	}
}

func TestSerialGeneralizes(t *testing.T) {
	a, x, labels, train := tinyProblem(2)
	model := NewModel(8, LayerDims(x.Cols, 16, 4, 3))
	s := NewSerial(a, x, labels, train, model, 0.5)
	trainSerial(t, s, 80)
	test := make([]int, 0, 32)
	for v := 1; v < 64; v += 2 {
		test = append(test, v)
	}
	if acc := s.Accuracies(test)[0]; acc < 0.7 {
		t.Fatalf("test accuracy %v too low", acc)
	}
}

func TestDistributedMatchesSerial1D(t *testing.T) {
	a, x, labels, train := tinyProblem(5)
	dims := LayerDims(x.Cols, 8, 4, 3)
	serial := NewSerial(a, x, labels, train, NewModel(11, dims), 0.3)
	serialRes := trainSerial(t, serial, 10)

	for _, engineKind := range []string{"oblivious", "sa"} {
		for _, p := range []int{2, 4} {
			w := comm.NewWorld(p, machine.Perlmutter())
			lay := distmm.UniformLayout(64, p)
			var e distmm.Engine
			if engineKind == "oblivious" {
				e = distmm.NewOblivious1D(w, a, lay)
			} else {
				e = distmm.NewSparsityAware1D(w, a, lay)
			}
			d := NewDistributed(w, e, x, labels, train, dims, 0.3, 11)
			distRes := stepN(t, d.Stepper(), 10)
			for i := range serialRes {
				if math.Abs(distRes[i].Loss-serialRes[i].Loss) > 1e-8 {
					t.Fatalf("%s p=%d epoch %d: dist loss %v serial %v",
						engineKind, p, i, distRes[i].Loss, serialRes[i].Loss)
				}
				if math.Abs(distRes[i].TrainAcc-serialRes[i].TrainAcc) > 1e-9 {
					t.Fatalf("%s p=%d epoch %d: acc mismatch", engineKind, p, i)
				}
			}
		}
	}
}

func TestDistributedMatchesSerial15D(t *testing.T) {
	a, x, labels, train := tinyProblem(6)
	dims := LayerDims(x.Cols, 8, 4, 3)
	serial := NewSerial(a, x, labels, train, NewModel(13, dims), 0.3)
	serialRes := trainSerial(t, serial, 8)

	for _, pc := range [][2]int{{4, 2}, {8, 2}, {16, 4}} {
		p, c := pc[0], pc[1]
		for _, kind := range []string{"oblivious", "sa"} {
			w := comm.NewWorld(p, machine.Perlmutter())
			lay := distmm.UniformLayout(64, p/c)
			var e distmm.Engine
			if kind == "oblivious" {
				e = distmm.NewOblivious15D(w, a, c, lay)
			} else {
				e = distmm.NewSparsityAware15D(w, a, c, lay)
			}
			d := NewDistributed(w, e, x, labels, train, dims, 0.3, 13)
			distRes := stepN(t, d.Stepper(), 8)
			for i := range serialRes {
				if math.Abs(distRes[i].Loss-serialRes[i].Loss) > 1e-8 {
					t.Fatalf("%s p=%d c=%d epoch %d: dist loss %v serial %v",
						kind, p, c, i, distRes[i].Loss, serialRes[i].Loss)
				}
			}
		}
	}
}

func TestDistributedWithPermutation(t *testing.T) {
	// Training in a permuted vertex order must give the same trajectory:
	// permutation is a similarity transform of the whole problem.
	a, x, labels, train := tinyProblem(7)
	dims := LayerDims(x.Cols, 8, 4, 3)
	serial := NewSerial(a, x, labels, train, NewModel(17, dims), 0.3)
	serialRes := trainSerial(t, serial, 8)

	rng := rand.New(rand.NewSource(9))
	perm := rng.Perm(64)
	pa := a.PermuteSymmetric(perm)
	px, plabels, psets := ApplyPerm(perm, x, labels, train)

	w := comm.NewWorld(4, machine.Perlmutter())
	e := distmm.NewSparsityAware1D(w, pa, distmm.UniformLayout(64, 4))
	d := NewDistributed(w, e, px, plabels, psets[0], dims, 0.3, 17)
	distRes := stepN(t, d.Stepper(), 8)
	for i := range serialRes {
		if math.Abs(distRes[i].Loss-serialRes[i].Loss) > 1e-8 {
			t.Fatalf("epoch %d: permuted loss %v serial %v", i, distRes[i].Loss, serialRes[i].Loss)
		}
	}
}

func TestApplyPermRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := dense.NewRandom(rng, 8, 2, 1.0)
	labels := []int{0, 1, 0, 1, 0, 1, 0, 1}
	train := []int{1, 3, 5}
	perm := rng.Perm(8)
	px, plabels, psets := ApplyPerm(perm, x, labels, train)
	for v := 0; v < 8; v++ {
		if plabels[perm[v]] != labels[v] {
			t.Fatal("labels misplaced")
		}
		for j := 0; j < 2; j++ {
			if px.At(perm[v], j) != x.At(v, j) {
				t.Fatal("features misplaced")
			}
		}
	}
	for i, v := range train {
		if psets[0][i] != perm[v] {
			t.Fatal("index set misplaced")
		}
	}
}

func TestNewSerialValidation(t *testing.T) {
	a := sparse.NewCSR(4, 4, nil)
	x := dense.New(4, 3)
	m := NewModel(1, []int{2, 2}) // wrong input dim
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSerial(a, x, []int{0, 0, 0, 0}, nil, m, 0.1)
}
