package gcn

import (
	"math"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/distmm"
	"sagnn/internal/machine"
	"sagnn/internal/opt"
)

func TestDistributedAdamMatchesSerialAdam(t *testing.T) {
	a, x, labels, train := tinyProblem(21)
	dims := LayerDims(x.Cols, 8, 4, 3)

	serial := NewSerial(a, x, labels, train, NewModel(31, dims), 0.01)
	serial.Opt = opt.NewAdam(0.01)
	serialRes := trainSerial(t, serial, 8)

	w := comm.NewWorld(4, machine.Perlmutter())
	e := distmm.NewSparsityAware1D(w, a, distmm.UniformLayout(64, 4))
	d := NewDistributed(w, e, x, labels, train, dims, 0.01, 31)
	d.NewOpt = func() opt.Optimizer { return opt.NewAdam(0.01) }
	distRes := stepN(t, d.Stepper(), 8)

	for i := range serialRes {
		if math.Abs(distRes[i].Loss-serialRes[i].Loss) > 1e-8 {
			t.Fatalf("epoch %d: dist %v serial %v", i, distRes[i].Loss, serialRes[i].Loss)
		}
	}
}

func TestAdamTrainsFasterThanSGDHere(t *testing.T) {
	a, x, labels, train := tinyProblem(22)
	dims := LayerDims(x.Cols, 16, 4, 3)

	sgd := NewSerial(a, x, labels, train, NewModel(33, dims), 0.01)
	sgdRes := trainSerial(t, sgd, 30)

	adam := NewSerial(a, x, labels, train, NewModel(33, dims), 0.01)
	adam.Opt = opt.NewAdam(0.01)
	adamRes := trainSerial(t, adam, 30)

	if adamRes[29].Loss >= sgdRes[29].Loss {
		t.Fatalf("adam %v should beat sgd %v at lr=0.01 on this problem",
			adamRes[29].Loss, sgdRes[29].Loss)
	}
}

func TestTrainedModelExposed(t *testing.T) {
	a, x, labels, train := tinyProblem(23)
	dims := LayerDims(x.Cols, 8, 4, 3)
	w := comm.NewWorld(2, machine.Perlmutter())
	e := distmm.NewOblivious1D(w, a, distmm.UniformLayout(64, 2))
	d := NewDistributed(w, e, x, labels, train, dims, 0.3, 35)
	st := d.Stepper()
	stepN(t, st, 5)
	if st.Model() == nil {
		t.Fatal("Model not set")
	}
	// the trained model, evaluated serially, must equal a serial run's model
	serial := NewSerial(a, x, labels, train, NewModel(35, dims), 0.3)
	trainSerial(t, serial, 5)
	if st.Model().MaxWeightDiff(serial.Model) > 1e-9 {
		t.Fatalf("final model drifted from serial by %g", st.Model().MaxWeightDiff(serial.Model))
	}
}
