package gcn

import (
	"math"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/distmm"
	"sagnn/internal/machine"
)

func TestSageModelShapes(t *testing.T) {
	dims := LayerDims(10, 8, 3, 2)
	m := NewModelVariant(1, dims, SAGEConv)
	if m.Weights[0].Rows != 20 || m.Weights[0].Cols != 8 {
		t.Fatalf("W1 %dx%d", m.Weights[0].Rows, m.Weights[0].Cols)
	}
	if m.Weights[1].Rows != 16 || m.Weights[1].Cols != 3 {
		t.Fatalf("W2 %dx%d", m.Weights[1].Rows, m.Weights[1].Cols)
	}
	if GCNConv.InputRows(7) != 7 || SAGEConv.InputRows(7) != 14 {
		t.Fatal("InputRows wrong")
	}
}

func TestSageSerialLearns(t *testing.T) {
	a, x, labels, train := tinyProblem(43)
	model := NewModelVariant(44, LayerDims(x.Cols, 16, 4, 3), SAGEConv)
	s := NewSerial(a, x, labels, train, model, 0.3)
	s.Variant = SAGEConv
	res := trainSerial(t, s, 60)
	if res[59].Loss >= res[0].Loss {
		t.Fatalf("sage loss did not decrease: %v -> %v", res[0].Loss, res[59].Loss)
	}
	if res[59].TrainAcc < 0.8 {
		t.Fatalf("sage train accuracy %v", res[59].TrainAcc)
	}
}

func TestSageDistributedMatchesSerial(t *testing.T) {
	a, x, labels, train := tinyProblem(45)
	dims := LayerDims(x.Cols, 8, 4, 3)

	serial := NewSerial(a, x, labels, train, NewModelVariant(46, dims, SAGEConv), 0.3)
	serial.Variant = SAGEConv
	serialRes := trainSerial(t, serial, 8)

	for _, mk := range []struct {
		name string
		make func(w *comm.World) distmm.Engine
	}{
		{"sa-1d", func(w *comm.World) distmm.Engine {
			return distmm.NewSparsityAware1D(w, a, distmm.UniformLayout(64, w.P))
		}},
		{"obl-1.5d", func(w *comm.World) distmm.Engine {
			return distmm.NewOblivious15D(w, a, 2, distmm.UniformLayout(64, w.P/2))
		}},
	} {
		p := 4
		w := comm.NewWorld(p, machine.Perlmutter())
		d := NewDistributed(w, mk.make(w), x, labels, train, dims, 0.3, 46)
		d.Variant = SAGEConv
		distRes := stepN(t, d.Stepper(), 8)
		for i := range serialRes {
			if math.Abs(distRes[i].Loss-serialRes[i].Loss) > 1e-8 {
				t.Fatalf("%s epoch %d: dist %v serial %v", mk.name, i, distRes[i].Loss, serialRes[i].Loss)
			}
		}
	}
}

func TestSageUsesSameCommunicationPattern(t *testing.T) {
	// The generality claim: switching the layer type does not change the
	// communication pattern — the same Â-driven exchanges happen, the same
	// number of times. (Byte volumes differ slightly because the backward
	// SpMM operand width is f_{l-1} for SAGE vs f_l for GCN.)
	a, x, labels, train := tinyProblem(47)
	run := func(v Variant) (msgs int64, alltoall float64) {
		w := comm.NewWorld(4, machine.Perlmutter())
		e := distmm.NewSparsityAware1D(w, a, distmm.UniformLayout(64, 4))
		d := NewDistributed(w, e, x, labels, train, LayerDims(x.Cols, 8, 4, 3), 0.3, 48)
		d.Variant = v
		stepN(t, d.Stepper(), 2)
		for rank := 0; rank < 4; rank++ {
			msgs += w.Stats().MsgsSent(rank)
		}
		return msgs, w.Ledger.Snapshot().PhaseMax("alltoall")
	}
	gcnMsgs, gcnTime := run(GCNConv)
	sageMsgs, sageTime := run(SAGEConv)
	if gcnMsgs != sageMsgs {
		t.Fatalf("message counts differ between variants: %d vs %d", gcnMsgs, sageMsgs)
	}
	if sageTime > gcnTime*1.15 || gcnTime > sageTime*1.15 {
		t.Fatalf("alltoall times should be within 15%%: %v vs %v", gcnTime, sageTime)
	}
}
