package gcn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/distmm"
	"sagnn/internal/gen"
)

// observeWidths records the multiply widths the full-batch trainers issue
// until the test ends.
func observeWidths(t *testing.T) *[]int {
	t.Helper()
	var widths []int
	ObserveMultiplies(func(w int) { widths = append(widths, w) })
	t.Cleanup(func() { ObserveMultiplies(nil) })
	return &widths
}

func bitsOf(m *dense.Matrix) []uint64 {
	out := make([]uint64, len(m.Data))
	for i, v := range m.Data {
		out[i] = math.Float64bits(v)
	}
	return out
}

// TestStepperIssuesInputProductOnce counts what a bare stepper runs: one
// feature-width multiply ahead of its first epoch, then EpochMultiplyWidths
// per epoch and nothing else — the steady state the benchmark ladder's
// volume check assumes after its warm-up epochs. The fixture's dims are
// [8 8 8 4]: two forward multiplies at the hidden width and two backward ones
// at the same width: the class width 4 never reaches a multiply.
func TestStepperIssuesInputProductOnce(t *testing.T) {
	perEpoch := []int{8, 8, 8, 8}
	widths := observeWidths(t)
	d := stepperFixture(3)
	st := d.Stepper()
	const epochs = 3
	stepN(t, st, 1)
	stepN(t, st, epochs-1)

	f, hidden, classes, L := d.Dims[0], d.Dims[1], d.Dims[len(d.Dims)-1], len(d.Dims)-1
	if got := EpochMultiplyWidths(f, hidden, classes, L, false); !reflect.DeepEqual(got, perEpoch) {
		t.Fatalf("EpochMultiplyWidths %v, want %v", got, perEpoch)
	}
	want := []int{f}
	for e := 0; e < epochs; e++ {
		want = append(want, perEpoch...)
	}
	if !reflect.DeepEqual(*widths, want) {
		t.Fatalf("multiplies at %v, want %v", *widths, want)
	}
}

// TestInputProductSharedAndBitIdentical: two trainers naming one product
// compute it once, its bits are those of the engine's own multiply of the
// rank's feature rows, and the transpose kept beside it is exact.
func TestInputProductSharedAndBitIdentical(t *testing.T) {
	widths := observeWidths(t)
	d := stepperFixture(5)
	if d.Input.Block(0) != nil {
		t.Fatal("product exists before Ensure")
	}
	stepN(t, d.Stepper(), 2)
	first := d.Input.Block(1)
	before := bitsOf(first)
	stepN(t, d.Stepper(), 2)
	if d.Input.Block(1) != first {
		t.Fatal("second trainer recomputed the shared product")
	}
	// The fixture's feature and hidden widths coincide, so count: one set-up
	// multiply plus 2L−2 per epoch over the two trainers' four epochs.
	if want := 1 + 4*(2*(len(d.Dims)-1)-2); len(*widths) != want {
		t.Fatalf("%d multiplies across two trainers, want %d (%v)", len(*widths), want, *widths)
	}

	want := make([]*dense.Matrix, d.World.P)
	d.World.Run(func(r *comm.Rank) {
		lo, hi := d.Engine.Layout().Range(d.Engine.BlockOf(r.ID))
		want[r.ID] = dense.New(hi-lo, d.X.Cols)
		d.Engine.MultiplyInto(r, d.X.SliceRows(lo, hi).Clone(), want[r.ID])
	})
	for i, b := range bitsOf(want[1]) {
		if before[i] != b || math.Float64bits(first.Data[i]) != b {
			t.Fatalf("product element %d differs from the engine's multiply (or was written during training)", i)
		}
	}
	for rank := range want {
		if !reflect.DeepEqual(bitsOf(d.Input.blocksT[rank]), bitsOf(want[rank].Transpose())) {
			t.Fatalf("rank %d: the kept transpose differs from its block's", rank)
		}
	}
}

// TestInputProductFaultKeepsNothing injects a fault at every op site of the
// set-up launch, on every rank, under every engine and both executors: the
// typed error comes back, no block is kept, the stepper stays clean (no
// weight was touched), and the retry trains bit-identically to a stepper
// that was never interrupted.
func TestInputProductFaultKeepsNothing(t *testing.T) {
	for _, eng := range []struct {
		name string
		c    int
	}{{"sparsity-aware-1d", 1}, {"oblivious-1d", 1}, {"sparsity-aware-1.5d", 2}, {"oblivious-1.5d", 2}} {
		for _, mode := range []distmm.ExecMode{distmm.ExecSequential, distmm.ExecOverlap} {
			fixture := func() *Distributed {
				d := stepperFixtureOn(7, eng.name, eng.c)
				d.Engine.SetExecMode(mode)
				return d
			}
			clean := stepN(t, fixture().Stepper(), 3)
			probe := fixture()
			if err := probe.Stepper().Setup(context.Background()); err != nil {
				t.Fatal(err)
			}
			for rank := 0; rank < probe.World.P; rank++ {
				ops := probe.World.Ops(rank)
				if ops == 0 {
					t.Fatalf("%s: rank %d entered no communication op in the set-up launch", eng.name, rank)
				}
				for op := int64(1); op <= ops; op++ {
					d := fixture()
					st := d.Stepper()
					d.World.InjectFault(comm.Fault{Rank: rank, AfterOps: op})
					_, err := st.StepNCtx(context.Background(), 3)
					var re *comm.RankError
					if !errors.As(err, &re) || !errors.Is(err, comm.ErrInjectedFault) || re.Rank != rank {
						t.Fatalf("%s rank %d op %d: got %v, want the injected *comm.RankError", eng.name, rank, op, err)
					}
					if st.Dirty() || st.Epoch() != 0 {
						t.Fatalf("%s rank %d op %d: set-up abort left the stepper dirty=%v at epoch %d", eng.name, rank, op, st.Dirty(), st.Epoch())
					}
					for r := 0; r < d.World.P; r++ {
						if d.Input.Block(r) != nil {
							t.Fatalf("%s rank %d op %d: rank %d's block survived the aborted launch", eng.name, rank, op, r)
						}
					}
					retried := stepN(t, st, 3)
					for e := range clean {
						if retried[e] != clean[e] {
							t.Fatalf("%s rank %d op %d: retried epoch %d %+v, uninterrupted %+v", eng.name, rank, op, e, retried[e], clean[e])
						}
					}
				}
			}
		}
	}
}

// TestSerialComputesInputProductOnce: Â·X is built by the first pass and
// every later pass — training or inference — reads that same matrix.
func TestSerialComputesInputProductOnce(t *testing.T) {
	a, x, labels, train := tinyProblem(13)
	s := NewSerial(a, x, labels, train, NewModel(3, LayerDims(x.Cols, 8, 4, 3)), 0.1)
	if s.op.ax != nil {
		t.Fatal("product built before the first pass")
	}
	s.Epoch()
	ax := s.op.ax
	before := bitsOf(ax)
	s.Epoch()
	s.Accuracies(train)
	if s.op.ax != ax {
		t.Fatal("a later pass rebuilt Â·X")
	}
	want := bitsOf(a.SpMM(x))
	for i, b := range bitsOf(ax) {
		if b != before[i] || b != want[i] {
			t.Fatalf("Â·X element %d changed or differs from the SpMM", i)
		}
	}
}

// hiddenT is an operand with its kept transpose hidden, so layer 1's weight
// gradient reads First with MatMulTransA.
type hiddenT struct{ Operand }

func (hiddenT) FirstT() *dense.Matrix { return nil }

// TestFirstTGradientsMatchTransA: every weight gradient of a step whose
// layer 1 reads the kept transpose of Â·X equals, bit for bit, the step's
// that reads Â·X through MatMulTransA — at the feature widths of the
// presets' inputs and with row counts on both sides of the GEMM's striping
// threshold.
func TestFirstTGradientsMatchTransA(t *testing.T) {
	for _, f := range []int{300, 602} {
		for _, n := range []int{40, 200} {
			a := gen.ErdosRenyi(n, 4, int64(f+n)).NormalizedAdjacency()
			x := dense.NewRandom(rand.New(rand.NewSource(int64(n))), n, f, 1)
			rows, labels := []int{0, 3, 7, n - 1}, []int{1, 0, 3, 2}
			model := NewModel(7, LayerDims(f, 16, 4, 2))
			op := &csrOperand{a: a, x: x}
			var ws, wsT Workspace
			_, _, want, err := ws.Gradients(model, hiddenT{op}, rows, labels, len(rows), Collective{})
			if err != nil {
				t.Fatal(err)
			}
			_, _, got, _ := wsT.Gradients(model, op, rows, labels, len(rows), Collective{})
			if op.axT == nil {
				t.Fatal("the serial operand kept no transpose for the backward pass")
			}
			for l := range want {
				if !reflect.DeepEqual(bitsOf(got[l]), bitsOf(want[l])) {
					t.Fatalf("f %d n %d: layer %d gradient over the kept transpose differs from MatMulTransA's", f, n, l+1)
				}
			}
		}
	}
}

// TestInferenceNeverBuildsTranspose: prediction reads Â·X but never its
// transpose — a serial trainer's accuracy pass builds none, and the subset
// evaluator behind Model.Probabilities is a forward-only operand, which has
// no FirstT to build one with.
func TestInferenceNeverBuildsTranspose(t *testing.T) {
	a, x, labels, train := tinyProblem(17)
	s := NewSerial(a, x, labels, train, NewModel(3, LayerDims(x.Cols, 8, 4, 3)), 0.1)
	s.Accuracies(train)
	if s.op.ax == nil || s.op.axT != nil {
		t.Fatalf("after inference: Â·X built %t, transpose built %t; want true, false", s.op.ax != nil, s.op.axT != nil)
	}
	if _, ok := any(&SubsetEval{}).(Operand); ok {
		t.Fatal("SubsetEval is a training operand: inference could build a transpose")
	}
}
