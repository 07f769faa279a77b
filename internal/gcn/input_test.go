package gcn

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/distmm"
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
// at the same width, for both variants: the class width 4 never reaches a
// multiply.
func TestStepperIssuesInputProductOnce(t *testing.T) {
	perEpoch := []int{8, 8, 8, 8}
	for _, v := range []Variant{GCNConv, SAGEConv} {
		widths := observeWidths(t)
		d := stepperFixture(3)
		d.Variant = v
		st := d.Stepper()
		const epochs = 3
		stepN(t, st, 1)
		stepN(t, st, epochs-1)

		f, hidden, classes, L := d.Dims[0], d.Dims[1], d.Dims[len(d.Dims)-1], len(d.Dims)-1
		if got := EpochMultiplyWidths(f, hidden, classes, L, v == SAGEConv); !reflect.DeepEqual(got, perEpoch) {
			t.Fatalf("variant %d: EpochMultiplyWidths %v, want %v", v, got, perEpoch)
		}
		want := []int{f}
		for e := 0; e < epochs; e++ {
			want = append(want, perEpoch...)
		}
		if !reflect.DeepEqual(*widths, want) {
			t.Fatalf("variant %d: multiplies at %v, want %v", v, *widths, want)
		}
	}
}

// TestInputProductSharedAndBitIdentical: two trainers naming one product
// compute it once, and its bits are those of the engine's own multiply of
// the rank's feature rows.
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
