package gcn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/distmm"
	"sagnn/internal/gen"
	"sagnn/internal/machine"
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
		want[r.ID] = dense.New(hi-lo, d.Input.X.Cols)
		d.Engine.MultiplyInto(r, d.Input.X.SliceRows(lo, hi).Clone(), want[r.ID])
	})
	for i, b := range bitsOf(want[1]) {
		if before[i] != b || math.Float64bits(first.Data[i]) != b {
			t.Fatalf("product element %d differs from the engine's multiply (or was written during training)", i)
		}
	}
}

// TestInputProductFaultKeepsNothing injects a fault at every op site of the
// set-up launch, on every rank, under every engine: the typed error comes
// back, no block is kept, the stepper stays clean (no weight was touched),
// and the retry trains bit-identically to a stepper that was never
// interrupted.
func TestInputProductFaultKeepsNothing(t *testing.T) {
	for _, eng := range []struct {
		name string
		c    int
	}{{"sparsity-aware-1d", 1}, {"oblivious-1d", 1}, {"sparsity-aware-1.5d", 2}, {"oblivious-1.5d", 2}} {
		fixture := func() *Distributed { return stepperFixtureOn(7, eng.name, eng.c) }
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

// panelFixture is an InputProduct over an Erdős–Rényi graph of n vertices
// and average degree deg with f random features, on the named engine at
// replication c over four simulated ranks.
func panelFixture(n, deg, f int, engineName string, c int) *InputProduct {
	aHat := gen.ErdosRenyi(n, deg, int64(n+f)).NormalizedAdjacency()
	x := dense.NewRandom(rand.New(rand.NewSource(int64(f))), n, f, 1)
	world := comm.NewWorld(4, machine.Perlmutter())
	engine, err := distmm.NewEngine(world, engineName, c, aHat, distmm.UniformLayout(n, 4/c))
	if err != nil {
		panic(err)
	}
	return &InputProduct{World: world, Engine: engine, X: x}
}

// panelEngines are the engines the set-up product runs on: both 1D ones
// and both 1.5D ones at c = 2.
var panelEngines = []struct {
	name string
	c    int
}{{"oblivious-1d", 1}, {"sparsity-aware-1d", 1}, {"oblivious-1.5d", 2}, {"sparsity-aware-1.5d", 2}}

// TestInputProductPanelsBitIdentical: Â·X computed in column panels equals,
// bit for bit, one feature-width MultiplyInto of the same engine, at
// feature widths around and across the panel width on every engine; the
// launch issues exactly the panel widths distmm.SetupWidths lists, and its
// ledger and traffic are what the plan prices at those widths.
func TestInputProductPanelsBitIdentical(t *testing.T) {
	w := distmm.SetupWidths(1 << 20)[0] // the panel width
	for _, f := range []int{1, w - 1, w, w + 1, 2*w + 3} {
		widths := distmm.SetupWidths(f)
		sum := 0
		for _, pw := range widths {
			sum += pw
		}
		if sum != f || len(widths) != (f+w-1)/w || slices.Max(widths) > w {
			t.Fatalf("SetupWidths(%d) = %v", f, widths)
		}
		for _, eng := range panelEngines {
			p := panelFixture(96, 6, f, eng.name, eng.c)
			observed := observeWidths(t)
			l0, v0 := p.World.Ledger.Snapshot(), p.World.Stats().Snapshot()
			if err := p.Ensure(context.Background()); err != nil {
				t.Fatal(err)
			}
			ledger, vol := p.World.Ledger.Snapshot().Sub(l0), p.World.Stats().Snapshot().Sub(v0)
			ObserveMultiplies(nil)
			if !reflect.DeepEqual(*observed, widths) {
				t.Fatalf("f %d %s: set-up multiplies at %v, want %v", f, eng.name, *observed, widths)
			}
			// Equal to rounding: the launch sums each rank's charges one by
			// one, the price multiply by multiply (as for an epoch).
			priced := p.Engine.Plan().EpochCost(p.World.Params, widths)
			got, want := ledger.Breakdown(), priced.Breakdown()
			near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b)) }
			ok := len(got) == len(want) && near(ledger.Total(), priced.Total())
			for ph, sec := range want {
				ok = ok && near(got[ph], sec)
			}
			if !ok {
				t.Fatalf("f %d %s: the set-up charged %v, priced %v", f, eng.name, got, want)
			}
			if got, want := vol.MaxSent(), slices.Max(p.Engine.Plan().EpochSentBytes(widths)); got != want {
				t.Fatalf("f %d %s: the set-up sent at most %d bytes a rank, priced %d", f, eng.name, got, want)
			}

			whole := make([]*dense.Matrix, p.World.P)
			p.World.Run(func(r *comm.Rank) {
				lo, hi := p.Engine.Layout().Range(p.Engine.BlockOf(r.ID))
				whole[r.ID] = dense.New(hi-lo, f)
				p.Engine.MultiplyInto(r, p.X.SliceRows(lo, hi), whole[r.ID])
			})
			for rank := range whole {
				if !reflect.DeepEqual(bitsOf(p.Block(rank)), bitsOf(whole[rank])) {
					t.Fatalf("f %d %s: rank %d's panelled product differs from one width-%d multiply", f, eng.name, rank, f)
				}
			}
		}
	}
}

// TestInputProductBuffersStayPanelWide pins what the set-up launch leaves
// behind: the executor workspaces and pooled transport buffers its
// multiplies grow are panel-wide, not feature-wide, so at a feature width
// sixteen panels wide the launch allocates the product plus at most four
// rows × panel-width matrices per rank of the whole graph (measured: 1.1–2.8
// on the four engines). The same launch run as one feature-wide multiply
// allocates 17–42 of them.
func TestInputProductBuffersStayPanelWide(t *testing.T) {
	w := distmm.SetupWidths(1 << 20)[0]
	const n, deg = 256, 16
	f := 16 * w
	for _, eng := range panelEngines {
		p := panelFixture(n, deg, f, eng.name, eng.c)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := p.Ensure(context.Background()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		product := uint64(eng.c * n * f * 8) // every replica's block
		unit := uint64(p.World.P * n * w * 8)
		if got := after.TotalAlloc - before.TotalAlloc; got > product+4*unit {
			t.Errorf("%s: the set-up launch allocated %d bytes: the product's %d plus %.1f rows × panel-width matrices per rank, want ≤ 4",
				eng.name, got, product, float64(got-product)/float64(unit))
		}
	}
}

// TestInputProductHoldsOneOrientation pins what the product keeps: after
// Ensure and a collection, the heap it retains is the ranks' blocks of Â·X
// and little else — no second orientation of them (a kept transpose read
// 2× the blocks) — on every engine. Panel-wide multiplies first grow the
// executor and transport buffers the launch reuses, so what Ensure adds is
// the product's own.
func TestInputProductHoldsOneOrientation(t *testing.T) {
	w := distmm.SetupWidths(1 << 20)[0]
	for _, eng := range panelEngines {
		p := panelFixture(256, 16, 16*w, eng.name, eng.c)
		for i := 0; i < 3; i++ {
			p.World.Run(func(r *comm.Rank) {
				lo, hi := p.Engine.Layout().Range(p.Engine.BlockOf(r.ID))
				p.Engine.MultiplyInto(r, dense.New(hi-lo, w), dense.New(hi-lo, w))
			})
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := p.Ensure(context.Background()); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		var blocks int64
		for rank := 0; rank < p.World.P; rank++ {
			blocks += int64(len(p.Block(rank).Data) * 8)
		}
		if got := int64(after.HeapAlloc) - int64(before.HeapAlloc); float64(got) > 1.1*float64(blocks) {
			t.Errorf("%s: the product retains %d bytes, %.2f× its blocks' %d, want ≤ 1.1×",
				eng.name, got, float64(got)/float64(blocks), blocks)
		}
	}
}

// TestInputProductReadsThroughRows: a product over unpermuted features and
// a row map equals, bit for bit, the product over the permuted copy the
// map stands for, on every engine and at a width across two panels.
func TestInputProductReadsThroughRows(t *testing.T) {
	const n = 96
	f := distmm.SetupWidths(1 << 20)[0] + 5
	perm := rand.New(rand.NewSource(3)).Perm(n)
	rows := make([]int, n)
	for v, i := range perm {
		rows[i] = v
	}
	for _, eng := range panelEngines {
		copied := panelFixture(n, 6, f, eng.name, eng.c)
		mapped := &InputProduct{World: copied.World, Engine: copied.Engine, X: copied.X, Rows: rows}
		copied.X = copied.X.PermuteRows(perm)
		for _, p := range []*InputProduct{copied, mapped} {
			if err := p.Ensure(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		for rank := 0; rank < copied.World.P; rank++ {
			if !reflect.DeepEqual(bitsOf(mapped.Block(rank)), bitsOf(copied.Block(rank))) {
				t.Fatalf("%s: rank %d's product through the row map differs from the permuted copy's", eng.name, rank)
			}
		}
	}
}
