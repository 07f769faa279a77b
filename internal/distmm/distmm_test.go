package distmm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sagnn/internal/comm"
	"sagnn/internal/dense"
	"sagnn/internal/gen"
	"sagnn/internal/machine"
	"sagnn/internal/sparse"
)

func TestUniformLayout(t *testing.T) {
	l := UniformLayout(10, 3)
	if l.Blocks() != 3 || l.N() != 10 {
		t.Fatalf("layout %+v", l)
	}
	if l.Count(0)+l.Count(1)+l.Count(2) != 10 {
		t.Fatal("counts don't cover")
	}
	for r := 0; r < 10; r++ {
		o := l.Owner(r)
		lo, hi := l.Range(o)
		if r < lo || r >= hi {
			t.Fatalf("Owner(%d)=%d range [%d,%d)", r, o, lo, hi)
		}
	}
}

func TestLayoutFromOffsetsValidation(t *testing.T) {
	LayoutFromOffsets([]int{0, 3, 3, 7}) // empty block allowed
	for _, bad := range [][]int{{1, 2}, {0, 5, 3}, {0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %v", bad)
				}
			}()
			LayoutFromOffsets(bad)
		}()
	}
}

// runMultiply executes an engine collectively and gathers the global Z.
func runMultiply(t *testing.T, w *comm.World, e Engine, h *dense.Matrix) *dense.Matrix {
	t.Helper()
	lay := e.Layout()
	out := dense.New(h.Rows, h.Cols)
	var blocks = make([]*dense.Matrix, lay.Blocks())
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	w.Run(func(r *comm.Rank) {
		b := e.BlockOf(r.ID)
		lo, hi := lay.Range(b)
		z := dense.New(hi-lo, h.Cols)
		e.MultiplyInto(r, h.SliceRows(lo, hi).Clone(), z)
		<-mu
		blocks[b] = z // replicas write identical data
		mu <- struct{}{}
	})
	for b := 0; b < lay.Blocks(); b++ {
		lo, _ := lay.Range(b)
		for i := 0; i < blocks[b].Rows; i++ {
			copy(out.Row(lo+i), blocks[b].Row(i))
		}
	}
	return out
}

func randomSym(seed int64, n int, avgDeg int) *sparse.CSR {
	g := gen.ErdosRenyi(n, avgDeg, seed)
	return g.NormalizedAdjacency()
}

func TestOblivious1DMatchesSerial(t *testing.T) {
	a := randomSym(1, 64, 6)
	h := dense.NewRandom(rand.New(rand.NewSource(2)), 64, 5, 1.0)
	want := a.SpMM(h)
	for _, p := range []int{1, 2, 4, 8} {
		w := comm.NewWorld(p, machine.Perlmutter())
		e := NewOblivious1D(w, a, UniformLayout(64, p))
		got := runMultiply(t, w, e, h)
		if got.MaxAbsDiff(want) > 1e-10 {
			t.Fatalf("p=%d diff %g", p, got.MaxAbsDiff(want))
		}
	}
}

func TestSparsityAware1DMatchesSerial(t *testing.T) {
	a := randomSym(3, 64, 6)
	h := dense.NewRandom(rand.New(rand.NewSource(4)), 64, 5, 1.0)
	want := a.SpMM(h)
	for _, p := range []int{1, 2, 4, 8} {
		w := comm.NewWorld(p, machine.Perlmutter())
		e := NewSparsityAware1D(w, a, UniformLayout(64, p))
		got := runMultiply(t, w, e, h)
		if got.MaxAbsDiff(want) > 1e-10 {
			t.Fatalf("p=%d diff %g", p, got.MaxAbsDiff(want))
		}
	}
}

func TestSparsityAware1DVariableBlocks(t *testing.T) {
	a := randomSym(5, 50, 5)
	h := dense.NewRandom(rand.New(rand.NewSource(6)), 50, 3, 1.0)
	want := a.SpMM(h)
	w := comm.NewWorld(4, machine.Perlmutter())
	layout := LayoutFromOffsets([]int{0, 5, 20, 35, 50})
	e := NewSparsityAware1D(w, a, layout)
	got := runMultiply(t, w, e, h)
	if got.MaxAbsDiff(want) > 1e-10 {
		t.Fatalf("variable blocks diff %g", got.MaxAbsDiff(want))
	}
}

func TestOblivious15DMatchesSerial(t *testing.T) {
	a := randomSym(7, 64, 6)
	h := dense.NewRandom(rand.New(rand.NewSource(8)), 64, 5, 1.0)
	want := a.SpMM(h)
	for _, pc := range [][2]int{{4, 1}, {4, 2}, {8, 2}, {16, 2}, {16, 4}} {
		p, c := pc[0], pc[1]
		w := comm.NewWorld(p, machine.Perlmutter())
		e := NewOblivious15D(w, a, c, UniformLayout(64, p/c))
		got := runMultiply(t, w, e, h)
		if got.MaxAbsDiff(want) > 1e-10 {
			t.Fatalf("p=%d c=%d diff %g", p, c, got.MaxAbsDiff(want))
		}
	}
}

func TestSparsityAware15DMatchesSerial(t *testing.T) {
	a := randomSym(9, 64, 6)
	h := dense.NewRandom(rand.New(rand.NewSource(10)), 64, 5, 1.0)
	want := a.SpMM(h)
	for _, pc := range [][2]int{{4, 1}, {4, 2}, {8, 2}, {16, 2}, {16, 4}} {
		p, c := pc[0], pc[1]
		w := comm.NewWorld(p, machine.Perlmutter())
		e := NewSparsityAware15D(w, a, c, UniformLayout(64, p/c))
		got := runMultiply(t, w, e, h)
		if got.MaxAbsDiff(want) > 1e-10 {
			t.Fatalf("p=%d c=%d diff %g", p, c, got.MaxAbsDiff(want))
		}
	}
}

func TestAllEnginesAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 48
		a := randomSym(seed, n, 4)
		h := dense.NewRandom(rand.New(rand.NewSource(seed+1)), n, 4, 1.0)
		want := a.SpMM(h)
		w1 := comm.NewWorld(4, machine.Perlmutter())
		o1 := runMultiply(t, w1, NewOblivious1D(w1, a, UniformLayout(n, 4)), h)
		w2 := comm.NewWorld(4, machine.Perlmutter())
		s1 := runMultiply(t, w2, NewSparsityAware1D(w2, a, UniformLayout(n, 4)), h)
		w3 := comm.NewWorld(4, machine.Perlmutter())
		o15 := runMultiply(t, w3, NewOblivious15D(w3, a, 2, UniformLayout(n, 2)), h)
		w4 := comm.NewWorld(4, machine.Perlmutter())
		s15 := runMultiply(t, w4, NewSparsityAware15D(w4, a, 2, UniformLayout(n, 2)), h)
		tol := 1e-9
		return o1.MaxAbsDiff(want) < tol && s1.MaxAbsDiff(want) < tol &&
			o15.MaxAbsDiff(want) < tol && s15.MaxAbsDiff(want) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestSparsityAwareCommunicatesLess(t *testing.T) {
	// On a banded (regular, block-local) matrix, the sparsity-aware 1D
	// algorithm must move far fewer bytes than the oblivious one.
	g := gen.Banded(512, 8, 12, 11)
	a := g.NormalizedAdjacency()
	h := dense.NewRandom(rand.New(rand.NewSource(12)), 512, 16, 1.0)
	p := 8

	wO := comm.NewWorld(p, machine.Perlmutter())
	runMultiply(t, wO, NewOblivious1D(wO, a, UniformLayout(512, p)), h)
	oblivBytes := wO.Stats().Snapshot().TotalSent()

	wS := comm.NewWorld(p, machine.Perlmutter())
	runMultiply(t, wS, NewSparsityAware1D(wS, a, UniformLayout(512, p)), h)
	saBytes := wS.Stats().Snapshot().TotalSent()

	if saBytes*2 > oblivBytes {
		t.Fatalf("SA bytes %d should be ≪ oblivious bytes %d", saBytes, oblivBytes)
	}
}

func TestGridStructure(t *testing.T) {
	w := comm.NewWorld(8, machine.Perlmutter())
	g := NewGrid(w, 2)
	if g.Rows != 4 || g.Stages() != 2 {
		t.Fatalf("grid rows=%d stages=%d", g.Rows, g.Stages())
	}
	if g.RowOf(5) != 2 || g.ColOf(5) != 1 {
		t.Fatalf("rank 5 maps to (%d,%d)", g.RowOf(5), g.ColOf(5))
	}
}

func TestGridValidation(t *testing.T) {
	w := comm.NewWorld(6, machine.Perlmutter())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: c=2 gives rows=3 not divisible by c")
		}
	}()
	NewGrid(w, 2)
}

func TestEngineShapeMismatchPanics(t *testing.T) {
	a := randomSym(13, 16, 3)
	w := comm.NewWorld(2, machine.Perlmutter())
	e := NewSparsityAware1D(w, a, UniformLayout(16, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Run(func(r *comm.Rank) {
		e.MultiplyInto(r, dense.New(3, 4), dense.New(3, 4)) // wrong row count
	})
}
