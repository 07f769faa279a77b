package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMat(rng *rand.Rand, r, c int) *Matrix {
	return NewRandom(rng, r, c, 1.0)
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("not zeroed")
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("At = %v", m.At(1, 2))
	}
	if m.Row(1)[2] != 7.5 {
		t.Fatalf("Row alias broken")
	}
	m.Row(0)[0] = -1
	if m.At(0, 0) != -1 {
		t.Fatal("Row must alias storage")
	}
}

func TestFromSlicePanicsOnBadLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randMat(rng, 4, 5)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Clone shares storage")
	}
	if !m.Equal(m, 0) {
		t.Fatal("Equal self")
	}
}

func TestAddSubScaleAXPY(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMat(rng, 3, 3)
	b := randMat(rng, 3, 3)
	sum := a.Clone()
	sum.Add(b)
	sum.Sub(b)
	if sum.MaxAbsDiff(a) > 1e-15 {
		t.Fatal("Add then Sub not identity")
	}
	s := a.Clone()
	s.Scale(2)
	ax := a.Clone()
	ax.AXPY(1, a)
	if s.MaxAbsDiff(ax) > 1e-15 {
		t.Fatal("Scale(2) != AXPY(1, self)")
	}
}

func TestHadamard(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{2, 0.5, -1, 0})
	a.Hadamard(b)
	want := []float64{2, 1, -3, 0}
	for i, v := range want {
		if a.Data[i] != v {
			t.Fatalf("Hadamard[%d]=%v want %v", i, a.Data[i], v)
		}
	}
}

func TestReLUAndDeriv(t *testing.T) {
	m := FromSlice(1, 4, []float64{-2, 0, 3, -0.1})
	d := m.ReLUDeriv()
	m.ReLU()
	if m.Data[0] != 0 || m.Data[1] != 0 || m.Data[2] != 3 || m.Data[3] != 0 {
		t.Fatalf("ReLU = %v", m.Data)
	}
	if d.Data[0] != 0 || d.Data[1] != 0 || d.Data[2] != 1 || d.Data[3] != 0 {
		t.Fatalf("ReLUDeriv = %v", d.Data)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randMat(rng, 5, 7)
	tt := m.Transpose().Transpose()
	if tt.MaxAbsDiff(m) != 0 {
		t.Fatal("transpose twice != identity")
	}
	tr := m.Transpose()
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if tr.At(j, i) != m.At(i, j) {
				t.Fatalf("transpose wrong at %d,%d", i, j)
			}
		}
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randMat(rng, 10, 3)
	idx := []int{7, 2, 9, 0}
	g := m.GatherRows(idx)
	if g.Rows != 4 || g.Cols != 3 {
		t.Fatalf("gather shape %dx%d", g.Rows, g.Cols)
	}
	for k, i := range idx {
		for j := 0; j < 3; j++ {
			if g.At(k, j) != m.At(i, j) {
				t.Fatalf("gather mismatch row %d", k)
			}
		}
	}
	dst := New(10, 3)
	dst.ScatterRows(idx, g)
	for _, i := range idx {
		for j := 0; j < 3; j++ {
			if dst.At(i, j) != m.At(i, j) {
				t.Fatal("scatter mismatch")
			}
		}
	}
}

func TestSliceRowsAliases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randMat(rng, 6, 2)
	s := m.SliceRows(2, 5)
	if s.Rows != 3 {
		t.Fatalf("SliceRows rows=%d", s.Rows)
	}
	s.Set(0, 0, 42)
	if m.At(2, 0) != 42 {
		t.Fatal("SliceRows must alias")
	}
}

func TestVStack(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := FromSlice(2, 2, []float64{3, 4, 5, 6})
	v := VStack(a, b)
	if v.Rows != 3 || v.Cols != 2 {
		t.Fatalf("VStack shape %dx%d", v.Rows, v.Cols)
	}
	want := []float64{1, 2, 3, 4, 5, 6}
	for i, w := range want {
		if v.Data[i] != w {
			t.Fatalf("VStack[%d]=%v", i, v.Data[i])
		}
	}
	if VStack().Rows != 0 {
		t.Fatal("empty VStack")
	}
}

func TestPermuteRowsInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randMat(rng, 8, 3)
	perm := rng.Perm(8)
	p := m.PermuteRows(perm)
	for i := 0; i < 8; i++ {
		for j := 0; j < 3; j++ {
			if p.At(perm[i], j) != m.At(i, j) {
				t.Fatal("PermuteRows convention broken")
			}
		}
	}
	inv := make([]int, 8)
	for i, pi := range perm {
		inv[pi] = i
	}
	back := p.PermuteRows(inv)
	if back.MaxAbsDiff(m) != 0 {
		t.Fatal("inverse permutation does not restore")
	}
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {17, 5, 9}, {70, 130, 33}, {128, 64, 16}} {
		a := randMat(rng, dims[0], dims[1])
		b := randMat(rng, dims[1], dims[2])
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		if got.MaxAbsDiff(want) > 1e-10 {
			t.Fatalf("MatMul %v differs from naive by %g", dims, got.MaxAbsDiff(want))
		}
	}
}

func TestMatMulPropertyQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(m0, k0, n0 uint8) bool {
		m, k, n := int(m0%20)+1, int(k0%20)+1, int(n0%20)+1
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		return MatMul(a, b).MaxAbsDiff(naiveMatMul(a, b)) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulDistributesOverAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randMat(r, 6, 4)
		b := randMat(r, 4, 5)
		c := randMat(r, 4, 5)
		bc := b.Clone()
		bc.Add(c)
		lhs := MatMul(a, bc)
		rhs := MatMul(a, b)
		rhs.Add(MatMul(a, c))
		return lhs.MaxAbsDiff(rhs) < 1e-9
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulTransA(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randMat(rng, 9, 4)
	b := randMat(rng, 9, 6)
	got := MatMulTransA(a, b)
	want := MatMul(a.Transpose(), b)
	if got.MaxAbsDiff(want) > 1e-10 {
		t.Fatalf("MatMulTransA differs by %g", got.MaxAbsDiff(want))
	}
}

func TestMatMulTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randMat(rng, 5, 7)
	b := randMat(rng, 8, 7)
	got := MatMulTransB(a, b)
	want := MatMul(a, b.Transpose())
	if got.MaxAbsDiff(want) > 1e-10 {
		t.Fatalf("MatMulTransB differs by %g", got.MaxAbsDiff(want))
	}
}

func TestMatMulInnerDimPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestSoftmaxRows(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 1000, 1000, 1000})
	SoftmaxRows(m)
	for i := 0; i < 2; i++ {
		s := 0.0
		for j := 0; j < 3; j++ {
			v := m.At(i, j)
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("softmax out of range: %v", v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
	if !(m.At(0, 2) > m.At(0, 1) && m.At(0, 1) > m.At(0, 0)) {
		t.Fatal("softmax not monotone")
	}
}

func TestAccuracy(t *testing.T) {
	probs := FromSlice(3, 2, []float64{0.9, 0.1, 0.3, 0.7, 0.6, 0.4})
	labels := []int{0, 1, 1}
	if acc := Accuracy(probs, labels, []int{0, 1, 2}); math.Abs(acc-2.0/3.0) > 1e-12 {
		t.Fatalf("acc=%v", acc)
	}
	if Accuracy(probs, labels, nil) != 0 {
		t.Fatal("empty mask accuracy must be 0")
	}
}

func TestGlorotBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := NewGlorot(rng, 30, 20)
	limit := math.Sqrt(6.0 / 50.0)
	for _, v := range m.Data {
		if v < -limit || v >= limit {
			t.Fatalf("glorot out of bounds: %v (limit %v)", v, limit)
		}
	}
}
