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

// TestGrowRule pins the one grow rule of reused buffers: a buffer with no
// capacity is allocated exactly; a request that fits keeps the backing
// array; one that does not gets at least 5/4 of the request. Contents are
// unspecified, so nothing here reads them. Reshape follows the same rule
// for its data and keeps its header.
func TestGrowRule(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 100, 1 << 20} {
		var buf []float64
		if got := Grow(&buf, n); len(got) != n || cap(got) != n || len(buf) != n {
			t.Fatalf("nil buffer grown to %d: len %d cap %d (kept len %d), want exact", n, len(got), cap(got), len(buf))
		}
		if n == 0 {
			continue
		}
		base := &buf[0]
		for _, m := range []int{n, n / 2, 0} {
			if got := Grow(&buf, m); len(got) != m || cap(got) != n || &buf[:1][0] != base {
				t.Fatalf("buffer of cap %d asked for %d: len %d cap %d, reallocated %v", n, m, len(got), cap(got), &buf[:1][0] != base)
			}
		}
		for _, m := range []int{n + 1, 2 * n, 5*n + 3} {
			before := cap(buf)
			got := Grow(&buf, m)
			if len(got) != m || len(buf) != m || (m > before && 4*cap(got) < 5*m) {
				t.Fatalf("buffer of cap %d asked for %d: len %d cap %d, want cap ≥ 5/4 of the request", before, m, len(got), cap(got))
			}
		}
	}
	ints := []int{1, 2, 3}
	if got := Grow(&ints, 2); &got[0] != &ints[0] || len(ints) != 2 {
		t.Fatal("Grow[int] reallocated a request that fits")
	}

	m := Reshape(nil, 3, 4)
	if m.Rows != 3 || m.Cols != 4 || cap(m.Data) != 12 {
		t.Fatalf("Reshape(nil) is %dx%d with cap %d, want 3x4 exact", m.Rows, m.Cols, cap(m.Data))
	}
	if got := Reshape(m, 2, 5); got != m || len(m.Data) != 10 || cap(m.Data) != 12 {
		t.Fatalf("Reshape to a fitting 2x5: header kept %v, len %d cap %d", got == m, len(m.Data), cap(m.Data))
	}
	if got := Reshape(m, 4, 4); got != m || m.Rows != 4 || m.Cols != 4 || len(m.Data) != 16 || cap(m.Data) < 20 {
		t.Fatalf("Reshape to 4x4 past cap 12: header kept %v, %dx%d len %d cap %d, want cap ≥ 20", got == m, m.Rows, m.Cols, len(m.Data), cap(m.Data))
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

// reluRef and hadamardReLUDerivRef are the branchy loops the fused passes
// replaced: ReLU in place as "if v < 0 { v = 0 }", and the derivative
// materialised as 1 where z > 0 else 0, then multiplied in.
func reluRef(z *Matrix) *Matrix {
	h := z.Clone()
	for i, v := range h.Data {
		if v < 0 {
			h.Data[i] = 0
		}
	}
	return h
}

func hadamardReLUDerivRef(g, z *Matrix) *Matrix {
	out := g.Clone()
	for i, v := range z.Data {
		d := 0.0
		if v > 0 {
			d = 1
		}
		out.Data[i] *= d
	}
	return out
}

// TestReLUPassesMatchReference holds the branch-free ReLUInto and
// HadamardReLUDeriv to the branchy loops bit for bit over ±0, denormals,
// ±Inf and NaN in both operands: −0 and NaN pass ReLU as they are, +0 comes
// out where the input was below zero, and the derivative multiplies by a real
// 0, so Inf·0 is NaN and −g·0 is −0. A NaN must stay a NaN of the same bits
// here, since neither pass adds.
func TestReLUPassesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, shape := range [][2]int{{0, 3}, {1, 1}, {7, 5}, {64, 16}} {
		z, g := edgyMat(rng, shape[0], shape[1]), edgyMat(rng, shape[0], shape[1])
		plantNonFinite(rng, z)
		plantNonFinite(rng, g)
		if len(z.Data) > 4 {
			copy(z.Data, []float64{math.NaN(), math.Float64frombits(0xfff8_0000_0000_0001), math.Inf(-1), -math.SmallestNonzeroFloat64})
			copy(g.Data, []float64{math.Inf(1), math.NaN(), -1, math.Inf(-1)})
		}
		h := edgyMat(rng, shape[0], shape[1]) // dirty destination
		z.ReLUInto(h)
		requireBitsExact(t, "ReLUInto", reluRef(z), h)
		got := g.Clone()
		got.HadamardReLUDeriv(z)
		requireBitsExact(t, "HadamardReLUDeriv", hadamardReLUDerivRef(g, z), got)
	}
}

// requireBitsExact is requireSameBits without its NaN allowance.
func requireBitsExact(t *testing.T, what string, want, got *Matrix) {
	t.Helper()
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			t.Fatalf("%s: element %d = %x (%g), want %x (%g)", what, i, math.Float64bits(got.Data[i]), got.Data[i], math.Float64bits(v), v)
		}
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
	for k, i := range idx {
		copy(dst.Row(i), g.Row(k))
	}
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
	// The first maximum wins a tie, NaN never beats a number, and a leading
	// NaN is never displaced.
	for _, tc := range []struct {
		row  []float64
		want int
	}{
		{[]float64{0.2, 0.4, 0.4}, 1},
		{[]float64{0.5, 0.5}, 0},
		{[]float64{0.1, math.NaN(), 0.3}, 2},
		{[]float64{math.NaN(), 0.3}, 0},
	} {
		if got := ArgmaxRow(tc.row); got != tc.want {
			t.Fatalf("ArgmaxRow(%v) = %d, want %d", tc.row, got, tc.want)
		}
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

// TestPermutedRowsAreRowsOfPermuteRows: every row range of the permuted
// matrix, built alone, is those rows of the whole permuted matrix.
func TestPermutedRowsAreRowsOfPermuteRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randMat(rng, 9, 4)
	perm := rng.Perm(9)
	whole := m.PermuteRows(perm)
	for lo := 0; lo <= 9; lo++ {
		for hi := lo; hi <= 9; hi++ {
			if got := m.PermutedRows(perm, lo, hi); !got.Equal(whole.SliceRows(lo, hi), 0) {
				t.Fatalf("rows [%d,%d): %v, want %v", lo, hi, got, whole.SliceRows(lo, hi))
			}
		}
	}
}

// TestCopyColsRoundTrip: cutting a matrix into column panels and writing
// them back rebuilds it, at every panel width.
func TestCopyColsRoundTrip(t *testing.T) {
	m := randMat(rand.New(rand.NewSource(5)), 7, 11)
	for w := 1; w <= 11; w++ {
		out := New(7, 11)
		for c := 0; c < 11; c += w {
			n := min(w, 11-c)
			panel := New(7, n)
			CopyCols(panel, 0, m, c, n)
			CopyCols(out, c, panel, 0, n)
		}
		if !out.Equal(m, 0) {
			t.Fatalf("panels of %d: %v, want %v", w, out, m)
		}
	}
}
