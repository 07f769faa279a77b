package dense

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// naiveMatMulAdd is the reference every kernel must equal bit for bit: each
// element of c continued with its products in ascending k, nothing skipped.
func naiveMatMulAdd(c, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := c.At(i, j)
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
}

// naiveMatMul is naiveMatMulAdd into a zeroed c.
func naiveMatMul(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Cols)
	naiveMatMulAdd(c, a, b)
	return c
}

// edgyMat draws normals mixed with the values a tiled or zero-skipping kernel
// could get wrong: ±0 and denormals.
func edgyMat(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		switch rng.Intn(8) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = math.Copysign(0, -1)
		case 2:
			m.Data[i] = math.Float64frombits(uint64(rng.Int63n(1 << 52))) // denormal
		case 3:
			m.Data[i] = -math.Float64frombits(uint64(rng.Int63n(1 << 52)))
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

func requireSameBits(t *testing.T, what string, want, got *Matrix) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			t.Fatalf("%s: element (%d,%d) = %x (%g), want %x (%g)", what, i/want.Cols, i%want.Cols,
				math.Float64bits(got.Data[i]), got.Data[i], math.Float64bits(v), v)
		}
	}
}

// checkGEMMBits requires the four kernels to reproduce the ascending-k triple
// loop for an m×k by k×n product, on the serial path and on the striped one.
// aᵀ and bᵀ are exact copies, so one reference serves the transposed forms.
func checkGEMMBits(t *testing.T, seed int64, m, k, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a, b, prior := edgyMat(rng, m, k), edgyMat(rng, k, n), edgyMat(rng, m, n)
	at, bt := a.Transpose(), b.Transpose()
	want := naiveMatMul(a, b)
	wantAdd := prior.Clone()
	naiveMatMulAdd(wantAdd, a, b)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		what := fmt.Sprintf("%dx%dx%d seed %d procs %d", m, k, n, seed, procs)
		got := edgyMat(rng, m, n) // dirty: the overwriting forms must not read it
		MatMulInto(got, a, b)
		requireSameBits(t, "MatMulInto "+what, want, got)
		got.CopyFrom(prior)
		MatMulAddInto(got, a, b)
		requireSameBits(t, "MatMulAddInto "+what, wantAdd, got)
		got = edgyMat(rng, m, n)
		MatMulTransAInto(got, at, b)
		requireSameBits(t, "MatMulTransAInto "+what, want, got)
		got = edgyMat(rng, m, n)
		MatMulTransBInto(got, a, bt)
		requireSameBits(t, "MatMulTransBInto "+what, want, got)
	}
}

// gemmBitsShapes hit every remainder of the tile (odd row, 1–3 columns), of
// the pack panel (8 columns, 256 rows of k) and both sides of the striping
// threshold, plus the empty inner dimension.
var gemmBitsShapes = [][3]int{
	{1, 1, 1}, {2, 3, 4}, {3, 0, 5}, {1, 300, 70}, {7, 255, 3}, {8, 256, 8}, {9, 257, 9},
	{17, 513, 7}, {127, 31, 41}, {128, 16, 16}, {131, 602, 16}, {257, 64, 33}, {300, 260, 70},
}

func TestGEMMBits(t *testing.T) {
	for i, s := range gemmBitsShapes {
		checkGEMMBits(t, int64(i+1), s[0], s[1], s[2])
	}
}

func FuzzGEMMBits(f *testing.F) {
	f.Add(int64(1), uint16(2), uint16(256), uint16(4))
	f.Add(int64(2), uint16(199), uint16(300), uint16(40))
	f.Add(int64(3), uint16(8), uint16(0), uint16(69))
	f.Fuzz(func(t *testing.T, seed int64, m, k, n uint16) {
		checkGEMMBits(t, seed, int(m)%300+1, int(k)%600, int(n)%70+1)
	})
}

// TestGEMMSerialPathAllocatesNothing pins the pack panels to the stack: on
// the serial path no kernel allocates, at shapes that fill and refill a panel.
func TestGEMMSerialPathAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(5))
	a, b := randMat(rng, 300, 41), randMat(rng, 41, 19)
	at, bt := a.Transpose(), b.Transpose()
	c := New(300, 19)
	mustNotAllocate(t, func() { MatMulInto(c, a, b) })
	mustNotAllocate(t, func() { MatMulAddInto(c, a, b) })
	mustNotAllocate(t, func() { MatMulTransAInto(c, at, b) })
	mustNotAllocate(t, func() { MatMulTransBInto(c, a, bt) })
}

// narrowShapes are layer 1 of a full-batch epoch — a rank's rows of Â·X
// against W¹ — on reddit-sim (f = 602) and amazon-sim (f = 300), hidden 16.
var narrowShapes = [][3]int{{1024, 602, 16}, {2048, 300, 16}}

func benchNarrow(b *testing.B, run func(m, k, n int, rng *rand.Rand) func()) {
	for _, s := range narrowShapes {
		m, k, n := s[0], s[1], s[2]
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
			fn := run(m, k, n, rand.New(rand.NewSource(1)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fn()
			}
			b.ReportMetric(2*float64(m)*float64(k)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkGEMMNarrow is the forward Z¹ = (Â·X)·W¹.
func BenchmarkGEMMNarrow(b *testing.B) {
	benchNarrow(b, func(m, k, n int, rng *rand.Rand) func() {
		x, w, z := randMat(rng, m, k), randMat(rng, k, n), New(m, n)
		return func() { MatMulInto(z, x, w) }
	})
}

// BenchmarkTransANarrow is the weight gradient Y¹ = (Â·X)ᵀ·G¹.
func BenchmarkTransANarrow(b *testing.B) {
	benchNarrow(b, func(m, k, n int, rng *rand.Rand) func() {
		x, g, y := randMat(rng, m, k), randMat(rng, m, n), New(k, n)
		return func() { MatMulTransAInto(y, x, g) }
	})
}
