package dense

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
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

// requireSameBits requires got to equal want bit for bit, except that a NaN
// matches any NaN: when both operands of an add are NaN, IEEE 754 leaves open
// whose payload the sum carries, and the compiler orders the operands of the
// triple loop's adds as it likes.
func requireSameBits(t *testing.T, what string, want, got *Matrix) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range want.Data {
		if math.IsNaN(v) && math.IsNaN(got.Data[i]) {
			continue
		}
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			t.Fatalf("%s: element (%d,%d) = %x (%g), want %x (%g)", what, i/want.Cols, i%want.Cols,
				math.Float64bits(got.Data[i]), got.Data[i], math.Float64bits(v), v)
		}
	}
}

// tileKernels are the tiles this host runs, as tile's vector argument: the
// portable loop, and the vector tile where the CPU has AVX2.
var tileKernels = func() []bool {
	if useVectorTile {
		return []bool{false, true}
	}
	return []bool{false}
}()

// logVectorSkipped notes that this host tests the portable tile alone.
func logVectorSkipped(tb testing.TB) {
	if !useVectorTile {
		tb.Log("no AVX2 on this CPU: the vector tile is skipped")
	}
}

// plantNonFinite overwrites about one entry in 64 with +Inf, −Inf or Go's
// NaN, so products of Inf and 0, sums of opposite infinities and NaN inputs
// all reach the kernels, which must carry them as the triple loop does.
func plantNonFinite(rng *rand.Rand, m *Matrix) {
	for i := range m.Data {
		if rng.Intn(64) == 0 {
			m.Data[i] = [...]float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
		}
	}
}

// checkGEMMBits requires the four GEMM forms to reproduce the ascending-k
// triple loop for an m×k by k×n product, with every tile this host runs, on
// the serial path and on the striped one. aᵀ and bᵀ are exact copies, so one
// reference serves the transposed forms. nonFinite plants infinities and NaNs
// in a and b.
func checkGEMMBits(t *testing.T, seed int64, m, k, n int, nonFinite bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a, b, prior := edgyMat(rng, m, k), edgyMat(rng, k, n), edgyMat(rng, m, n)
	if nonFinite {
		plantNonFinite(rng, a)
		plantNonFinite(rng, b)
	}
	at, bt := a.Transpose(), b.Transpose()
	want := naiveMatMul(a, b)
	wantAdd := prior.Clone()
	naiveMatMulAdd(wantAdd, a, b)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, vector := range tileKernels {
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			what := fmt.Sprintf("%dx%dx%d seed %d vector %t procs %d", m, k, n, seed, vector, procs)
			got := edgyMat(rng, m, n) // dirty: the overwriting forms must not read it
			stripes(gemmStripe, got, a, b, m, vector)
			requireSameBits(t, "MatMulInto "+what, want, got)
			got.CopyFrom(prior)
			stripes(gemmAddStripe, got, a, b, m, vector)
			requireSameBits(t, "MatMulAddInto "+what, wantAdd, got)
			got = edgyMat(rng, m, n)
			stripes(transAStripe, got, at, b, m, vector)
			requireSameBits(t, "MatMulTransAInto "+what, want, got)
			got = edgyMat(rng, m, n)
			stripes(transBStripe, got, a, bt, m, vector)
			requireSameBits(t, "MatMulTransBInto "+what, want, got)
		}
	}
}

// gemmBitsShapes hit every remainder of the tile (odd row; 1–3 columns after
// the vector tile's blocks of 16, 8 and 4), of the k passes (256 for MatMul,
// 64 for TransA's row panel at k = 63, 64 and 65, 128 for TransB's 16-wide
// stack panel) and both sides of the striping threshold, plus the empty
// inner dimension on the serial and the striped path. m = 1024 is a TransA
// panel of power-of-two width: 1024 columns at procs 1, 256 at procs 4.
var gemmBitsShapes = [][3]int{
	{1, 1, 1}, {2, 3, 4}, {3, 0, 5}, {1, 300, 70}, {7, 255, 3}, {8, 256, 8}, {9, 257, 9},
	{17, 513, 7}, {127, 31, 41}, {128, 16, 16}, {131, 602, 16}, {257, 64, 33}, {300, 260, 70},
	{32, 64, 17}, {33, 65, 15}, {63, 127, 12}, {65, 129, 24},
	{1024, 67, 3}, {160, 0, 9}, {77, 63, 16}, {129, 64, 17}, {201, 65, 16},
}

func TestGEMMBits(t *testing.T) {
	logVectorSkipped(t)
	for i, s := range gemmBitsShapes {
		checkGEMMBits(t, int64(i+1), s[0], s[1], s[2], false)
		checkGEMMBits(t, int64(i+1), s[0], s[1], s[2], true)
	}
}

func FuzzGEMMBits(f *testing.F) {
	f.Add(int64(1), uint16(2), uint16(256), uint16(4), false)
	f.Add(int64(2), uint16(199), uint16(300), uint16(40), false)
	f.Add(int64(3), uint16(8), uint16(0), uint16(69), false)
	f.Add(int64(4), uint16(5), uint16(33), uint16(29), true)
	f.Fuzz(func(t *testing.T, seed int64, m, k, n uint16, nonFinite bool) {
		logVectorSkipped(t)
		checkGEMMBits(t, seed, int(m)%300+1, int(k)%600, int(n)%70+1, nonFinite)
	})
}

// TestTileVectorMatchesPortable calls the two tiles by name on the same
// operands — every column count up to three 16-wide blocks and a remainder,
// strided and contiguous a, with and without add, including kn = 0 — and
// requires the same bits in both rows and nothing written past len(c0).
func TestTileVectorMatchesPortable(t *testing.T) {
	if !useVectorTile {
		t.Skip("no AVX2 on this CPU: the vector tile is skipped")
	}
	rng := rand.New(rand.NewSource(9))
	const guard = 5
	for n := 0; n <= 51; n++ {
		for _, kn := range []int{0, 1, 7, 70} {
			for _, lda := range []int{1, 3} {
				ldb := n + rng.Intn(3)
				a := edgyMat(rng, 2, max(1, kn*lda)).Data
				a0, a1 := a[:len(a)/2], a[len(a)/2:]
				b := edgyMat(rng, 1, max(0, (kn-1)*ldb+n)).Data
				prior := edgyMat(rng, 2, n+guard)
				for _, add := range []bool{false, true} {
					want, got := prior.Clone(), prior.Clone()
					tilePortable(want.Row(0)[:n], want.Row(1)[:n], a0, a1, lda, kn, b, ldb, add)
					tileVector(got.Row(0)[:n], got.Row(1)[:n], a0, a1, lda, kn, b, ldb, add)
					requireSameBits(t, fmt.Sprintf("n %d kn %d lda %d add %t", n, kn, lda, add), want, got)
				}
			}
		}
	}
}

// TestGEMMRejectsAliasedOutput: every GEMM form panics when its output
// starts at an operand's first element — the same matrix or a second header
// over the same storage — instead of reading entries it has overwritten.
func TestGEMMRejectsAliasedOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a, b := randMat(rng, 4, 4), randMat(rng, 4, 4)
	view := FromSlice(4, 4, b.Data)
	forms := map[string]func(c, a, b *Matrix){
		"MatMulInto": MatMulInto, "MatMulAddInto": MatMulAddInto,
		"MatMulTransAInto": MatMulTransAInto, "MatMulTransBInto": MatMulTransBInto,
	}
	for name, form := range forms {
		for _, c := range []struct {
			what string
			c    *Matrix
		}{{"a", a}, {"b", b}, {"a view of b", view}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with c = %s did not panic", name, c.what)
					}
				}()
				form(c.c, a, b)
			}()
		}
	}
	MatMulInto(New(4, 4), a, b) // a fresh c is accepted
}

// TestGEMMSerialPathAllocatesNothing pins the pack panels: TransB's on the
// stack, TransA's from the free list, so on the serial path no warm kernel
// allocates, at shapes that fill and refill a panel.
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

// benchOperands is the number of distinct operand sets benchNarrow cycles
// through, one per rank of the benchmark's P = 4: a single reused operand
// stays in cache and hides the cost of reading it.
const benchOperands = 4

// benchNarrow runs every narrow shape with each tile this host runs, the
// portable one as "scalar", cycling benchOperands operand sets drawn by
// shape from seeds 1, 2, ….
func benchNarrow(b *testing.B, kernel stripeKernel, shape func(rng *rand.Rand, m, k, n int) (rows int, c, x, y *Matrix)) {
	for _, s := range narrowShapes {
		m, k, n := s[0], s[1], s[2]
		for _, vector := range tileKernels {
			tile := "scalar"
			if vector {
				tile = "vector"
			}
			b.Run(fmt.Sprintf("%dx%dx%d/%s", m, k, n, tile), func(b *testing.B) {
				var rows int
				var c, x, y [benchOperands]*Matrix
				for o := 0; o < benchOperands; o++ {
					rows, c[o], x[o], y[o] = shape(rand.New(rand.NewSource(int64(o+1))), m, k, n)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					o := i % benchOperands
					stripes(kernel, c[o], x[o], y[o], rows, vector)
				}
				b.ReportMetric(2*float64(m)*float64(k)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// BenchmarkGEMMNarrow is the forward Z¹ = (Â·X)·W¹.
func BenchmarkGEMMNarrow(b *testing.B) {
	benchNarrow(b, gemmStripe, func(rng *rand.Rand, m, k, n int) (int, *Matrix, *Matrix, *Matrix) {
		return m, New(m, n), randMat(rng, m, k), randMat(rng, k, n)
	})
}

// BenchmarkTransANarrow is the weight gradient Y¹ = (Â·X)ᵀ·G¹.
func BenchmarkTransANarrow(b *testing.B) {
	benchNarrow(b, transAStripe, func(rng *rand.Rand, m, k, n int) (int, *Matrix, *Matrix, *Matrix) {
		return k, New(k, n), randMat(rng, m, k), randMat(rng, m, n)
	})
}

// BenchmarkTransBNarrow is the backward's G¹·(W¹)ᵀ shape with the roles
// turned: an m×k by (n×k)ᵀ product, b copied transBCols rows at a time into
// the stack panel.
func BenchmarkTransBNarrow(b *testing.B) {
	benchNarrow(b, transBStripe, func(rng *rand.Rand, m, k, n int) (int, *Matrix, *Matrix, *Matrix) {
		return m, New(m, n), randMat(rng, m, k), randMat(rng, n, k)
	})
}

// BenchmarkReLUPassesNarrow is one hidden layer's two ReLU passes at a
// rank's narrow width: the forward H = σ(Z) and the backward G ⊙= σ′(Z).
func BenchmarkReLUPassesNarrow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	z, g := randMat(rng, 1024, 16), randMat(rng, 1024, 16)
	h := New(1024, 16)
	for i := 0; i < b.N; i++ {
		z.ReLUInto(h)
		g.HadamardReLUDeriv(z)
	}
}

// TestTransAConcurrentCallsMatchSerial runs MatMulTransAInto from 8
// goroutines at once, each on its own operands and width, and requires
// every result to equal that operand's serial product bit for bit: a panel
// handed to two calls at once would mix their columns.
func TestTransAConcurrentCallsMatchSerial(t *testing.T) {
	const callers, rounds = 8, 10
	type job struct{ a, b, want *Matrix }
	jobs := make([]job, callers)
	for i := range jobs {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		a, b := edgyMat(rng, 100+7*i, 130+20*i), edgyMat(rng, 100+7*i, 16)
		want := New(a.Cols, b.Cols)
		transAStripe(want, a, b, 0, a.Cols, useVectorTile)
		jobs[i] = job{a, b, want}
	}
	got := make([]*Matrix, callers)
	var wg sync.WaitGroup
	for i, j := range jobs {
		got[i] = New(j.a.Cols, j.b.Cols)
		wg.Add(1)
		go func(c *Matrix, j job) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				MatMulTransAInto(c, j.a, j.b)
			}
		}(got[i], j)
	}
	wg.Wait()
	for i, j := range jobs {
		requireSameBits(t, fmt.Sprintf("caller %d", i), j.want, got[i])
	}
}
