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
// It walks k in the outer loop and b's rows in address order, so every sum
// still runs in ascending k while b is read contiguously, once per row of a.
func naiveMatMulAdd(c, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		ci := c.Row(i)
		for k, aik := range a.Row(i) {
			for j, bkj := range b.Row(k) {
				ci[j] += aik * bkj
			}
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

// tileKernels are the tiers this host runs, each passed to stripes in turn:
// the portable loop, the AVX2 tile where the CPU has AVX2 and the 8-row
// tile where it also has AVX-512F. An AVX-512 host still tests the AVX2
// tier, the path AVX2-only hosts run.
var tileKernels = func() []tier {
	var tiers []tier
	for t := tierPortable; t <= hostTier; t++ {
		tiers = append(tiers, t)
	}
	return tiers
}()

// logTiersSkipped notes the tiers this host cannot test.
func logTiersSkipped(tb testing.TB) {
	if hostTier < tierAVX2 {
		tb.Log("no AVX2 on this CPU: the vector tiles are skipped")
	} else if hostTier < tierAVX512 {
		tb.Log("no AVX-512F on this CPU: the 8-row tile is skipped")
	}
}

// TestTileTiers logs the tiers this host's kernel tests exercise, so a
// test log shows which tiles a run held to the triple loop.
func TestTileTiers(t *testing.T) {
	t.Logf("tile tiers exercised: %v (this CPU runs %v)", tileKernels, hostTier)
	logTiersSkipped(t)
}

// TestTierFor is the CPUID gate as a table: a tier needs its instructions
// reported and every register state it uses saved by the OS.
func TestTierFor(t *testing.T) {
	const (
		avx2, avx512f = 1 << 5, 1 << 16
		xmmYMM        = 0x06
		all           = 0xE6 // XMM, YMM, opmask, ZMM_Hi256, Hi16_ZMM
	)
	for _, c := range []struct {
		what    string
		ebx     uint32
		osxsave bool
		xcr0    uint32
		want    tier
	}{
		{"nothing reported", 0, true, all, tierPortable},
		{"AVX2, OS saves YMM", avx2, true, xmmYMM, tierAVX2},
		{"AVX2 without OSXSAVE", avx2, false, all, tierPortable},
		{"AVX2, OS saves XMM only", avx2, true, 0x02, tierPortable},
		{"AVX2, OS saves YMM only", avx2, true, 0x04, tierPortable},
		{"AVX2 and AVX-512F, OS saves every state", avx2 | avx512f, true, all, tierAVX512},
		{"AVX2 and AVX-512F, the states beside other bits", avx2 | avx512f | 1<<3, true, all | 1<<9, tierAVX512},
		{"AVX-512F reported, XCR0 lacks opmask and ZMM state", avx2 | avx512f, true, xmmYMM, tierAVX2},
		{"AVX-512F reported, XCR0 lacks opmask", avx2 | avx512f, true, all &^ (1 << 5), tierAVX2},
		{"AVX-512F reported, XCR0 lacks Hi16_ZMM", avx2 | avx512f, true, all &^ (1 << 7), tierAVX2},
		{"AVX-512F reported, XCR0 lacks ZMM_Hi256", avx2 | avx512f, true, all &^ (1 << 6), tierAVX2},
		{"AVX-512F without AVX2", avx512f, true, all, tierPortable},
		{"AVX-512F without OSXSAVE", avx2 | avx512f, false, all, tierPortable},
	} {
		if got := tierFor(c.ebx, c.osxsave, c.xcr0); got != c.want {
			t.Errorf("%s: tierFor(%#x, %t, %#x) = %v, want %v", c.what, c.ebx, c.osxsave, c.xcr0, got, c.want)
		}
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

// checkGEMMBits requires the three GEMM forms to reproduce the ascending-k
// triple loop for an m×k by k×n product, with every tile this host runs, on
// the serial path and on the striped one. aᵀ and bᵀ are exact copies, so one
// reference serves the transposed forms. nonFinite plants infinities and NaNs
// in a and b.
func checkGEMMBits(t *testing.T, seed int64, m, k, n int, nonFinite bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a, b := edgyMat(rng, m, k), edgyMat(rng, k, n)
	if nonFinite {
		plantNonFinite(rng, a)
		plantNonFinite(rng, b)
	}
	at, bt := a.Transpose(), b.Transpose()
	want := naiveMatMul(a, b)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tier := range tileKernels {
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			what := fmt.Sprintf("%dx%dx%d seed %d tier %v procs %d", m, k, n, seed, tier, procs)
			got := edgyMat(rng, m, n) // dirty: the overwriting forms must not read it
			stripes(gemmStripe, got, a, b, m, tier)
			requireSameBits(t, "MatMulInto "+what, want, got)
			got = edgyMat(rng, m, n)
			stripes(transAStripe, got, at, b, m, tier)
			requireSameBits(t, "MatMulTransAInto "+what, want, got)
			got = edgyMat(rng, m, n)
			stripes(transBStripe, got, a, bt, m, tier)
			requireSameBits(t, "MatMulTransBInto "+what, want, got)
		}
	}
}

// gemmBitsShapes hit every remainder of the tile (odd row; 1–3 columns after
// the vector tile's blocks of 16, 8 and 4), of the k passes (256 for MatMul,
// 64 for TransA's row panel at k = 63, 64 and 65, 128 for TransB's 16-wide
// stack panel) and both sides of the striping threshold, plus the empty
// inner dimension on the serial and the striped path. m = 1024 is a TransA
// panel of power-of-two width: 1024 columns at procs 1, 256 at procs 4. The
// last four are layer 1's weight gradient Pᵀ·G at the presets' feature
// widths (m = f, k = a rank's rows, below stripeMinRows and above it), which
// the trainer runs as MatMul over a transposed copy of P where TransA reads
// P itself: both must give the triple loop's bits.
var gemmBitsShapes = [][3]int{
	{1, 1, 1}, {2, 3, 4}, {3, 0, 5}, {1, 300, 70}, {7, 255, 3}, {8, 256, 8}, {9, 257, 9},
	{17, 513, 7}, {127, 31, 41}, {128, 16, 16}, {131, 602, 16}, {257, 64, 33}, {300, 260, 70},
	{32, 64, 17}, {33, 65, 15}, {63, 127, 12}, {65, 129, 24},
	{1024, 67, 3}, {160, 0, 9}, {77, 63, 16}, {129, 64, 17}, {201, 65, 16},
	{300, 37, 16}, {300, 260, 16}, {602, 127, 16}, {602, 129, 16},
}

// gemmBlockShapes cut the 8-row tile's blocks at every remainder: m on
// both sides of 8 and 16 rows, n whole 16-column blocks and a 41-class
// output's 2 blocks and 9 columns, k at the empty inner dimension, one
// product and both sides of MatMul's 256-deep pass (and of TransA's 64-deep
// and TransB's 128-deep ones); two more cross the 8-row tile's 1024-deep
// MatMul pass. m = 1023 and 1025 split into stripes of whole 8-row blocks
// at procs 4 with rows left over; they run at k ≤ 1 and at two deeper
// shapes across the TransA and TransB passes, because the denormals
// edgyMat plants cost a microcode assist per product and their whole cross
// product with k near 256 ran for two minutes.
var gemmBlockShapes = func() [][3]int {
	shapes := [][3]int{{1023, 65, 41}, {1025, 129, 16}, {9, 1025, 41}, {16, 2049, 32}}
	for _, m := range []int{7, 8, 9, 15, 17, 1023, 1025} {
		for _, n := range []int{16, 32, 41, 48} {
			for _, k := range []int{0, 1, 255, 256, 257} {
				if m < stripeMinRows || k <= 1 {
					shapes = append(shapes, [3]int{m, k, n})
				}
			}
		}
	}
	return shapes
}()

func TestGEMMBits(t *testing.T) {
	logTiersSkipped(t)
	for i, s := range append(gemmBitsShapes, gemmBlockShapes...) {
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
		logTiersSkipped(t)
		checkGEMMBits(t, seed, int(m)%300+1, int(k)%600, int(n)%70+1, nonFinite)
	})
}

// TestTileVectorMatchesPortable calls the two tiles by name on the same
// operands — every column count up to three 16-wide blocks and a remainder,
// strided and contiguous a, with and without add, including kn = 0 — and
// requires the same bits in both rows and nothing written past len(c0).
func TestTileVectorMatchesPortable(t *testing.T) {
	if hostTier < tierAVX2 {
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

// TestTile8MatchesPortable calls the 8-row tile and the portable tile by
// name on the same operands — one to three 16-column blocks, a's rows
// strided and contiguous (MatMul's and MatMulTransA's layouts), with and
// without add, including kn = 0 — and requires the same bits in all 8 rows
// and nothing written past each row's n columns.
func TestTile8MatchesPortable(t *testing.T) {
	if hostTier < tierAVX512 {
		t.Skip("no AVX-512F on this CPU: the 8-row tile is skipped")
	}
	rng := rand.New(rand.NewSource(13))
	const guard = 5
	for _, n := range []int{16, 32, 48} {
		for _, kn := range []int{0, 1, 7, 70} {
			for _, ab := range [][2]int{{kn + 3, 1}, {1, 11}} { // a's row stride, k stride
				rowA, lda := ab[0], ab[1]
				ldb := n + rng.Intn(3)
				a := edgyMat(rng, 1, 7*rowA+max(0, kn-1)*lda+1).Data
				b := edgyMat(rng, 1, max(0, (kn-1)*ldb+n)).Data
				plantNonFinite(rng, FromSlice(1, len(b), b))
				prior := edgyMat(rng, 8, n+guard)
				for _, add := range []bool{false, true} {
					want, got := prior.Clone(), prior.Clone()
					for r := 0; r < 8; r += 2 {
						tilePortable(want.Row(r)[:n], want.Row(r + 1)[:n], a[r*rowA:], a[(r+1)*rowA:], lda, kn, b, ldb, add)
					}
					tile8(got.Data, got.Cols, a, rowA, lda, kn, b, ldb, n, add)
					requireSameBits(t, fmt.Sprintf("n %d kn %d row stride %d k stride %d add %t", n, kn, rowA, lda, add), want, got)
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
		"MatMulInto": MatMulInto, "MatMulTransAInto": MatMulTransAInto, "MatMulTransBInto": MatMulTransBInto,
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
	mustNotAllocate(t, func() { MatMulTransAInto(c, at, b) })
	mustNotAllocate(t, func() { MatMulTransBInto(c, a, bt) })
}

// narrowShapes are a rank's rows of Â·X against a width-16 operand on
// reddit-sim (f = 602, 1024 rows) and amazon-sim (f = 300, 2048 rows): the
// full-batch forward Z¹ = (Â·X)·W¹ as m×k·k×n.
var narrowShapes = [][3]int{{1024, 602, 16}, {2048, 300, 16}}

// gradShapes are the full-batch layer-1 weight gradient Y¹ = (Â·X)ᵀ·G¹ as
// the trainer runs it: a MatMul over the set-up transpose of a rank's Â·X,
// f×rows · rows×16, the long inner dimension on the row panel's side.
var gradShapes = [][3]int{{602, 1024, 16}, {300, 2048, 16}}

// benchOperands is the number of distinct operand sets benchNarrow cycles
// through, one per rank of the benchmark's P = 4: a single reused operand
// stays in cache and hides the cost of reading it.
const benchOperands = 4

// benchNarrow runs every one of shapes at each tier this host runs, named
// by tier, cycling benchOperands operand sets drawn by
// shape from seeds 1, 2, ….
func benchNarrow(b *testing.B, shapes [][3]int, kernel stripeKernel, shape func(rng *rand.Rand, m, k, n int) (rows int, c, x, y *Matrix)) {
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		for _, tier := range tileKernels {
			b.Run(fmt.Sprintf("%dx%dx%d/%v", m, k, n, tier), func(b *testing.B) {
				var rows int
				var c, x, y [benchOperands]*Matrix
				for o := 0; o < benchOperands; o++ {
					rows, c[o], x[o], y[o] = shape(rand.New(rand.NewSource(int64(o+1))), m, k, n)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					o := i % benchOperands
					stripes(kernel, c[o], x[o], y[o], rows, tier)
				}
				b.ReportMetric(2*float64(m)*float64(k)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// gemmShape draws the operands of an m×k·k×n MatMul.
func gemmShape(rng *rand.Rand, m, k, n int) (int, *Matrix, *Matrix, *Matrix) {
	return m, New(m, n), randMat(rng, m, k), randMat(rng, k, n)
}

// BenchmarkGEMMNarrow is the forward Z¹ = (Â·X)·W¹.
func BenchmarkGEMMNarrow(b *testing.B) { benchNarrow(b, narrowShapes, gemmStripe, gemmShape) }

// BenchmarkGradNarrow is the full-batch layer-1 weight gradient: MatMul
// over the set-up transpose (Â·X)ᵀ, against G¹.
func BenchmarkGradNarrow(b *testing.B) { benchNarrow(b, gradShapes, gemmStripe, gemmShape) }

// BenchmarkTransANarrow is a weight gradient Pᵀ·G read through TransA at
// the narrow shapes: (Â·X)ᵀ·G¹ on the sampled chain, which keeps no
// transpose. Full-batch layer 1 runs BenchmarkGradNarrow's MatMul instead,
// and layers above 1 run TransA on width-16 operands.
func BenchmarkTransANarrow(b *testing.B) {
	benchNarrow(b, narrowShapes, transAStripe, func(rng *rand.Rand, m, k, n int) (int, *Matrix, *Matrix, *Matrix) {
		return k, New(k, n), randMat(rng, m, k), randMat(rng, m, n)
	})
}

// BenchmarkTransBNarrow is the backward's G¹·(W¹)ᵀ shape with the roles
// turned: an m×k by (n×k)ᵀ product, b copied transBCols rows at a time into
// the stack panel.
func BenchmarkTransBNarrow(b *testing.B) {
	benchNarrow(b, narrowShapes, transBStripe, func(rng *rand.Rand, m, k, n int) (int, *Matrix, *Matrix, *Matrix) {
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
		transAStripe(want, a, b, 0, a.Cols, hostTier)
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
