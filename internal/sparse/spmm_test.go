package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"sagnn/internal/dense"
)

// naiveSpMMAdd is the reference the kernels must equal bit for bit: each
// element of out continued with its row's products in ascending CSR position.
func naiveSpMMAdd(out *dense.Matrix, m *CSR, h *dense.Matrix) {
	for r := 0; r < m.NumRows; r++ {
		for j := 0; j < h.Cols; j++ {
			s := out.At(r, j)
			for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
				s += m.Val[p] * h.At(m.ColIdx[p], j)
			}
			out.Set(r, j, s)
		}
	}
}

// edgy draws normals mixed with ±0 and denormals.
func edgy(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Float64frombits(uint64(rng.Int63n(1 << 52)))
	case 3:
		return -math.Float64frombits(uint64(rng.Int63n(1 << 52)))
	}
	return rng.NormFloat64()
}

func edgyDense(rng *rand.Rand, r, c int) *dense.Matrix {
	m := dense.New(r, c)
	for i := range m.Data {
		m.Data[i] = edgy(rng)
	}
	return m
}

// hubMatrix is rows×cols with empty rows, short rows and, when hub is set, one
// row of 10 000 stored entries —
// the row that a split by row count would hand one worker whole.
func hubMatrix(rng *rand.Rand, rows, cols int, hub bool) *CSR {
	m := &CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int, rows+1)}
	for r := 0; r < rows; r++ {
		nnz := rng.Intn(21) * rng.Intn(3) // a third of the rows are empty, the rest straddle nnzBlock
		if hub && r == rows/3 {
			nnz = 10000
		}
		nnz = min(nnz, cols)
		picked := rng.Perm(cols)[:nnz]
		sort.Ints(picked)
		for _, c := range picked {
			m.ColIdx = append(m.ColIdx, c)
			m.Val = append(m.Val, edgy(rng))
		}
		m.RowPtr[r+1] = len(m.ColIdx)
	}
	return m
}

func requireSameBits(t *testing.T, what string, want, got *dense.Matrix) {
	t.Helper()
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			t.Fatalf("%s: element (%d,%d) = %x (%g), want %x (%g)", what, i/want.Cols, i%want.Cols,
				math.Float64bits(got.Data[i]), got.Data[i], math.Float64bits(v), v)
		}
	}
}

// checkSpMMBits requires SpMMInto and SpMMAddInto to reproduce the plain loop
// at width f, on the serial path and on the nnz-striped one.
func checkSpMMBits(t *testing.T, seed int64, m *CSR, f int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h, prior := edgyDense(rng, m.NumCols, f), edgyDense(rng, m.NumRows, f)
	want := dense.New(m.NumRows, f)
	naiveSpMMAdd(want, m, h)
	wantAdd := prior.Clone()
	naiveSpMMAdd(wantAdd, m, h)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		what := fmt.Sprintf("%dx%d nnz %d width %d seed %d procs %d", m.NumRows, m.NumCols, m.NNZ(), f, seed, procs)
		got := edgyDense(rng, m.NumRows, f) // dirty: the overwriting form must not read it
		m.SpMMInto(got, h)
		requireSameBits(t, "SpMMInto "+what, want, got)
		got.CopyFrom(prior)
		m.SpMMAddInto(got, h)
		requireSameBits(t, "SpMMAddInto "+what, wantAdd, got)
	}
}

func TestSpMMBits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	small, hub := hubMatrix(rng, 37, 50, false), hubMatrix(rng, 300, 12000, true)
	for i, f := range []int{1, 7, 8, 16, 41, 64} {
		checkSpMMBits(t, int64(i), small, f)
		checkSpMMBits(t, int64(i), hub, f)
	}
}

func FuzzSpMMBits(f *testing.F) {
	f.Add(int64(1), uint16(5), uint16(9), uint8(16))
	f.Add(int64(2), uint16(299), uint16(40), uint8(41))
	f.Fuzz(func(t *testing.T, seed int64, rows, cols uint16, width uint8) {
		m := hubMatrix(rand.New(rand.NewSource(seed)), int(rows)%400+1, int(cols)%200+1, false)
		checkSpMMBits(t, seed, m, int(width)%70+1)
	})
}

// TestSpMMSerialPathAllocatesNothing: on the serial path neither form
// allocates.
func TestSpMMSerialPathAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(4))
	m := hubMatrix(rng, 300, 500, false)
	h, out := edgyDense(rng, 500, 41), dense.New(300, 41)
	for _, fn := range []func(){func() { m.SpMMInto(out, h) }, func() { m.SpMMAddInto(out, h) }} {
		if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
			t.Fatalf("SpMM allocates %v times on the serial path, want 0", allocs)
		}
	}
}

// BenchmarkSpMMNarrow is one rank's block of a full-batch epoch's SpMM on
// reddit-sim P = 4 — 1024 rows of ~71 nonzeros against a 4096-row H — at the
// hidden width and at the class width.
func BenchmarkSpMMNarrow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := &CSR{NumRows: 1024, NumCols: 4096, RowPtr: make([]int, 1025)}
	for r := 0; r < m.NumRows; r++ {
		for k := 0; k < 71; k++ {
			m.ColIdx = append(m.ColIdx, rng.Intn(m.NumCols))
			m.Val = append(m.Val, rng.NormFloat64())
		}
		m.RowPtr[r+1] = len(m.ColIdx)
	}
	for _, f := range []int{16, 41} {
		b.Run(fmt.Sprint(f), func(b *testing.B) {
			h, out := dense.NewRandom(rng, m.NumCols, f, 1.0), dense.New(m.NumRows, f)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.SpMMInto(out, h)
			}
			b.ReportMetric(float64(m.Flops(f))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
