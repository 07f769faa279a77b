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

// spmmKernels are the row kernels this host runs, as spmm's vector
// argument: the portable loop, and the vector row where the CPU has AVX2.
var spmmKernels = func() []bool {
	if dense.VectorKernels() {
		return []bool{false, true}
	}
	return []bool{false}
}()

// checkSpMMBits requires the overwriting and the accumulating SpMM to
// reproduce the plain loop at width f, with every row kernel this host runs,
// on the serial path and on the nnz-striped one.
func checkSpMMBits(t *testing.T, seed int64, m *CSR, f int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h, prior := edgyDense(rng, m.NumCols, f), edgyDense(rng, m.NumRows, f)
	want := dense.New(m.NumRows, f)
	naiveSpMMAdd(want, m, h)
	wantAdd := prior.Clone()
	naiveSpMMAdd(wantAdd, m, h)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, vector := range spmmKernels {
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			what := fmt.Sprintf("%dx%d nnz %d width %d seed %d vector %t procs %d", m.NumRows, m.NumCols, m.NNZ(), f, seed, vector, procs)
			got := edgyDense(rng, m.NumRows, f) // dirty: the overwriting form must not read it
			m.spmm(got, h, false, nil, nil, vector)
			requireSameBits(t, "SpMMInto "+what, want, got)
			got.CopyFrom(prior)
			m.spmm(got, h, true, nil, nil, vector)
			requireSameBits(t, "SpMMAddInto "+what, wantAdd, got)
		}
	}
}

// TestSpMMBits runs widths that hit every mix of the vector row's 16-, 8-
// and 4-column blocks and its 1–3 column tail, and of the portable row's
// 8-column strips and 1–7 column tail.
func TestSpMMBits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	small, hub := hubMatrix(rng, 37, 50, false), hubMatrix(rng, 300, 12000, true)
	for i, f := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 20, 32, 33, 41, 64} {
		checkSpMMBits(t, int64(i), small, f)
		checkSpMMBits(t, int64(i), hub, f)
	}
}

func FuzzSpMMBits(f *testing.F) {
	f.Add(int64(1), uint16(5), uint16(9), uint8(16))
	f.Add(int64(2), uint16(299), uint16(40), uint8(41))
	f.Add(int64(3), uint16(257), uint16(7), uint8(27))
	f.Fuzz(func(t *testing.T, seed int64, rows, cols uint16, width uint8) {
		m := hubMatrix(rand.New(rand.NewSource(seed)), int(rows)%400+1, int(cols)%200+1, false)
		checkSpMMBits(t, seed, m, int(width)%70+1)
	})
}

// badColumnMatrix is rows×cols with three nonzeros a row, the last row's
// last one at column bad.
func badColumnMatrix(rows, cols, bad int) *CSR {
	m := &CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int, rows+1)}
	for r := 0; r < rows; r++ {
		for k := 0; k < 3; k++ {
			m.ColIdx = append(m.ColIdx, (r+k)%cols)
			m.Val = append(m.Val, 1)
		}
		m.RowPtr[r+1] = len(m.ColIdx)
	}
	m.ColIdx[len(m.ColIdx)-1] = bad
	return m
}

// TestSpMMRejectsOutOfRangeColumn: a hand-built CSR with a column index of
// h.Rows or −1 panics under every row kernel, on the serial path and the
// striped one, at widths that end in each kind of block. The portable row
// gets this from Go's bounds checks; the vector row must check it itself,
// or it reads outside h.
func TestSpMMRejectsOutOfRangeColumn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const cols = 40
	for _, vector := range spmmKernels {
		for _, rows := range []int{10, 300} {
			for _, bad := range []int{cols, -1} {
				for _, f := range []int{1, 4, 8, 16, 41} {
					m := badColumnMatrix(rows, cols, bad)
					h, out := dense.New(cols, f), dense.New(rows, f)
					for _, add := range []bool{false, true} {
						func() {
							defer func() {
								if recover() == nil {
									t.Errorf("vector %t rows %d column %d width %d add %t: no panic", vector, rows, bad, f, add)
								}
							}()
							m.spmm(out, h, add, nil, nil, vector)
						}()
					}
				}
			}
		}
	}
}

// TestSpMMRejectsAliasedOutput: SpMMInto and SpMMAddInto panic when out
// starts at h's first element, where a square product would read rows it
// has already overwritten.
func TestSpMMRejectsAliasedOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := hubMatrix(rng, 20, 20, false)
	h := edgyDense(rng, 20, 8)
	for name, form := range map[string]func(out, h *dense.Matrix){"SpMMInto": m.SpMMInto, "SpMMAddInto": m.SpMMAddInto} {
		for _, out := range []*dense.Matrix{h, dense.FromSlice(20, 8, h.Data)} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s into its own operand did not panic", name)
					}
				}()
				form(out, h)
			}()
		}
	}
}

// TestSpMMSerialPathAllocatesNothing: on the serial path neither form
// allocates, under every row kernel this host runs.
func TestSpMMSerialPathAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(4))
	m := hubMatrix(rng, 300, 500, false)
	h, out := edgyDense(rng, 500, 41), dense.New(300, 41)
	for _, vector := range spmmKernels {
		for _, add := range []bool{false, true} {
			if allocs := testing.AllocsPerRun(10, func() { m.spmm(out, h, add, nil, nil, vector) }); allocs != 0 {
				t.Fatalf("SpMM (add %t, vector %t) allocates %v times on the serial path, want 0", add, vector, allocs)
			}
		}
	}
}

// BenchmarkSpMMNarrow is one rank's block of a full-batch epoch's SpMM on
// reddit-sim P = 4 — 1024 rows of ~71 nonzeros against a 4096-row H — at the
// hidden width and at the class width, with each row kernel this host runs,
// the portable one as "scalar".
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
		for _, vector := range spmmKernels {
			kernel := "scalar"
			if vector {
				kernel = "vector"
			}
			b.Run(fmt.Sprintf("%d/%s", f, kernel), func(b *testing.B) {
				h, out := dense.NewRandom(rng, m.NumCols, f, 1.0), dense.New(m.NumRows, f)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.spmm(out, h, false, nil, nil, vector)
				}
				b.ReportMetric(float64(m.Flops(f))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// pairOperands is a local multiply shaped like one rank's Algorithm 1
// product: a diagonal block against h, and peer blocks — one empty, one with
// no columns (a silent partner), the rest hubMatrix-shaped — merged side by
// side against their stacked rows in g. It returns the peer blocks and the
// dense row block of g each one reads.
func pairOperands(rng *rand.Rand, rows, f int, hub bool) (diag *CSR, h *dense.Matrix, peers []*CSR, hs []*dense.Matrix) {
	diag, h = hubMatrix(rng, rows, 60, hub), edgyDense(rng, 60, f)
	for j, cols := range []int{40, 0, 13, 7000} {
		b := hubMatrix(rng, rows, cols, false)
		if j == 0 {
			b = &CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int, rows+1)}
		}
		peers = append(peers, b)
		hs = append(hs, edgyDense(rng, cols, f))
	}
	return diag, h, peers, hs
}

// stack is hs one above another: the halo the merged peer blocks read.
func stack(hs []*dense.Matrix, f int) *dense.Matrix {
	var data []float64
	for _, m := range hs {
		data = append(data, m.Data...)
	}
	return dense.FromSlice(len(data)/f, f, data)
}

// TestSpMMPairBits: the two-operand pass over a diagonal block and the
// merged peer blocks reproduces Zero, then the diagonal block's adds, then
// each peer block's adds in order, bit for bit — with every row kernel this
// host runs, serial and striped, including rows empty in either term and a
// second term with no entries at all.
func TestSpMMPairBits(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for seed, rows := range []int{37, 300} {
		for _, f := range []int{1, 5, 16, 17, 41} {
			rng := rand.New(rand.NewSource(int64(seed*100 + f)))
			diag, h, peers, hs := pairOperands(rng, rows, f, rows > 256)
			for _, drop := range []bool{false, true} {
				if drop { // no off-diagonal entries: every peer block empty
					for j := range peers {
						peers[j] = &CSR{NumRows: rows, NumCols: peers[j].NumCols, RowPtr: make([]int, rows+1)}
					}
				}
				want := dense.New(rows, f)
				naiveSpMMAdd(want, diag, h)
				for j, b := range peers {
					naiveSpMMAdd(want, b, hs[j])
				}
				merged, g := hconcat(rows, peers), stack(hs, f)
				for _, vector := range spmmKernels {
					for _, procs := range []int{1, 4} {
						runtime.GOMAXPROCS(procs)
						got := edgyDense(rng, rows, f) // dirty: the pass overwrites
						diag.spmm(got, h, false, merged, g, vector)
						requireSameBits(t, fmt.Sprintf("rows %d width %d empty peers %t vector %t procs %d", rows, f, drop, vector, procs), want, got)
					}
				}
			}
		}
	}
}

// TestSpMMPairSerialPathAllocatesNothing: the two-operand pass allocates
// nothing on the serial path, under every row kernel this host runs.
func TestSpMMPairSerialPathAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(5))
	diag, h, peers, hs := pairOperands(rng, 300, 41, false)
	merged, g, out := hconcat(300, peers), stack(hs, 41), dense.New(300, 41)
	for _, vector := range spmmKernels {
		if allocs := testing.AllocsPerRun(10, func() { diag.spmm(out, h, false, merged, g, vector) }); allocs != 0 {
			t.Fatalf("two-operand SpMM (vector %t) allocates %v times on the serial path, want 0", vector, allocs)
		}
	}
}

// hconcat returns blocks side by side as one rows-row CSR: row r is every
// block's row r in block order, each block's columns shifted past the
// columns of the blocks before it. Every block must have rows rows.
func hconcat(rows int, blocks []*CSR) *CSR {
	out := &CSR{NumRows: rows, RowPtr: make([]int, rows+1)}
	nnz := 0
	for _, b := range blocks {
		if b.NumRows != rows {
			panic(fmt.Sprintf("sparse: hconcat of a %d-row block into %d rows", b.NumRows, rows))
		}
		out.NumCols += b.NumCols
		nnz += b.NNZ()
	}
	out.ColIdx, out.Val = make([]int, 0, nnz), make([]float64, 0, nnz)
	for r := 0; r < rows; r++ {
		off := 0
		for _, b := range blocks {
			for p := b.RowPtr[r]; p < b.RowPtr[r+1]; p++ {
				out.ColIdx = append(out.ColIdx, off+b.ColIdx[p])
				out.Val = append(out.Val, b.Val[p])
			}
			off += b.NumCols
		}
		out.RowPtr[r+1] = len(out.ColIdx)
	}
	return out
}
