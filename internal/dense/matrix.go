// Package dense provides row-major dense matrices and the kernels needed by
// GCN training: GEMM, the row kernel of package sparse's SpMM, elementwise
// maps, the fused ReLU passes, and the row gather used by the
// sparsity-aware communication plans. It is the one package that holds
// assembly (the AVX2 and AVX-512 tiers of the GEMM tile, the AVX2 form of
// the SpMM row).
//
// All matrices are float64 and stored row-major in a single contiguous
// slice, so a row is a contiguous subslice and can be sent over the
// simulated network without copying column strides.
package dense

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// Matrix is a row-major dense matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// New returns a zero-initialised Rows×Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("dense: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("dense: FromSlice len %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// NewRandom returns a rows×cols matrix with entries drawn uniformly from
// [-scale, scale) using rng. Deterministic for a given rng state.
func NewRandom(rng *rand.Rand, rows, cols int, scale float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = (2*rng.Float64() - 1) * scale
	}
	return m
}

// NewGlorot returns a rows×cols matrix with Glorot/Xavier uniform
// initialisation, the scheme used by Kipf & Welling's GCN reference code.
func NewGlorot(rng *rand.Rand, rows, cols int) *Matrix {
	limit := math.Sqrt(6.0 / float64(rows+cols))
	return NewRandom(rng, rows, cols, limit)
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom overwrites m with o's contents; shapes must match. The in-place
// counterpart of Clone for preallocated workspaces.
func (m *Matrix) CopyFrom(o *Matrix) {
	m.mustSameShape(o)
	copy(m.Data, o.Data)
}

// Zero sets every element to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Equal reports whether m and o have identical shape and elements within tol.
func (m *Matrix) Equal(o *Matrix, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-o.Data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the max |m - o| over all elements; panics on shape
// mismatch.
func (m *Matrix) MaxAbsDiff(o *Matrix) float64 {
	m.mustSameShape(o)
	maxd := 0.0
	for i, v := range m.Data {
		if d := math.Abs(v - o.Data[i]); d > maxd {
			maxd = d
		}
	}
	return maxd
}

func (m *Matrix) mustSameShape(o *Matrix) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("dense: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// Add computes m += o element-wise.
func (m *Matrix) Add(o *Matrix) {
	m.mustSameShape(o)
	for i, v := range o.Data {
		m.Data[i] += v
	}
}

// Sub computes m -= o element-wise.
func (m *Matrix) Sub(o *Matrix) {
	m.mustSameShape(o)
	for i, v := range o.Data {
		m.Data[i] -= v
	}
}

// Scale multiplies every element by s.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AXPY computes m += a*o.
func (m *Matrix) AXPY(a float64, o *Matrix) {
	m.mustSameShape(o)
	for i, v := range o.Data {
		m.Data[i] += a * v
	}
}

// Apply maps f over every element in place.
func (m *Matrix) Apply(f func(float64) float64) {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
}

// ReLUInto overwrites d with σ(m) for σ = ReLU, m's entries that are below
// zero replaced by +0 and every other entry (−0 and NaN included) copied as
// it is; shapes must match. It is branch-free: the signs of pre-activations
// are random, so a compare-and-branch per element mispredicts about half the
// time.
func (m *Matrix) ReLUInto(d *Matrix) {
	m.mustSameShape(d)
	dst := d.Data
	src := m.Data[:len(dst)]
	for i := range dst {
		b := math.Float64bits(src[i])
		dst[i] = math.Float64frombits(b &^ lessMask(b-signBit-1, infBits)) // v < 0
	}
}

// HadamardReLUDeriv computes m *= σ′(z) element-wise for σ = ReLU, σ′(z)
// being 1 where z > 0 and 0 elsewhere (−0 and NaN included) — the ⊙ in the
// paper's backward pass G^{l−1} ← A G^l (W^l)ᵀ ⊙ σ′(Z^{l−1}). Each entry is
// multiplied by that 1 or 0, so an infinite or NaN gradient times 0 is NaN
// and a negative one times 0 is −0; shapes must match. Branch-free, as
// ReLUInto.
func (m *Matrix) HadamardReLUDeriv(z *Matrix) {
	m.mustSameShape(z)
	dst := m.Data
	src := z.Data[:len(dst)]
	for i := range dst {
		b := math.Float64bits(src[i])
		dst[i] *= math.Float64frombits(lessMask(b-1, infBits) & oneBits) // z > 0
	}
}

// The float64 bits the ReLU passes compare. Read as unsigned integers, the
// bits of the floats above zero are exactly (0, infBits] and those below
// zero exactly (signBit, signBit+infBits]; ±0 and the NaNs lie outside both.
const (
	signBit = 1 << 63
	infBits = 0x7ff0_0000_0000_0000 // +Inf
	oneBits = 0x3ff0_0000_0000_0000 // 1.0
)

// lessMask returns all ones when x < y as unsigned integers and zero
// otherwise, without a branch.
func lessMask(x, y uint64) uint64 {
	_, borrow := bits.Sub64(x, y, 0)
	return -borrow
}

// GatherRowsInto packs m.Row(idx[k]) into dst[k*Cols : (k+1)*Cols] for every
// k: the pack step of sparsity-aware communication, which collects exactly
// the rows of H a remote process requested, without allocating. dst must
// have length len(idx)*Cols.
func (m *Matrix) GatherRowsInto(dst []float64, idx []int) {
	if len(dst) != len(idx)*m.Cols {
		panic(fmt.Sprintf("dense: GatherRowsInto dst len %d, want %d rows × %d cols", len(dst), len(idx), m.Cols))
	}
	for k, i := range idx {
		copy(dst[k*m.Cols:(k+1)*m.Cols], m.Row(i))
	}
}

// SliceRows returns rows [lo, hi) as a matrix aliasing m's storage.
func (m *Matrix) SliceRows(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("dense: SliceRows [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// Aliased reports whether a and b start at the same element: an output that
// shares an operand's backing array from its first element on, which every
// kernel rejects, since it would read rows it has already overwritten.
func Aliased(a, b *Matrix) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

// PermuteRows returns a new matrix whose row perm[i] is m's row i
// (i.e. new[perm[i]] = old[i]), matching the "relabel vertex i as perm[i]"
// convention used by the partitioners.
func (m *Matrix) PermuteRows(perm []int) *Matrix { return m.PermutedRows(perm, 0, m.Rows) }

// PermutedRows returns rows [lo, hi) of m.PermuteRows(perm) without building
// the rest: the rows a process keeps of a permuted matrix it holds only a
// block of.
func (m *Matrix) PermutedRows(perm []int, lo, hi int) *Matrix {
	if len(perm) != m.Rows {
		panic(fmt.Sprintf("dense: PermuteRows perm len %d != rows %d", len(perm), m.Rows))
	}
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("dense: PermutedRows [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	out := New(hi-lo, m.Cols)
	for i, p := range perm {
		if p >= lo && p < hi {
			copy(out.Row(p-lo), m.Row(i))
		}
	}
	return out
}

// CopyCols copies w columns of src, from column sc on, into dst's columns
// from dc on, row by row; dst and src have the same row count. It moves a
// column panel in or out of a matrix (dense storage has no column view).
func CopyCols(dst *Matrix, dc int, src *Matrix, sc, w int) {
	if dst.Rows != src.Rows || dc < 0 || sc < 0 || w < 0 || dc+w > dst.Cols || sc+w > src.Cols {
		panic(fmt.Sprintf("dense: CopyCols %d columns from %dx%d at %d into %dx%d at %d", w, src.Rows, src.Cols, sc, dst.Rows, dst.Cols, dc))
	}
	for i := 0; i < dst.Rows; i++ {
		copy(dst.Data[i*dst.Cols+dc:i*dst.Cols+dc+w], src.Data[i*src.Cols+sc:i*src.Cols+sc+w])
	}
}

// Grow resizes *buf to n elements and returns it, reallocating only when
// its capacity is short: the one grow rule of every reused buffer. A buffer's
// first allocation (from no capacity) is exact, so a buffer that only ever
// holds one shape — a full-batch epoch's, a serving table's — holds no
// more than it needs. A later one takes at least 5/4 of n, so a buffer whose
// requests creep upward — a sampled step's, sized by its frontier —
// reallocates a few times rather than at every new high. Contents are
// unspecified after a grow; callers overwrite.
func Grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		c := n
		if cap(*buf) > 0 {
			c += (n + 3) / 4
		}
		*buf = make([]T, n, c)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Reshape resizes m to rows×cols in place, its data by Grow, and returns it;
// a nil m is a new matrix. It is the grow-only buffer discipline of the
// training, serving and subset workspaces. Contents are unspecified after a
// reshape; callers overwrite.
func Reshape(m *Matrix, rows, cols int) *Matrix {
	if m == nil {
		return New(rows, cols)
	}
	Grow(&m.Data, rows*cols)
	m.Rows, m.Cols = rows, cols
	return m
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 400 {
		return fmt.Sprintf("dense.Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := ""
	for i := 0; i < m.Rows; i++ {
		s += fmt.Sprintf("%8.4f\n", m.Row(i))
	}
	return s
}
