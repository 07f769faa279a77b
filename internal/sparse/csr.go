// Package sparse implements the compressed sparse row (CSR) matrices,
// block-row views, and SpMM kernels that underpin distributed full-batch
// GCN training. The key sparsity-aware primitive is NnzColsInRange: the set
// of nonzero column indices of a block A[i][j], which tells process i
// exactly which rows of the dense activation matrix H it must receive from
// process j.
package sparse

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"sagnn/internal/dense"
	"sagnn/internal/par"
)

// Coord is a single nonzero in coordinate (COO) form.
type Coord struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed sparse row matrix.
type CSR struct {
	NumRows, NumCols int
	RowPtr           []int     // len NumRows+1
	ColIdx           []int     // len NNZ, sorted within each row
	Val              []float64 // len NNZ
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// NewCSR builds a CSR matrix from COO triples, sorted by (row, col).
// Duplicate (row, col) entries are summed in input order: the first value,
// plus the second, plus the third, and so on. Out-of-range coordinates
// panic: they always indicate a construction bug upstream.
func NewCSR(rows, cols int, coords []Coord) *CSR {
	for _, c := range coords {
		if c.Row < 0 || c.Row >= rows || c.Col < 0 || c.Col >= cols {
			panic(fmt.Sprintf("sparse: coord (%d,%d) outside %dx%d", c.Row, c.Col, rows, cols))
		}
	}
	m := byColumns(rows, cols, len(coords), func(put func(r, c int, v float64)) {
		for _, c := range coords {
			put(c.Row, c.Col, c.Val)
		}
	})
	// Fold each run of equal columns into its first entry, compacting in place.
	n, lo := 0, 0
	for r := 0; r < rows; r++ {
		first, hi := n, m.RowPtr[r+1]
		for p := lo; p < hi; p++ {
			if n > first && m.ColIdx[n-1] == m.ColIdx[p] {
				m.Val[n-1] += m.Val[p]
				continue
			}
			m.ColIdx[n], m.Val[n] = m.ColIdx[p], m.Val[p]
			n++
		}
		lo, m.RowPtr[r+1] = hi, n
	}
	if n < len(coords) {
		m.ColIdx, m.Val = slices.Clone(m.ColIdx[:n]), slices.Clone(m.Val[:n])
	}
	return m
}

// byColumns builds a rows×cols CSR from the nnz entries scan hands to put,
// with two stable counting passes and no comparison sort. scan runs twice:
// once to count each column, once to scatter every entry into its column of
// a staging cols×rows transpose. Transposing that back leaves every row with
// ascending columns, and entries with equal coordinates next to each other
// in the order scan delivered them.
func byColumns(rows, cols, nnz int, scan func(put func(r, c int, v float64))) *CSR {
	st := &CSR{NumRows: cols, NumCols: rows, RowPtr: make([]int, cols+1), ColIdx: make([]int, nnz), Val: make([]float64, nnz)}
	scan(func(_, c int, _ float64) { st.RowPtr[c+1]++ })
	for c := 0; c < cols; c++ {
		st.RowPtr[c+1] += st.RowPtr[c]
	}
	next := slices.Clone(st.RowPtr[:cols])
	scan(func(r, c int, v float64) {
		st.ColIdx[next[c]], st.Val[next[c]] = r, v
		next[c]++
	})
	return st.Transpose()
}

// FromEdges builds an n×n CSR adjacency matrix with Val=1.0 for each edge.
func FromEdges(n int, edges [][2]int) *CSR {
	coords := make([]Coord, len(edges))
	for i, e := range edges {
		coords[i] = Coord{Row: e[0], Col: e[1], Val: 1}
	}
	return NewCSR(n, n, coords)
}

// ToCoords returns the matrix contents in COO form, sorted by (row, col).
func (m *CSR) ToCoords() []Coord {
	out := make([]Coord, 0, m.NNZ())
	for r := 0; r < m.NumRows; r++ {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			out = append(out, Coord{Row: r, Col: m.ColIdx[p], Val: m.Val[p]})
		}
	}
	return out
}

// At returns element (i, j), zero if not stored. O(log nnz(row)).
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	p := lo + sort.SearchInts(m.ColIdx[lo:hi], j)
	if p < hi && m.ColIdx[p] == j {
		return m.Val[p]
	}
	return 0
}

// RowNNZ returns the number of nonzeros in row i.
func (m *CSR) RowNNZ(i int) int { return m.RowPtr[i+1] - m.RowPtr[i] }

// Transpose returns mᵀ via a counting pass (no sort needed).
func (m *CSR) Transpose() *CSR {
	t := &CSR{}
	m.TransposeInto(t, nil)
	return t
}

// TransposeInto computes mᵀ into a reusable destination: dst's slices grow
// by dense.Grow and are reused across calls, so steady-state transposition of
// same-shaped matrices allocates nothing. next, when non-nil, must be a
// scratch slice of length ≥ NumCols; a nil next allocates a fresh one.
func (m *CSR) TransposeInto(dst *CSR, next []int) {
	dst.NumRows, dst.NumCols = m.NumCols, m.NumRows
	dense.Grow(&dst.RowPtr, m.NumCols+1)
	dense.Grow(&dst.ColIdx, m.NNZ())
	dense.Grow(&dst.Val, m.NNZ())
	for i := range dst.RowPtr {
		dst.RowPtr[i] = 0
	}
	for _, c := range m.ColIdx {
		dst.RowPtr[c+1]++
	}
	for i := 0; i < m.NumCols; i++ {
		dst.RowPtr[i+1] += dst.RowPtr[i]
	}
	if next == nil {
		next = make([]int, m.NumCols)
	}
	copy(next[:m.NumCols], dst.RowPtr[:m.NumCols])
	for r := 0; r < m.NumRows; r++ {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			c := m.ColIdx[p]
			q := next[c]
			dst.ColIdx[q] = r
			dst.Val[q] = m.Val[p]
			next[c]++
		}
	}
}

// IsSymmetric reports whether the matrix equals its transpose, within tol.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.NumRows != m.NumCols {
		return false
	}
	t := m.Transpose()
	if t.NNZ() != m.NNZ() {
		return false
	}
	for i := range m.ColIdx {
		if m.ColIdx[i] != t.ColIdx[i] {
			return false
		}
		d := m.Val[i] - t.Val[i]
		if d < -tol || d > tol {
			return false
		}
	}
	for i := range m.RowPtr {
		if m.RowPtr[i] != t.RowPtr[i] {
			return false
		}
	}
	return true
}

// PermuteSymmetric returns P·m·Pᵀ where vertex i is relabelled perm[i]
// (new index = perm[old index]). This is the symmetric permutation applied
// after graph partitioning so each part's vertices become a contiguous
// block-row range.
func (m *CSR) PermuteSymmetric(perm []int) *CSR {
	if m.NumRows != m.NumCols {
		panic("sparse: PermuteSymmetric on non-square matrix")
	}
	if len(perm) != m.NumRows {
		panic(fmt.Sprintf("sparse: perm len %d != %d", len(perm), m.NumRows))
	}
	// A permutation maps no two entries to one coordinate, so the order the
	// old rows are visited in cannot show.
	return byColumns(m.NumRows, m.NumCols, m.NNZ(), func(put func(r, c int, v float64)) {
		for r := 0; r < m.NumRows; r++ {
			for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
				put(perm[r], perm[m.ColIdx[p]], m.Val[p])
			}
		}
	})
}

// RowBlock returns rows [lo, hi) of m as a standalone (hi-lo)×NumCols CSR.
func (m *CSR) RowBlock(lo, hi int) *CSR {
	if lo < 0 || hi > m.NumRows || lo > hi {
		panic(fmt.Sprintf("sparse: RowBlock [%d,%d) of %d", lo, hi, m.NumRows))
	}
	b := &CSR{
		NumRows: hi - lo,
		NumCols: m.NumCols,
		RowPtr:  make([]int, hi-lo+1),
	}
	start, end := m.RowPtr[lo], m.RowPtr[hi]
	b.ColIdx = append([]int(nil), m.ColIdx[start:end]...)
	b.Val = append([]float64(nil), m.Val[start:end]...)
	for r := lo; r <= hi; r++ {
		b.RowPtr[r-lo] = m.RowPtr[r] - start
	}
	return b
}

// ColRange is a half-open column interval [Lo, Hi) defining a block column.
type ColRange struct{ Lo, Hi int }

// NnzColsInRange returns the sorted distinct column indices of m that fall
// in [cr.Lo, cr.Hi), rebased to the range (i.e. minus cr.Lo). For a local
// block row Aᵀ_i this is exactly NnzCols(i, j) from the paper: the rows of
// H_j that process i needs.
func (m *CSR) NnzColsInRange(cr ColRange) []int {
	width := cr.Hi - cr.Lo
	if width < 0 {
		panic(fmt.Sprintf("sparse: bad ColRange [%d,%d)", cr.Lo, cr.Hi))
	}
	seen := make([]bool, width)
	count := 0
	for _, c := range m.ColIdx {
		if c >= cr.Lo && c < cr.Hi && !seen[c-cr.Lo] {
			seen[c-cr.Lo] = true
			count++
		}
	}
	out := make([]int, 0, count)
	for c, s := range seen {
		if s {
			out = append(out, c)
		}
	}
	return out
}

// SubmatrixInto writes the induced submatrix m[rows, cols] into dst as a
// standalone len(rows)×len(cols) CSR. Both index lists must be strictly
// increasing and in range, and cols must cover every stored column of the
// selected rows — the caller supplies exactly the receptive field, as an
// L-hop frontier expansion produces it. Because both lists are monotone,
// every selected row keeps its nonzeros in the original order with the
// original values, which is what makes subset inference bit-identical to
// full-batch inference row by row.
//
// colPos, when non-nil, must be a scratch slice of length ≥ NumCols filled
// with -1; it is used and restored before returning, so callers can
// amortise the O(NumCols) map across many calls. A nil colPos allocates a
// fresh scratch. dst's slices grow by dense.Grow and are reused across
// calls, so steady-state extraction of same-sized receptive fields
// allocates nothing.
func (m *CSR) SubmatrixInto(dst *CSR, rows, cols []int, colPos []int) {
	if colPos == nil {
		colPos = make([]int, m.NumCols)
		for i := range colPos {
			colPos[i] = -1
		}
	}
	for i, c := range cols {
		if c < 0 || c >= m.NumCols || (i > 0 && cols[i-1] >= c) {
			panic(fmt.Sprintf("sparse: Submatrix cols not strictly increasing in [0,%d) at %d", m.NumCols, c))
		}
		colPos[c] = i
	}
	nnz := 0
	for i, r := range rows {
		if r < 0 || r >= m.NumRows || (i > 0 && rows[i-1] >= r) {
			panic(fmt.Sprintf("sparse: Submatrix rows not strictly increasing in [0,%d) at %d", m.NumRows, r))
		}
		nnz += m.RowNNZ(r)
	}
	dst.NumRows, dst.NumCols = len(rows), len(cols)
	dense.Grow(&dst.RowPtr, len(rows)+1)
	dense.Grow(&dst.ColIdx, nnz)
	dense.Grow(&dst.Val, nnz)
	q := 0
	dst.RowPtr[0] = 0
	for i, r := range rows {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			nc := colPos[m.ColIdx[p]]
			if nc < 0 {
				panic(fmt.Sprintf("sparse: Submatrix row %d has column %d outside cols", r, m.ColIdx[p]))
			}
			dst.ColIdx[q] = nc
			dst.Val[q] = m.Val[p]
			q++
		}
		dst.RowPtr[i+1] = q
	}
	for _, c := range cols {
		colPos[c] = -1
	}
}

// ExtractBlock returns the submatrix of rows [rows.Lo, rows.Hi) and columns
// [cols.Lo, cols.Hi) as a standalone CSR with rebased indices.
func (m *CSR) ExtractBlock(rows, cols ColRange) *CSR {
	b := &CSR{
		NumRows: rows.Hi - rows.Lo,
		NumCols: cols.Hi - cols.Lo,
		RowPtr:  make([]int, rows.Hi-rows.Lo+1),
	}
	for r := rows.Lo; r < rows.Hi; r++ {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			c := m.ColIdx[p]
			if c >= cols.Lo && c < cols.Hi {
				b.ColIdx = append(b.ColIdx, c-cols.Lo)
				b.Val = append(b.Val, m.Val[p])
			}
		}
		b.RowPtr[r-rows.Lo+1] = len(b.ColIdx)
	}
	return b
}

// SpMM computes m × h into a new dense matrix.
func (m *CSR) SpMM(h *dense.Matrix) *dense.Matrix {
	out := dense.New(m.NumRows, h.Cols)
	m.SpMMInto(out, h)
	return out
}

// SpMMInto computes out = m × h, overwriting out — the allocation-free form
// of SpMM for preallocated workspaces. out must be m.NumRows × h.Cols and
// must not alias h (a square product would read rows it has already
// overwritten): an out that starts at h's first element panics.
func (m *CSR) SpMMInto(out, h *dense.Matrix) { m.spmm(out, h, false, nil, nil, dense.VectorKernels()) }

// SpMMAddInto computes out += m × h. Same shapes as SpMMInto.
func (m *CSR) SpMMAddInto(out, h *dense.Matrix) {
	m.spmm(out, h, true, nil, nil, dense.VectorKernels())
}

// SpMMPairInto computes out = m × h + b × g in one pass over out's rows:
// each row's products against h, then the same row's products against g,
// in ascending position. The bits are those of SpMMInto(out, h) followed by
// b.SpMMAddInto(out, g), with one fan-out and one write of each row instead
// of two. b must have out.Rows rows and g out.Cols columns; out must alias
// neither h nor g.
func (m *CSR) SpMMPairInto(out, h *dense.Matrix, b *CSR, g *dense.Matrix) {
	m.spmm(out, h, false, b, g, dense.VectorKernels())
}

// spmm runs the row stripes of out (+)= m × h, plus b × g after each row's
// first product when b is non-nil, one stripe per worker, each stripe owning
// its rows of out. Stripes hold equal shares of the nonzeros, not of the
// rows, so a hub row does not fall to one worker whole. vector picks the
// row kernel's vector form; the callers pass dense.VectorKernels(), the
// tests both.
func (m *CSR) spmm(out, h *dense.Matrix, add bool, b *CSR, g *dense.Matrix, vector bool) {
	if m.NumCols != h.Rows || out.Rows != m.NumRows || out.Cols != h.Cols {
		panic(fmt.Sprintf("sparse: SpMM %dx%d × %dx%d into %dx%d", m.NumRows, m.NumCols, h.Rows, h.Cols, out.Rows, out.Cols))
	}
	if dense.Aliased(out, h) {
		panic("sparse: SpMM output aliases its dense operand")
	}
	if b != nil {
		if b.NumCols != g.Rows || b.NumRows != out.Rows || g.Cols != out.Cols {
			panic(fmt.Sprintf("sparse: SpMM second term %dx%d × %dx%d into %dx%d", b.NumRows, b.NumCols, g.Rows, g.Cols, out.Rows, out.Cols))
		}
		if dense.Aliased(out, g) {
			panic("sparse: SpMM output aliases its dense operand")
		}
	}
	workers := par.Workers()
	if m.NumRows < 256 || workers == 1 {
		m.spmmStripe(out, h, 0, m.NumRows, add, b, g, vector)
		return
	}
	// bound(w) is where stripe w starts: the first row whose nonzeros (both
	// terms') begin at or past w/workers of them.
	total := m.NNZ()
	if b != nil {
		total += b.NNZ()
	}
	bound := func(w int) int {
		if w == workers {
			return m.NumRows
		}
		return sort.Search(m.NumRows, func(r int) bool {
			before := m.RowPtr[r]
			if b != nil {
				before += b.RowPtr[r]
			}
			return before >= total*w/workers
		})
	}
	par.For(workers, func(w int) {
		if lo, hi := bound(w), bound(w+1); lo < hi {
			m.spmmStripe(out, h, lo, hi, add, b, g, vector)
		}
	})
}

// spmmStripe is rows [lo,hi) of out (+)= m × h (+ b × g), one or two
// dense.SpMMRow calls per row: the second continues the sums the first left.
func (m *CSR) spmmStripe(out, h *dense.Matrix, lo, hi int, add bool, b *CSR, g *dense.Matrix, vector bool) {
	for r := lo; r < hi; r++ {
		o := out.Row(r)
		start, end := m.RowPtr[r], m.RowPtr[r+1]
		dense.SpMMRow(vector, o, m.Val[start:end], m.ColIdx[start:end], h, add)
		if b != nil {
			if start, end = b.RowPtr[r], b.RowPtr[r+1]; start < end {
				dense.SpMMRow(vector, o, b.Val[start:end], b.ColIdx[start:end], g, true)
			}
		}
	}
}

// Flops returns the floating-point operation count of one SpMM with a dense
// operand of width f: 2·nnz·f (one multiply + one add per nonzero per
// column).
func (m *CSR) Flops(f int) int64 { return 2 * int64(m.NNZ()) * int64(f) }

// Scale multiplies all stored values by s, in place.
func (m *CSR) Scale(s float64) {
	for i := range m.Val {
		m.Val[i] *= s
	}
}

// Clone returns a deep copy.
func (m *CSR) Clone() *CSR {
	return &CSR{
		NumRows: m.NumRows,
		NumCols: m.NumCols,
		RowPtr:  append([]int(nil), m.RowPtr...),
		ColIdx:  append([]int(nil), m.ColIdx...),
		Val:     append([]float64(nil), m.Val...),
	}
}

// NewRandom returns an n×n matrix with each off-diagonal entry present
// independently with probability p (Erdős–Rényi). Values are 1.0.
func NewRandom(rng *rand.Rand, n int, p float64) *CSR {
	var coords []Coord
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < p {
				coords = append(coords, Coord{Row: i, Col: j, Val: 1})
			}
		}
	}
	return NewCSR(n, n, coords)
}
