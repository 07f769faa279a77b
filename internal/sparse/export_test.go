package sparse

import "sagnn/internal/dense"

// Submatrix returns the induced submatrix m[rows, cols] as a new CSR; see
// SubmatrixInto.
func (m *CSR) Submatrix(rows, cols []int, colPos []int) *CSR {
	out := &CSR{}
	m.SubmatrixInto(out, rows, cols, colPos)
	return out
}

// ToDense materialises the matrix.
func (m *CSR) ToDense() *dense.Matrix {
	d := dense.New(m.NumRows, m.NumCols)
	for r := 0; r < m.NumRows; r++ {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			d.Set(r, m.ColIdx[p], m.Val[p])
		}
	}
	return d
}
