package dense

// MatMul returns a×b.
func MatMul(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Cols)
	MatMulInto(c, a, b)
	return c
}

// MatMulTransA returns aᵀ×b.
func MatMulTransA(a, b *Matrix) *Matrix {
	c := New(a.Cols, b.Cols)
	MatMulTransAInto(c, a, b)
	return c
}

// MatMulTransB returns a×bᵀ.
func MatMulTransB(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Rows)
	MatMulTransBInto(c, a, b)
	return c
}

// GatherRows returns a new matrix whose k-th row is m.Row(idx[k]).
func (m *Matrix) GatherRows(idx []int) *Matrix {
	out := New(len(idx), m.Cols)
	m.GatherRowsInto(out.Data, idx)
	return out
}
