package dense

import (
	"fmt"
	"runtime"
	"sync"
)

// All three GEMMs run one micro-kernel, tile: a 2-row × 4-column block of c
// held in locals across the whole k loop, so no multiply-add waits on a
// store-to-load forward. Every output element still receives its products in
// ascending k, and Go does not fuse multiply-add on amd64, so the results
// equal the plain triple loop bit for bit whatever the tiling, the stripe
// boundaries or GOMAXPROCS. No kernel skips zero entries of a: for finite
// inputs that changes no bit of an overwriting product (±0 added to a sum
// that started at +0 leaves it alone), MatMulAddInto can turn a −0 already in
// c into +0, and a non-finite entry of b propagates as IEEE 754 says even
// where a is zero.
const (
	// stripeMinRows is the output row count below which a product runs on
	// the caller's goroutine: the fan-out costs more than it saves.
	stripeMinRows = 128
	// packCols × packRows is the stack panel (16 KB per worker) a transposed
	// operand is packed into before the tile runs over it; no transposed copy
	// of the matrix is ever made. Wider panels measured slower (EXPERIMENTS.md).
	packCols, packRows = 8, 256
)

// MatMul returns a×b.
func MatMul(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Cols)
	MatMulInto(c, a, b)
	return c
}

// MatMulInto computes c = a×b, overwriting c. c must be a.Rows × b.Cols and
// must not alias a or b.
func MatMulInto(c, a, b *Matrix) {
	checkShapes("MatMul", a.Cols, b.Rows, c, a.Rows, b.Cols)
	stripes(gemmStripe, c, a, b, a.Rows)
}

// MatMulAddInto computes c += a×b. Same shapes as MatMulInto.
func MatMulAddInto(c, a, b *Matrix) {
	checkShapes("MatMul", a.Cols, b.Rows, c, a.Rows, b.Cols)
	stripes(gemmAddStripe, c, a, b, a.Rows)
}

// checkShapes panics unless the inner dimensions agree and c is rows×cols.
func checkShapes(op string, k1, k2 int, c *Matrix, rows, cols int) {
	if k1 != k2 {
		panic(fmt.Sprintf("dense: %s inner dim %d vs %d", op, k1, k2))
	}
	if c.Rows != rows || c.Cols != cols {
		panic(fmt.Sprintf("dense: %s output %dx%d, want %dx%d", op, c.Rows, c.Cols, rows, cols))
	}
}

// stripes runs kernel over the n output rows of c, split into one contiguous
// stripe per GOMAXPROCS worker; each worker owns its rows of c, so no locking
// is needed. Stripes are whole panels, so a split never halves a row pair.
func stripes(kernel func(c, a, b *Matrix, lo, hi int), c, a, b *Matrix, n int) {
	workers := runtime.GOMAXPROCS(0)
	if n < stripeMinRows || workers == 1 {
		kernel(c, a, b, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	chunk = (chunk + packCols - 1) / packCols * packCols
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		//lint:ignore steadyalloc the worker fan-out is the parallel kernel's one deliberate allocation, amortized over the whole stripe
		go func(lo, hi int) {
			defer wg.Done()
			kernel(c, a, b, lo, hi)
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
}

// tile computes c_r[j] = Σ_k a_r[k]·b[k·ldb+j] for the output rows r = 0, 1
// and every j < len(c0), starting each sum from c_r[j] when add is set and
// from zero otherwise. An odd last row is passed as both rows — the same sum
// computed and stored twice — rather than given a second kernel.
func tile(c0, c1, a0, a1, b []float64, ldb int, add bool) {
	n := len(c0)
	c1, a1 = c1[:n], a1[:len(a0)]
	j := 0
	for ; j+4 <= n; j += 4 {
		var s00, s01, s02, s03, s10, s11, s12, s13 float64
		if add {
			s00, s01, s02, s03 = c0[j], c0[j+1], c0[j+2], c0[j+3]
			s10, s11, s12, s13 = c1[j], c1[j+1], c1[j+2], c1[j+3]
		}
		for k, x0 := range a0 {
			x1 := a1[k]
			bk := b[k*ldb+j : k*ldb+j+4 : k*ldb+j+4]
			s00 += x0 * bk[0]
			s01 += x0 * bk[1]
			s02 += x0 * bk[2]
			s03 += x0 * bk[3]
			s10 += x1 * bk[0]
			s11 += x1 * bk[1]
			s12 += x1 * bk[2]
			s13 += x1 * bk[3]
		}
		c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
		c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
	}
	for ; j < n; j++ {
		var s0, s1 float64
		if add {
			s0, s1 = c0[j], c1[j]
		}
		for k, x0 := range a0 {
			bv := b[k*ldb+j]
			s0 += x0 * bv
			s1 += a1[k] * bv
		}
		c0[j], c1[j] = s0, s1
	}
}

func gemmStripe(c, a, b *Matrix, lo, hi int)    { gemmRows(c, a, b, lo, hi, false) }
func gemmAddStripe(c, a, b *Matrix, lo, hi int) { gemmRows(c, a, b, lo, hi, true) }

// gemmRows is rows [lo,hi) of c (+)= a×b, both operands read where they lie.
func gemmRows(c, a, b *Matrix, lo, hi int, add bool) {
	for i := lo; i < hi; i += 2 {
		i1 := min(i+1, hi-1)
		tile(c.Row(i), c.Row(i1), a.Row(i), a.Row(i1), b.Data, b.Cols, add)
	}
}

// MatMulTransA returns aᵀ×b without materialising aᵀ. Used for the weight
// gradient Y^l = (P^l)ᵀ G^l: the layer's input width by its output width.
func MatMulTransA(a, b *Matrix) *Matrix {
	c := New(a.Cols, b.Cols)
	MatMulTransAInto(c, a, b)
	return c
}

// MatMulTransAInto computes c = aᵀ×b, overwriting c. c must be
// a.Cols × b.Cols and must not alias a or b.
func MatMulTransAInto(c, a, b *Matrix) {
	checkShapes("MatMulTransA", a.Rows, b.Rows, c, a.Cols, b.Cols)
	stripes(transAStripe, c, a, b, a.Cols)
}

// transAStripe is rows [lo,hi) of c = aᵀ×b: packCols columns of a at a time
// are packed, packRows rows of a per pass, into rows of a stack panel the tile
// reads as its a vectors. Passes after the first continue from what is in c,
// which keeps every sum in ascending k.
func transAStripe(c, a, b *Matrix, lo, hi int) {
	var pack [packCols * packRows]float64
	for i0 := lo; i0 < hi; i0 += packCols {
		w := min(packCols, hi-i0)
		for k0 := 0; k0 == 0 || k0 < a.Rows; k0 += packRows {
			kb := min(packRows, a.Rows-k0)
			for k := 0; k < kb; k++ {
				for r, v := range a.Row(k0 + k)[i0 : i0+w] {
					pack[r*packRows+k] = v
				}
			}
			for r := 0; r < w; r += 2 {
				r1 := min(r+1, w-1)
				tile(c.Row(i0+r), c.Row(i0+r1), pack[r*packRows:][:kb], pack[r1*packRows:][:kb],
					b.Data[k0*b.Cols:], b.Cols, k0 > 0)
			}
		}
	}
}

// MatMulTransB returns a×bᵀ without materialising bᵀ. Used for the input
// gradient term G^l (W^l)ᵀ.
func MatMulTransB(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Rows)
	MatMulTransBInto(c, a, b)
	return c
}

// MatMulTransBInto computes c = a×bᵀ, overwriting c. c must be
// a.Rows × b.Rows and must not alias a or b.
func MatMulTransBInto(c, a, b *Matrix) {
	checkShapes("MatMulTransB", a.Cols, b.Cols, c, a.Rows, b.Rows)
	stripes(transBStripe, c, a, b, a.Rows)
}

// transBStripe is rows [lo,hi) of c = a×bᵀ: packCols rows of b at a time are
// packed, transposed, into a stack panel the tile reads as its b, packRows of
// k per pass as in transAStripe.
func transBStripe(c, a, b *Matrix, lo, hi int) {
	var pack [packRows * packCols]float64
	for j0 := 0; j0 < b.Rows; j0 += packCols {
		w := min(packCols, b.Rows-j0)
		for k0 := 0; k0 == 0 || k0 < a.Cols; k0 += packRows {
			kb := min(packRows, a.Cols-k0)
			for r := 0; r < w; r++ {
				for k, v := range b.Row(j0 + r)[k0 : k0+kb] {
					pack[k*packCols+r] = v
				}
			}
			for i := lo; i < hi; i += 2 {
				i1 := min(i+1, hi-1)
				tile(c.Row(i)[j0:j0+w], c.Row(i1)[j0:j0+w], a.Row(i)[k0:k0+kb], a.Row(i1)[k0:k0+kb],
					pack[:], packCols, k0 > 0)
			}
		}
	}
}
