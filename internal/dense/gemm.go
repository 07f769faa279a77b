package dense

import (
	"fmt"

	"sagnn/internal/par"
)

// All three GEMMs run one micro-kernel contract: a block of c held in
// registers across the whole k loop, so no multiply-add waits on a
// store-to-load forward. It has three tiers (tier.go), picked once from
// CPUID: tilePortable, the Go loop over 2-row blocks (4 columns at a time)
// every architecture runs; on amd64 CPUs with AVX2 tileVector, the same
// 2-row blocks in 256-bit lanes (tile_amd64.s: 16, 8 or 4 columns); and on
// amd64 CPUs with AVX-512F tile8, 8-row × 16-column blocks in 512-bit
// lanes over every whole block, with tileVector over the rows and columns
// left over (a 41-class output's last 9 columns, a stripe's last 1–7 rows).
// Every output element receives its products in ascending k, each rounded
// before it is added (Go does not fuse multiply-add on amd64, and the
// vector tiles use no FMA), so the results equal the plain triple loop bit
// for bit whatever the tier, the tiling, the stripe boundaries, GOMAXPROCS
// or the CPU. The transposed forms copy their transposed operand into a panel
// the tile reads: MatMulTransA its stripe's columns of whole rows of a, in
// address order, into a pooled row panel; MatMulTransB rows of b,
// transposed, into a stack panel. No kernel skips zero entries of a: for
// finite inputs that changes no bit of a product (±0 added to a sum that
// started at +0 leaves it alone), and a non-finite entry of b propagates as
// IEEE 754 says even where a is zero.
const (
	// stripeMinRows is the output row count below which a product runs on
	// the caller's goroutine: the fan-out costs more than it saves.
	stripeMinRows = 128
	// gemmPassRows is the k extent of one MatMul pass: the strip of b that
	// stays in cache while every row pair of a stripe runs over it.
	gemmPassRows = 256
	// gemmPassRows8 is the same for the 8-row tile, which reads 8 rows of a
	// at once: the longer pass leaves each a longer stream to prefetch, and
	// at hidden width 16 its strip of b is 128 KB (EXPERIMENTS.md).
	gemmPassRows8 = 1024
	// transAPassRows is the k extent of one MatMulTransA pass: the rows of a
	// copied into the pooled row panel, and of b the tile then runs over.
	transAPassRows = 64
	// panel is the element count of the stack panel each MatMulTransB
	// worker copies transBCols rows of b into, transposed, panel/transBCols
	// rows of k deep; no transposed copy of the matrix is ever made. Its
	// width measured fastest (EXPERIMENTS.md).
	panel      = 2048
	transBCols = 16
)

// MatMulInto computes c = a×b, overwriting c. c must be a.Rows × b.Cols and
// must not alias a or b: a c that starts at an operand's first element
// panics.
func MatMulInto(c, a, b *Matrix) {
	checkShapes("MatMul", c, a, b, a.Cols, b.Rows, a.Rows, b.Cols)
	stripes(gemmStripe, c, a, b, a.Rows, hostTier)
}

// checkShapes panics unless the inner dimensions agree, c is rows×cols and
// c aliases neither operand.
func checkShapes(op string, c, a, b *Matrix, k1, k2, rows, cols int) {
	if k1 != k2 {
		panic(fmt.Sprintf("dense: %s inner dim %d vs %d", op, k1, k2))
	}
	if c.Rows != rows || c.Cols != cols {
		panic(fmt.Sprintf("dense: %s output %dx%d, want %dx%d", op, c.Rows, c.Cols, rows, cols))
	}
	if Aliased(c, a) || Aliased(c, b) {
		panic(fmt.Sprintf("dense: %s output aliases an operand", op))
	}
}

// stripeKernel is rows [lo,hi) of one GEMM form, run at one tier.
type stripeKernel func(c, a, b *Matrix, lo, hi int, t tier)

// stripes runs kernel over the n output rows of c, split into one contiguous
// stripe per worker; each stripe owns its rows of c, so no locking is
// needed. Stripes are whole blocks of t's rows, so a split never halves a
// tile. The callers pass hostTier, the tests every tier the host runs.
func stripes(kernel stripeKernel, c, a, b *Matrix, n int, t tier) {
	workers := par.Workers()
	if n < stripeMinRows || workers == 1 {
		kernel(c, a, b, 0, n, t)
		return
	}
	rb := t.rowBlock()
	chunk := ((n+workers-1)/workers + rb - 1) / rb * rb
	par.For((n+chunk-1)/chunk, func(i int) {
		lo := i * chunk
		kernel(c, a, b, lo, min(lo+chunk, n), t)
	})
}

// rowsTile runs t's tiles over the rows r < rows of c and its columns
// j < n, c_r[j] (+)= Σ_{k<kn} a[r·rowA+k·lda]·b[k·ldb+j], row r of c at
// c[r·ldc:]: at tierAVX512, tile8 over each whole 8-row block's whole
// 16-column blocks and tileVector over the block's other columns, then
// tile over the rows left, in pairs.
func rowsTile(t tier, c []float64, ldc, n, rows int, a []float64, rowA, lda, kn int, b []float64, ldb int, add bool) {
	r := 0
	if n16 := n &^ 15; t == tierAVX512 && n16 > 0 {
		bRest := b[min(n16, len(b)):] // b is empty when kn is 0
		for ; r+8 <= rows; r += 8 {
			tile8(c[r*ldc:], ldc, a[r*rowA:], rowA, lda, kn, b, ldb, n16, add)
			for q := r; q < r+8 && n16 < n; q += 2 {
				tileVector(c[q*ldc+n16:q*ldc+n], c[(q+1)*ldc+n16:(q+1)*ldc+n], a[q*rowA:], a[(q+1)*rowA:],
					lda, kn, bRest, ldb, add)
			}
		}
	}
	for ; r < rows; r += 2 {
		r1 := min(r+1, rows-1)
		tile(t, c[r*ldc:r*ldc+n], c[r1*ldc:r1*ldc+n], a[r*rowA:], a[r1*rowA:], lda, kn, b, ldb, add)
	}
}

// tile computes c_r[j] = Σ_{k<kn} a_r[k·lda]·b[k·ldb+j] for the output rows
// r = 0, 1 and every j < len(c0), starting each sum from c_r[j] when add is
// set and from zero otherwise; lda ≥ 1. An odd last row is passed as both
// rows — the same sum computed and stored twice — rather than given a second
// kernel. Every tier but tierPortable runs tileVector.
func tile(t tier, c0, c1, a0, a1 []float64, lda, kn int, b []float64, ldb int, add bool) {
	if t >= tierAVX2 {
		tileVector(c0, c1, a0, a1, lda, kn, b, ldb, add)
	} else {
		tilePortable(c0, c1, a0, a1, lda, kn, b, ldb, add)
	}
}

// tilePortable is tile in Go: 2×4 blocks of c in eight locals, then the last
// 1–3 columns one at a time.
func tilePortable(c0, c1, a0, a1 []float64, lda, kn int, b []float64, ldb int, add bool) {
	n, na := len(c0), 0
	if kn > 0 {
		na = (kn-1)*lda + 1
	}
	c1, a0, a1 = c1[:n], a0[:na], a1[:na]
	j := 0
	for ; j+4 <= n; j += 4 {
		var s00, s01, s02, s03, s10, s11, s12, s13 float64
		if add {
			s00, s01, s02, s03 = c0[j], c0[j+1], c0[j+2], c0[j+3]
			s10, s11, s12, s13 = c1[j], c1[j+1], c1[j+2], c1[j+3]
		}
		for ka, kb := 0, j; ka < na; ka, kb = ka+lda, kb+ldb {
			x0, x1 := a0[ka], a1[ka]
			bk := b[kb : kb+4 : kb+4]
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
		for ka, kb := 0, j; ka < na; ka, kb = ka+lda, kb+ldb {
			bv := b[kb]
			s0 += a0[ka] * bv
			s1 += a1[ka] * bv
		}
		c0[j], c1[j] = s0, s1
	}
}

// gemmStripe is rows [lo,hi) of c = a×b, both operands read where they lie,
// gemmPassRows of k per pass (gemmPassRows8 at tierAVX512); passes after the
// first continue from what is in c.
func gemmStripe(c, a, b *Matrix, lo, hi int, t tier) {
	pass := gemmPassRows
	if t == tierAVX512 {
		pass = gemmPassRows8
	}
	for k0 := 0; k0 == 0 || k0 < a.Cols; k0 += pass {
		kb := min(pass, a.Cols-k0)
		rowsTile(t, c.Data[lo*c.Cols:], c.Cols, c.Cols, hi-lo, a.Data[lo*a.Cols+k0:], a.Cols, 1, kb,
			b.Data[k0*b.Cols:], b.Cols, k0 > 0)
	}
}

// MatMulTransAInto computes c = aᵀ×b without materialising aᵀ, overwriting
// c. Used for the weight gradient Y^l = (P^l)ᵀ G^l: the layer's input width
// by its output width. c must be a.Cols × b.Cols and must not alias a or b
// (checked as in MatMulInto).
func MatMulTransAInto(c, a, b *Matrix) {
	checkShapes("MatMulTransA", c, a, b, a.Rows, b.Rows, a.Cols, b.Cols)
	stripes(transAStripe, c, a, b, a.Cols, hostTier)
}

// transAStripe is rows [lo,hi) of c = aᵀ×b, k-outer: each pass copies
// transAPassRows rows of a, columns [lo,hi) of each whole, into a row panel
// — a read of a in address order, one contiguous copy per row — and the tile
// then runs over the panel's columns, its row stride as lda and 1 as the
// stride between rows of c. Passes after the first continue from what is in
// c, which keeps every sum in ascending k.
func transAStripe(c, a, b *Matrix, lo, hi int, t tier) {
	w := hi - lo
	stride := panelStride(w)
	pack := getPanel(transAPassRows * stride)
	for k0 := 0; k0 == 0 || k0 < a.Rows; k0 += transAPassRows {
		kb := min(transAPassRows, a.Rows-k0)
		for k := 0; k < kb; k++ {
			copy(pack[k*stride:][:w], a.Row(k0 + k)[lo:hi])
		}
		rowsTile(t, c.Data[lo*c.Cols:], c.Cols, c.Cols, w, pack, 1, stride, kb,
			b.Data[k0*b.Cols:], b.Cols, k0 > 0)
	}
	putPanel(pack)
}

// panelStride is the row stride of a panel w columns wide: w rounded up to
// whole cache lines, an odd number of them, so the column the tile walks
// down is spread over the cache's sets — at a power-of-two stride every row
// of it lands in the same few sets (EXPERIMENTS.md).
func panelStride(w int) int {
	lines := (w + 7) / 8
	return (lines | 1) * 8
}

// panels is the free list of TransA row panels, a buffered channel as in
// comm's bufPool: a receive or send allocates nothing, and unlike the sync
// package's Pool it drops no panel at random under the race detector, so a
// warm call allocates nothing there either. Its 64 slots hold a panel for
// every stripe of 16 ranks' concurrent products at 4 workers each; a panel
// returned to a full list is left to the GC. A panel is at most
// transAPassRows rows of a's width, so what the list holds is bounded by the
// data.
var panels = make(chan []float64, 64)

// getPanel returns a panel of n elements with unspecified contents: a pooled
// one if the list holds one that large (smaller ones are dropped on the
// way), a fresh one otherwise.
func getPanel(n int) []float64 {
	for {
		select {
		case p := <-panels:
			if cap(p) >= n {
				return p[:n]
			}
		default:
			return make([]float64, n)
		}
	}
}

// putPanel returns p to the free list, or leaves it to the GC when the list
// is full.
func putPanel(p []float64) {
	select {
	case panels <- p:
	default:
	}
}

// MatMulTransBInto computes c = a×bᵀ without materialising bᵀ, overwriting
// c. Used for the input gradient term G^l (W^l)ᵀ. c must be a.Rows × b.Rows
// and must not alias a or b (checked as in MatMulInto).
func MatMulTransBInto(c, a, b *Matrix) {
	checkShapes("MatMulTransB", c, a, b, a.Cols, b.Cols, a.Rows, b.Rows)
	stripes(transBStripe, c, a, b, a.Rows, hostTier)
}

// transBStripe is rows [lo,hi) of c = a×bᵀ: transBCols rows of b at a time
// are copied, transposed, into a stack panel the tile reads as its b, one
// pass of k at a time; passes after the first continue from what is in c.
func transBStripe(c, a, b *Matrix, lo, hi int, t tier) {
	const kPass = panel / transBCols
	var pack [panel]float64
	for j0 := 0; j0 < b.Rows; j0 += transBCols {
		w := min(transBCols, b.Rows-j0)
		for k0 := 0; k0 == 0 || k0 < a.Cols; k0 += kPass {
			kb := min(kPass, a.Cols-k0)
			for r := 0; r < w; r++ {
				for k, v := range b.Row(j0 + r)[k0 : k0+kb] {
					pack[k*transBCols+r] = v
				}
			}
			rowsTile(t, c.Data[lo*c.Cols+j0:], c.Cols, w, hi-lo, a.Data[lo*a.Cols+k0:], a.Cols, 1, kb,
				pack[:], transBCols, k0 > 0)
		}
	}
}
