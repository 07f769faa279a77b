package dense

import "fmt"

// hostTier is set once, from CPUID (cpuTier). The GEMMs pass it to their
// stripes, the SpMM (as VectorKernels) picks its row kernel by it.
var hostTier = cpuTier()

// tileVector is tile in AVX lanes (tileAVX): the portable tile's products
// and sums in the same order, so the bits are the same. tileAVX checks no
// bounds, so its last reads and writes are checked here.
func tileVector(c0, c1, a0, a1 []float64, lda, kn int, b []float64, ldb int, add bool) {
	n := len(c0)
	if n == 0 {
		return
	}
	_ = c1[n-1]
	if kn > 0 {
		na := (kn-1)*lda + 1
		_, _, _ = a0[na-1], a1[na-1], b[(kn-1)*ldb+n-1]
	}
	tileAVX(c0, c1, a0, a1, lda, kn, b, ldb, add)
}

// tile8 computes c[r·ldc+j] = Σ_{k<kn} a[r·rowA+k·lda]·b[k·ldb+j] for the
// rows r < 8 and the columns j < n, n a multiple of 16, starting each sum
// from c[r·ldc+j] when add is set and from zero otherwise, in 512-bit lanes
// (tileAVX512): the portable tile's products and sums in the same order, so
// the bits are the same. tileAVX512 checks no bounds, so its last reads and
// writes are checked here.
func tile8(c []float64, ldc int, a []float64, rowA, lda, kn int, b []float64, ldb, n int, add bool) {
	if n == 0 {
		return
	}
	if n%16 != 0 {
		panic(fmt.Sprintf("dense: 8-row tile over %d columns, not a multiple of 16", n))
	}
	_ = c[7*ldc+n-1]
	if kn > 0 {
		_, _ = a[7*rowA+(kn-1)*lda], b[(kn-1)*ldb+n-1]
	}
	tileAVX512(c, ldc, a, rowA, lda, kn, b, ldb, n, add)
}

// tileAVX is tile over columns [0, len(c0)) of both rows (tile_amd64.s).
//
//go:noescape
func tileAVX(c0, c1, a0, a1 []float64, lda, kn int, b []float64, ldb int, add bool)

// tileAVX512 is tile8 over columns [0, n) (tile_amd64.s).
//
//go:noescape
func tileAVX512(c []float64, ldc int, a []float64, rowA, lda, kn int, b []float64, ldb, n int, add bool)

// spmmRowVector is SpMMRow in AVX lanes (spmmRowAVX): the portable row's
// products and sums in the same order, so the bits are the same. The kernel
// checks every index against rows before it reads that row of h and returns
// the position of the first it rejects; the other bounds are checked here.
func spmmRowVector(o, w []float64, idx []int, h []float64, rows int, add bool) {
	w, h = w[:len(idx)], h[:rows*len(o)]
	if p := spmmRowAVX(o, w, idx, h, rows, add); p >= 0 {
		panic(fmt.Sprintf("dense: SpMM column index %d outside [0, %d)", idx[p], rows))
	}
}

// spmmRowAVX is SpMMRow over h's first rows rows (spmm_amd64.s). It returns
// −1, or the position of an index outside [0, rows), having read no row of h
// for it.
//
//go:noescape
func spmmRowAVX(o, w []float64, idx []int, h []float64, rows int, add bool) int

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv0 returns the low word of XCR0, the register states the OS saves.
func xgetbv0() uint32

// cpuTier is the tier this CPU runs: tierFor over what CPUID and XGETBV
// report.
func cpuTier() tier {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return tierPortable
	}
	const osxsave = 1 << 27
	_, _, c, _ := cpuid(1, 0)
	var xcr0 uint32
	if c&osxsave != 0 {
		xcr0 = xgetbv0()
	}
	_, b, _, _ := cpuid(7, 0)
	return tierFor(b, c&osxsave != 0, xcr0)
}
