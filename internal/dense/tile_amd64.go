package dense

import "fmt"

// useVectorTile is set once, from CPUID: the CPU has AVX2 and the OS saves
// the YMM registers. The GEMMs pass it to tile, the SpMM (as VectorKernels)
// to SpMMRow.
var useVectorTile = hasAVX2()

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

// tileAVX is tile over columns [0, len(c0)) of both rows (tile_amd64.s).
//
//go:noescape
func tileAVX(c0, c1, a0, a1 []float64, lda, kn int, b []float64, ldb int, add bool)

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

// hasAVX2 is the check golang.org/x/sys/cpu makes for X86.HasAVX2: the CPU
// reports AVX2 (leaf 7, EBX bit 5) and the OS has enabled XSAVE and saves
// both the XMM and the YMM state.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 {
		return false
	}
	const xmmAndYMMState = 1<<1 | 1<<2
	if xgetbv0()&xmmAndYMMState != xmmAndYMMState {
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}
