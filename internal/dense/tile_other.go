//go:build !amd64

package dense

// hostTier is tierPortable where there are no vector kernels: tile and
// SpMMRow run their portable loops alone.
const hostTier = tierPortable

func tileVector(c0, c1, a0, a1 []float64, lda, kn int, b []float64, ldb int, add bool) {
	panic("dense: no vector tile on this architecture")
}

func tile8(c []float64, ldc int, a []float64, rowA, lda, kn int, b []float64, ldb, n int, add bool) {
	panic("dense: no 8-row tile on this architecture")
}

func spmmRowVector(o, w []float64, idx []int, h []float64, rows int, add bool) {
	panic("dense: no vector SpMM row on this architecture")
}
