//go:build !amd64

package dense

// useVectorTile is false where there are no vector kernels: tile and
// SpMMRow run their portable loops alone.
const useVectorTile = false

func tileVector(c0, c1, a0, a1 []float64, lda, kn int, b []float64, ldb int, add bool) {
	panic("dense: no vector tile on this architecture")
}

func spmmRowVector(o, w []float64, idx []int, h []float64, rows int, add bool) {
	panic("dense: no vector SpMM row on this architecture")
}
