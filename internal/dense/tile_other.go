//go:build !amd64

package dense

// useVectorTile is false where there is no vector tile: tile runs the
// portable loop alone.
const useVectorTile = false

func tileVector(c0, c1, a0, a1 []float64, lda, kn int, b []float64, ldb int, add bool) {
	panic("dense: no vector tile on this architecture")
}
