package dense

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestSpMMRowVectorMatchesPortable calls the two SpMM rows by name on the
// same operands — every width up to three 16-wide blocks and a remainder,
// rows of 0, 1, 7 and 70 nonzeros with repeated indices, with and without
// add, with ±0, denormals, ±Inf and NaN among h, w and the prior o — and
// requires the same bits and nothing written past len(o).
func TestSpMMRowVectorMatchesPortable(t *testing.T) {
	if hostTier < tierAVX2 {
		t.Skip("no AVX2 on this CPU: the vector SpMM row is skipped")
	}
	rng := rand.New(rand.NewSource(11))
	const guard, hRows = 5, 9
	for n := 0; n <= 51; n++ {
		h := edgyMat(rng, hRows, n)
		plantNonFinite(rng, h)
		for _, nnz := range []int{0, 1, 7, 70} {
			w := edgyMat(rng, 1, nnz)
			plantNonFinite(rng, w)
			idx := make([]int, nnz)
			for p := range idx {
				idx[p] = rng.Intn(hRows)
			}
			if nnz > 1 {
				idx[1] = idx[0]
			}
			prior := edgyMat(rng, 1, n+guard)
			plantNonFinite(rng, prior)
			for _, add := range []bool{false, true} {
				want, got := prior.Clone(), prior.Clone()
				spmmRowPortable(want.Data[:n], w.Data, idx, h.Data, add)
				spmmRowVector(got.Data[:n], w.Data, idx, h.Data, hRows, add)
				requireSameBits(t, fmt.Sprintf("n %d nnz %d add %t", n, nnz, add), want, got)
			}
		}
	}
}
